"""Benchmark inputs, made from the workload seed.

The serving workloads share one mix of 15 registry scenarios drawn from
all five registry sources.  The mix is fixed so that the two latency
percentiles land inside a cluster of similar requests, not on the edge
between two: 9/15 (60 %) are light counter-only traces, 3/15 carry a
DXT section, and 3/15 (20 %) are record-heavy, so p50 falls among the
light traces and p90 in the middle of the heavy ones.  The seed changes
what every trace contains (each scenario is simulated at the seed) and
the order requests arrive in, so a seed not used before gives new
content, new cache keys and new reports.

The program under test only ever receives the rendered trace files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

__all__ = ["MixEntry", "SERVING_MIX", "generate_inputs", "pass_order", "SUITE_SELECTOR"]


@dataclass(frozen=True)
class MixEntry:
    """One trace of the serving mix and how it is rendered."""

    scenario: str
    with_dxt: bool  # embed the DXT section in the text (the hard pathology tier)
    heavy: bool  # >= ~2k file records


SERVING_MIX: tuple[MixEntry, ...] = (
    # Record-heavy: 3000, 3603 and 1923 file records.
    MixEntry("sb05-metadata-storm", with_dxt=False, heavy=True),
    MixEntry("ra07-montage", with_dxt=False, heavy=True),
    MixEntry("path19-mds-vs-oss", with_dxt=True, heavy=True),
    # Hard pathology tier, diagnosed from embedded DXT timelines.
    MixEntry("path04-straggler-rank", with_dxt=True, heavy=False),
    MixEntry("path14-lock-convoy", with_dxt=True, heavy=False),
    MixEntry("path17-producer-consumer", with_dxt=True, heavy=False),
    # Light counter-only traces (<= 128 file records), all five sources.
    MixEntry("sb03-misaligned-writes", with_dxt=False, heavy=False),
    MixEntry("sb09-stdio-write", with_dxt=False, heavy=False),
    MixEntry("io500-06-posix-random-1m", with_dxt=False, heavy=False),
    MixEntry("io500-11-posix-tuned-4m-32p", with_dxt=False, heavy=False),
    MixEntry("io500-19-mpiio-random-1m", with_dxt=False, heavy=False),
    MixEntry("ra01-amrex", with_dxt=False, heavy=False),
    MixEntry("ra05-openpmd-recollected", with_dxt=False, heavy=False),
    MixEntry("path09-fsync-per-write", with_dxt=False, heavy=False),
    MixEntry("fuzz-adv-smallwrite-masked", with_dxt=False, heavy=False),
)

# suite-build regenerates the paper's TraceBench: the registry selector.
SUITE_SELECTOR = "tracebench"


def generate_inputs(
    mix: tuple[MixEntry, ...], seed: int, directory: Path
) -> list[dict[str, object]]:
    """Simulate every mix scenario at ``seed`` and write its parser text.

    Returns the manifest (also written as ``manifest.json``): one entry
    per trace file with its ground-truth labels and size.
    """
    from repro.darshan.writer import render_darshan_text
    from repro.workloads.scenarios import build_scenario

    directory.mkdir(parents=True, exist_ok=True)
    manifest: list[dict[str, object]] = []
    for index, entry in enumerate(mix):
        trace = build_scenario(entry.scenario, seed=seed)
        text = render_darshan_text(trace.log, include_dxt=entry.with_dxt)
        path = directory / f"{index:02d}-{entry.scenario}.darshan.txt"
        path.write_text(text, encoding="utf-8")
        segments = trace.log.dxt_segments
        manifest.append(
            {
                "file": str(path),
                "scenario": entry.scenario,
                "labels": sorted(trace.labels),
                "heavy": entry.heavy,
                "with_dxt": entry.with_dxt,
                "records": len(trace.log.records),
                "dxt_segments": len(segments) if entry.with_dxt and segments else 0,
                "bytes": len(text.encode("utf-8")),
            }
        )
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def pass_order(items: list, seed: int, workload: str, index: int) -> list:
    """The arrival order of one pass: a seeded shuffle of ``items``."""
    order = list(items)
    random.Random(f"{seed}/{workload}/{index}").shuffle(order)
    return order
