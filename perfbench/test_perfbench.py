"""Tests of the benchmark itself, at a tiny size.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import client
import run
import spec
from tracer import layer_table
from workloads import MixEntry

ROOT = Path(__file__).resolve().parent.parent
# A seed no recorded baseline used: every output check must hold on it.
SEED = 424242
TINY_MIX = (
    MixEntry("sb03-misaligned-writes", with_dxt=False, heavy=False),
    MixEntry("path14-lock-convoy", with_dxt=True, heavy=False),
)
TINY_ROSTER = ("sb03-misaligned-writes", "path13-straggler-compute")


def _tiny(workload: str, trace: bool) -> dict:
    return run.run_workload(
        workload, SEED, 0.1, trace, ROOT, mix=TINY_MIX, roster=TINY_ROSTER
    )


@pytest.fixture(scope="module")
def outcomes() -> dict[tuple[str, bool], dict]:
    return {(w, t): _tiny(w, t) for w in spec.WORKLOAD_NAMES for t in (False, True)}


def test_benchmark_json_matches_spec() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in spec.GATED_E2E
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.LAYER_METRICS
    ]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_metric_is_emitted_with_unit(outcomes, capsys) -> None:
    for (workload, trace), outcome in outcomes.items():
        result = run.report(outcome, SEED, 0.1)
        expected = spec.LAYER_METRICS if trace else spec.GATED_E2E
        assert result["correct"], (workload, trace, outcome["reasons"])
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m.name: m.unit for m in expected
        }
        printed = capsys.readouterr().out
        for metric in expected:
            assert f"{metric.name} " in printed and metric.better in printed
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values()), workload


def test_digest_key_probes_per_request(outcomes) -> None:
    cold = outcomes[("cold-diagnose", True)]["layers"]
    warm = outcomes[("warm-resubmit", True)]["layers"]
    assert cold["core.service.cache_key.calls_per_request"] == 3.0
    assert warm["core.service.cache_key.calls_per_request"] == 2.0
    assert cold["serve.server.runs_per_request"] == 1.0
    assert warm["serve.server.runs_per_request"] == 0.0
    assert warm["llm.client.calls_per_diagnosis"] == 0.0
    assert outcomes[("warm-resubmit", False)]["reported"]["llm_calls_per_diagnosis"] == 0.0


def test_warm_serves_the_cold_text(outcomes) -> None:
    cold = outcomes[("cold-diagnose", False)]["digest"][0]
    warm = outcomes[("warm-resubmit", False)]["digest"][0]
    assert cold == warm


def _warm_over(store_edit) -> dict:
    """Prime a tiny store, damage it with ``store_edit``, then resubmit."""
    work = ROOT / ".perfbench-work" / "test-tamper"
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs = run._Jobs(ROOT, work, deadline=time.monotonic() + run.DEADLINE_S)
        work.mkdir(parents=True)
        items = run.generate_inputs(TINY_MIX, SEED, work / "inputs")
        base = {
            "seed": SEED, "seconds": 0.1, "trace": False,
            "manifest": str(work / "inputs" / "manifest.json"), "store": str(work / "store"),
        }
        prime = jobs.run(dict(base, mode="prime"))["untraced"]
        expected = {r["file"]: r["sha"] for r in prime["requests"]}
        store_edit(sorted((work / "store").glob("*.json"))[0])
        result = jobs.run(dict(base, mode="warm"))
        return run._evaluate("warm-resubmit", result, [], expected, items, False)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_tampered_store_entry_is_a_failure() -> None:
    def rewrite_text(path: Path) -> None:
        payload = json.loads(path.read_text())
        payload["report"]["text"] += "\ntampered"
        path.write_text(json.dumps(payload))

    outcome = _warm_over(rewrite_text)
    assert outcome["failed"] >= 1
    assert any("differs from the cold-diagnose text" in r for r in outcome["reasons"])


def test_corrupt_store_entry_is_a_failure() -> None:
    outcome = _warm_over(lambda path: path.write_text("{torn"))
    assert any("pipeline ran" in r for r in outcome["reasons"])
    assert any("LLM calls, expected 0" in r for r in outcome["reasons"])


def _request(**overrides) -> dict:
    request = {
        "file": "a.txt", "trace_id": "a/p0/c0", "report_trace_id": "a/p0/c0",
        "degraded": [], "cached": False, "sha": "s", "seconds": 0.1,
    }
    request.update(overrides)
    return request


@pytest.mark.parametrize(
    "bad, reason",
    [
        ({"degraded": ["knowledge"]}, "degraded report"),
        ({"report_trace_id": "other"}, "report labelled"),
        ({"error": "QueueFullError: work queue is full"}, "QueueFullError"),
        ({"sha": "t"}, "differs from the first pass"),
    ],
)
def test_bad_cold_request_is_a_failure(bad: dict, reason: str) -> None:
    second = {"trace_id": "a/p1/c0", "report_trace_id": "a/p1/c0", **bad}
    part = {
        "requests": [_request(), _request(**second)],
        "passes": [{"store_entries": 1, "llm_calls": 1}],
    }
    reasons = run.check_serving("cold-diagnose", part, {}, items=1)
    assert len(reasons) == 1 and reason in reasons[0]
    assert "failure" in part["requests"][1]


def test_self_time_subtracts_the_union_of_parallel_children() -> None:
    exported = {
        "spans": [
            [0, "core.pipeline.integrate", 0.0, 10.0, None, 0, 0.0],
            [1, "llm.client", 1.0, 4.0, 0, 0, 0.0],
            [2, "llm.client", 3.0, 6.0, 0, 0, 0.0],
            [3, "sim.runtime", 20.0, 30.0, None, 1, 4.0],
        ],
        "aggregates": {"sim.filesystem": [5, 4.0, 1.0]},
        "counters": {},
    }
    table = layer_table(exported)
    assert table["core.pipeline.integrate"] == [1, 10.0, 5.0]
    assert table["llm.client"] == [2, 6.0, 6.0]
    assert table["sim.runtime"] == [1, 10.0, 6.0]
    assert table["sim.filesystem"] == [5, 4.0, 3.0]


def test_percentile_weights_every_order_statistic() -> None:
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 0.5) == pytest.approx(2.5)
    assert run.percentile([7.0], 0.9) == 7.0
    # Harrell-Davis: above the 10th order statistic, below the 11th, and
    # moved by the largest sample, which a two-point interpolation ignores.
    values = [float(v) for v in range(1, 12)]
    p90 = run.percentile(values, 0.9)
    assert 10.0 < p90 < 11.0
    assert run.percentile(values[:-1] + [100.0], 0.9) > p90


def test_reference_speed_scales_each_unit_by_the_chunks_around_it() -> None:
    units = [lambda: {"cpu_seconds": 0.01}, lambda: {"cpu_seconds": 0.5}]
    records, timing = client._measured_pass(units)
    first, second = (r["ref_cpu_seconds"] for r in records)
    assert len(first) == 1 and len(second) == 20  # REFERENCE_SHARE of each unit
    assert records[0]["norm_seconds"] == pytest.approx(
        0.01 * client.REFERENCE_S / first[0]
    )
    near = first + second
    assert records[1]["norm_seconds"] == pytest.approx(
        0.5 * client.REFERENCE_S * len(near) / sum(near)
    )
    assert timing["norm_seconds"] == pytest.approx(sum(r["norm_seconds"] for r in records))


def test_outside_a_checkout_it_exits_nonzero_without_a_result(tmp_path: Path) -> None:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "cold-diagnose",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""
