"""Summary extraction: the columnar twins against record rows and the published extractors.

``summarize`` turns a parsed log into the Table I fragments.  The
published extractors in ``repro.core.summaries`` read per-record rows,
and their source text is each fragment's ``code``; the pipeline runs
their columnar twins, which read the log's counter table and build no
rows.  Per trace, this benchmark records the best-of-N process time of
the published path (building the rows, then running every published
extractor, on a fresh parse each round), of the twins
(``extract_fragments``, on another fresh parse), and the twins' speedup:
the median over the N rounds of the published time over the twins'.

Before any timing, each trace is checked: the twins' fragments must
equal the published ones (JSON, ``code`` and each fact's ``repr``).

Tiers: ``full`` is the 15 traces of perfbench's serving mix at seed 0,
parsed from their text (three record-heavy, three with a DXT section,
nine light); ``small`` is path19 (heavy, with DXT), io500-06 (one file)
and ra05 (MPI-IO).  The checked-in ``BENCH_summarize.json`` is the
``full`` tier, and CI gates the small tier against it::

    PYTHONPATH=src python benchmarks/bench_summarize.py \\
        --tier small --out BENCH_summarize.json \\
        --baseline benchmarks/BENCH_summarize.json --max-regression 2.0

The gate compares the speedup over the published path, which runs in
the same process, so a slower machine does not trip it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from summary_oracle import fragments_key, oracle_fragments  # noqa: E402

from repro.core.summaries import extract_fragments  # noqa: E402
from repro.darshan.parser import parse_darshan_text  # noqa: E402
from repro.darshan.writer import render_darshan_text  # noqa: E402
from repro.workloads.scenarios import build_scenario  # noqa: E402

# (scenario, render its DXT section): the serving mix, heavy traces first.
FULL = (
    ("sb05-metadata-storm", False),
    ("ra07-montage", False),
    ("path19-mds-vs-oss", True),
    ("path04-straggler-rank", True),
    ("path14-lock-convoy", True),
    ("path17-producer-consumer", True),
    ("sb03-misaligned-writes", False),
    ("sb09-stdio-write", False),
    ("io500-06-posix-random-1m", False),
    ("io500-11-posix-tuned-4m-32p", False),
    ("io500-19-mpiio-random-1m", False),
    ("ra01-amrex", False),
    ("ra05-openpmd-recollected", False),
    ("path09-fsync-per-write", False),
    ("fuzz-adv-smallwrite-masked", False),
)
SMALL = (
    ("path19-mds-vs-oss", True),
    ("io500-06-posix-random-1m", False),
    ("ra05-openpmd-recollected", False),
)
TIERS = {"full": FULL, "small": SMALL}


def trace_name(scenario: str, dxt: bool) -> str:
    return f"{scenario}+dxt" if dxt else scenario


def check(text: str) -> None:
    """The twins' fragments equal the published extractors' on the parsed log."""
    if fragments_key(extract_fragments(parse_darshan_text(text))) != fragments_key(
        oracle_fragments(parse_darshan_text(text))
    ):
        raise SystemExit("the columnar twins differ from the published extractors")


def _timed(fn, text: str) -> float:
    log = parse_darshan_text(text)
    t0 = time.process_time()
    fn(log)
    return time.process_time() - t0


def run_trace(scenario: str, dxt: bool, seed: int, repeats: int) -> dict:
    """Best times of the published path and the twins, and the speedup.

    The two run in turn, so a round's pair sees one host speed.
    """
    text = render_darshan_text(build_scenario(scenario, seed=seed).log, include_dxt=dxt)
    check(text)
    log = parse_darshan_text(text)
    rounds = [
        (_timed(oracle_fragments, text), _timed(extract_fragments, text)) for _ in range(repeats)
    ]
    published_s = min(p for p, _ in rounds)
    twins_s = min(t for _, t in rounds)
    return {
        "trace": trace_name(scenario, dxt),
        "records": len(log.counter_table),
        "published_s": round(published_s, 6),
        "twins_s": round(twins_s, 6),
        "speedup": round(statistics.median(p / t for p, t in rounds), 2),
    }


def check_baseline(results: list[dict], baseline: dict, max_regression: float) -> list[str]:
    """Traces whose speedup over the published path fell by more than ``max_regression``x."""
    by_trace = {r["trace"]: r for r in baseline.get("results", [])}
    failures = []
    for row in results:
        base = by_trace.get(row["trace"])
        if base is not None and base["speedup"] / row["speedup"] > max_regression:
            failures.append(
                f"{row['trace']}: {row['speedup']:.2f}x over the published path vs baseline "
                f"{base['speedup']:.2f}x (> {max_regression}x regression)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tier", choices=sorted(TIERS), default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--out", default="BENCH_summarize.json")
    parser.add_argument("--baseline", help="checked-in baseline JSON to gate against")
    parser.add_argument("--max-regression", type=float, default=2.0)
    args = parser.parse_args(argv)

    results = []
    print(f"{'trace':36s} records  published      twins  ratio")
    for scenario, dxt in TIERS[args.tier]:
        row = run_trace(scenario, dxt, args.seed, args.repeats)
        results.append(row)
        print(
            f"{row['trace']:36s} {row['records']:7d} {row['published_s'] * 1e3:8.3f}ms "
            f"{row['twins_s'] * 1e3:8.3f}ms {row['speedup']:5.2f}x"
        )

    payload = {
        "benchmark": "summarize",
        "tier": args.tier,
        "seed": args.seed,
        "repeats": args.repeats,
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            failures = check_baseline(results, json.load(fh), args.max_regression)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"speedup over the published path within {args.max_regression}x of {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
