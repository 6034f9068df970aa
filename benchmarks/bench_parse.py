"""darshan-parser text parse rate: the bulk parser against the line-by-line oracle.

Every diagnosis starts by reading a trace's text, so the parse rate is
the top layer of a warm resubmission.  Per trace, this benchmark
records the text's size, the best-of-N process time and MB/s of
``parse_darshan_text`` (the bulk parser) and of
``tests/darshan_oracle.py`` (the line-by-line reading it must equal),
timed in turn, and the bulk parser's speedup over the oracle: the
median over the N rounds of the oracle's time over the parser's.

Before any timing, each trace is checked: the bulk parse must equal the
oracle's (header, records with counter order and value types, DXT
segments and the parse report), the counter table must keep the text's
digest memo, and ``trace_digest`` must equal the sha256 of the rendered
text.

Tiers: ``full`` is the record-heavy traces of the serving mix (sb05,
ra07, path19 with its DXT section) and the longest DXT section (path04)
at seed 0; ``small`` is io500-11, ra05 and path14 with DXT; ``all`` is
both.  The checked-in ``BENCH_parse.json`` is the ``all`` tier, and CI
gates the small tier against it::

    PYTHONPATH=src python benchmarks/bench_parse.py \\
        --tier small --out BENCH_parse.json \\
        --baseline benchmarks/BENCH_parse.json --max-regression 2.0

The gate compares the speedup over the oracle, which both run in the
same process, so a slower machine does not trip it.  ``--before FILE``
records an earlier run's numbers (say, of the parent commit's parser,
run with this script on that tree's ``src``) next to the live ones, with
the parse-time ratio as measured and per oracle time (the host's speed
drifts between two runs; each run's oracle time drifts with it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from darshan_oracle import oracle_parse_with_report  # noqa: E402

from repro.core.service import trace_digest  # noqa: E402
from repro.darshan.dxt import dxt_digest  # noqa: E402
from repro.darshan.parser import parse_darshan_text, parse_darshan_text_with_report  # noqa: E402
from repro.darshan.writer import render_darshan_text  # noqa: E402
from repro.workloads.scenarios import build_scenario  # noqa: E402

# (scenario, render its DXT section)
FULL = (
    ("sb05-metadata-storm", False),
    ("ra07-montage", False),
    ("path19-mds-vs-oss", True),
    ("path04-straggler-rank", True),
)
SMALL = (
    ("io500-11-posix-tuned-4m-32p", False),
    ("ra05-openpmd-recollected", False),
    ("path14-lock-convoy", True),
)
TIERS = {"full": FULL, "small": SMALL, "all": FULL + SMALL}


def trace_name(scenario: str, dxt: bool) -> str:
    return f"{scenario}+dxt" if dxt else scenario


def _outcome(log, records, report) -> tuple:
    """What a parse read: header, records (counter order and types), DXT, report."""
    h = log.header
    header = (h.exe, h.uid, h.jobid, h.nprocs, h.start_time, h.end_time, h.run_time)
    rows = [
        (
            r.module,
            r.path,
            r.rank,
            r.mount_point,
            r.fs_type,
            [(k, v, type(v)) for k, v in r.counters.items()],
            [(k, v, type(v)) for k, v in r.fcounters.items()],
        )
        for r in records
    ]
    dxt = dxt_digest(log.dxt_segments) if log.dxt_segments else None
    return header + (h.log_version, h.mounts), rows, dxt, report


def check(text: str) -> None:
    """The bulk parse equals the oracle's, keeps the memo, and digests as rendered."""
    log, report = parse_darshan_text_with_report(text)
    expected = oracle_parse_with_report(text)
    if _outcome(log, log.records, report) != _outcome(*expected):
        raise SystemExit("the bulk parse differs from the oracle's")
    if log.counter_table.memo is None:
        raise SystemExit("the counter table dropped the text's digest memo")
    whole = hashlib.sha256(render_darshan_text(log).encode("utf-8"))
    if log.dxt_segments:
        whole.update(dxt_digest(log.dxt_segments).encode("ascii"))
    if trace_digest(log) != whole.hexdigest():
        raise SystemExit("trace_digest differs from the rendered text's digest")


def _timed(fn, text: str) -> float:
    t0 = time.process_time()
    fn(text)
    return time.process_time() - t0


def run_trace(scenario: str, dxt: bool, seed: int, repeats: int) -> dict:
    """Best times of the parser and the oracle, and the speedup.

    The two run in turn, so a round's pair sees one host speed; the
    speedup is the median of the rounds' oracle-over-parser ratios.
    """
    text = render_darshan_text(build_scenario(scenario, seed=seed).log, include_dxt=dxt)
    check(text)
    size = len(text.encode("utf-8"))
    rounds = [
        (_timed(parse_darshan_text, text), _timed(oracle_parse_with_report, text))
        for _ in range(repeats)
    ]
    parse_s = min(p for p, _ in rounds)
    oracle_s = min(o for _, o in rounds)
    return {
        "trace": trace_name(scenario, dxt),
        "bytes": size,
        "parse_s": round(parse_s, 6),
        "parse_mb_per_s": round(size / 1e6 / parse_s, 1),
        "oracle_s": round(oracle_s, 6),
        "oracle_mb_per_s": round(size / 1e6 / oracle_s, 1),
        "speedup": round(statistics.median(o / p for p, o in rounds), 2),
    }


def check_baseline(results: list[dict], baseline: dict, max_regression: float) -> list[str]:
    """Traces whose speedup over the oracle fell by more than ``max_regression``x."""
    by_trace = {r["trace"]: r for r in baseline.get("results", [])}
    failures = []
    for row in results:
        base = by_trace.get(row["trace"])
        if base is not None and base["speedup"] / row["speedup"] > max_regression:
            failures.append(
                f"{row['trace']}: {row['speedup']:.2f}x over the oracle vs baseline "
                f"{base['speedup']:.2f}x (> {max_regression}x regression)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tier", choices=sorted(TIERS), default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default="BENCH_parse.json")
    parser.add_argument("--baseline", help="checked-in baseline JSON to gate against")
    parser.add_argument("--max-regression", type=float, default=2.0)
    parser.add_argument("--before", help="an earlier run's JSON to record next to this one")
    args = parser.parse_args(argv)

    results = []
    print(f"{'trace':36s}     MB     parse   MB/s    oracle   MB/s  ratio")
    for scenario, dxt in TIERS[args.tier]:
        row = run_trace(scenario, dxt, args.seed, args.repeats)
        results.append(row)
        print(
            f"{row['trace']:36s} {row['bytes'] / 1e6:6.2f} {row['parse_s'] * 1e3:7.1f}ms "
            f"{row['parse_mb_per_s']:6.1f} {row['oracle_s'] * 1e3:7.1f}ms "
            f"{row['oracle_mb_per_s']:6.1f} {row['speedup']:5.2f}x"
        )

    payload: dict = {
        "benchmark": "parse",
        "tier": args.tier,
        "seed": args.seed,
        "repeats": args.repeats,
        "results": results,
    }
    if args.before:
        with open(args.before, encoding="utf-8") as fh:
            before = {r["trace"]: r for r in json.load(fh)["results"]}
        payload["before"] = [before[r["trace"]] for r in results if r["trace"] in before]
        shared = [r for r in results if r["trace"] in before]
        payload["speedup_over_before"] = {
            r["trace"]: round(before[r["trace"]]["parse_s"] / r["parse_s"], 2) for r in shared
        }
        # The same ratio with each run's parse time taken relative to its
        # own oracle run, which cancels host speed drift between the runs.
        payload["speedup_over_before_per_oracle"] = {
            r["trace"]: round(r["speedup"] / before[r["trace"]]["speedup"], 2) for r in shared
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
        print(f"speedup over the oracle within {args.max_regression}x of {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
