"""DXT segment-count scaling: columnar ingest + vectorized extraction.

The temporal evidence channel only stays "as fast as the hardware
allows" if its cost is flat in segment count — Darshan leaves DXT off by
default precisely because per-operation tracing is expensive.  This
benchmark measures, at 10k / 100k / 1M segments:

* **ingest** — ``DxtCollector.on_op`` appending each op as one row of
  an executed-op table, plus the reduction of its rows to segments;
* **vectorized extraction** — ``dxt_temporal_facts`` over the
  :class:`~repro.darshan.segtable.SegmentTable` (the production path);
* **scalar extraction** — the PR 3 per-object reference sweeps
  (``tests/dxt_reference.py``) over the materialized
  ``list[DxtSegment]`` (the old production path, now the baseline).

It emits ``BENCH_dxt_scaling.json`` recording throughputs and the
vectorized-over-scalar speedup per size (target: >= 10x at 1M segments),
and can gate CI against a checked-in baseline::

    PYTHONPATH=src python benchmarks/bench_dxt_scaling.py \
        --tier small --out BENCH_dxt_scaling.json \
        --baseline benchmarks/BENCH_dxt_scaling.json --max-regression 2.0

The run doubles as a correctness check: at every size the vectorized
facts are compared against the scalar reference before timings are
reported.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from dxt_reference import scalar_temporal_facts  # noqa: E402

from repro.darshan.dxt import DxtCollector, dxt_temporal_facts  # noqa: E402
from repro.darshan.segtable import NO_OST, group_bounds  # noqa: E402
from repro.sim.filesystem import LustreFileSystem  # noqa: E402
from repro.sim.ops import API, IOOp, OpKind  # noqa: E402

TIERS = {
    "small": (10_000, 100_000),
    "full": (10_000, 100_000, 1_000_000),
}
TARGET_SPEEDUP_1M = 10.0

# PR 4 extraction times (double event lexsort, before the PR 5 shared
# event sort), kept so BENCH_dxt_scaling.json records the before/after
# of the ROADMAP-flagged optimization alongside the live numbers.
PR4_DOUBLE_LEXSORT_EXTRACT_S = {10_000: 0.008739, 100_000: 0.071868, 1_000_000: 0.815921}

_API_OF = {"X_POSIX": API.POSIX, "X_MPIIO": API.MPIIO}


def synthesize_ops(n: int, seed: int = 0, n_ranks: int = 64) -> list[tuple[IOOp, float, float]]:
    """A realistic dense op stream exercising every temporal kernel.

    Each rank issues its operations sequentially (back-to-back with small
    think gaps, occasionally a longer compute pause), the way real
    application streams look — 64 ranks, 32 files, a read/write mix, and
    MPIIO->POSIX lowering on a few shared files.  Dense per-rank streams
    keep the scalar reference on its intended workload shape (few merged
    busy windows), so the measured speedup reflects per-object overhead,
    not a pathological corner of the old implementation.
    """
    rng = np.random.default_rng(seed)
    rank = rng.integers(0, n_ranks, n)
    path_idx = rng.integers(0, 32, n)
    is_read = rng.random(n) < 0.3
    length = rng.integers(4096, 1 << 20, n)
    offset = rng.integers(0, 1 << 30, n)
    duration = length / 2.0e8 * rng.uniform(0.5, 2.0, n)
    gap = np.where(rng.random(n) < 0.02, rng.exponential(0.05, n), rng.exponential(2e-4, n))
    mpiio = (path_idx < 4) & (rng.random(n) < 0.5)
    paths = [f"/scratch/bench/f{i:04d}" for i in range(32)]

    # Per-rank sequential clocks: grouped cumulative sum of gap + duration.
    _, inverse = np.unique(rank, return_inverse=True)
    inverse = inverse.ravel()
    order, firsts, counts = group_bounds(inverse)
    step_sorted = (gap + duration)[order]
    cumulative = np.cumsum(step_sorted)
    group_base = np.repeat(cumulative[firsts] - step_sorted[firsts], counts)
    end_sorted = cumulative - group_base
    end = np.empty(n)
    end[order] = end_sorted
    start = end - duration

    ops = []
    for i in range(n):
        module = "X_MPIIO" if mpiio[i] else "X_POSIX"
        ops.append(
            (
                IOOp(
                    kind=OpKind.READ if is_read[i] else OpKind.WRITE,
                    api=_API_OF[module],
                    rank=int(rank[i]),
                    path=paths[int(path_idx[i])],
                    offset=int(offset[i]),
                    size=int(length[i]),
                ),
                float(start[i]),
                float(end[i]),
            )
        )
    return ops


def _best_of(fn, repeats: int) -> tuple[float, object]:
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _facts_match(vec_facts, ref_facts) -> bool:
    vec = {f.kind: f.data for f in vec_facts}
    ref = {f.kind: f.data for f in ref_facts}
    if vec.keys() != ref.keys():
        return False
    for kind, ref_data in ref.items():
        for field, expected in ref_data.items():
            got = vec[kind][field]
            if isinstance(expected, float):
                if not np.isclose(got, expected, rtol=1e-6, atol=1e-9):
                    return False
            elif got != expected:
                return False
    return True


def run_size(n: int, seed: int = 0, repeats: int = 3) -> dict:
    ops = synthesize_ops(n, seed=seed)

    # Ingest stamps every segment with its serving OST, as run_workload
    # does: the attribution lookup is part of the measured collector cost.
    fs = LustreFileSystem(num_osts=16, default_stripe_width=4, seed=seed)
    collector = DxtCollector(max_segments=n)
    t0 = time.perf_counter()
    on_op = collector.on_op
    for op, t_start, t_end in ops:
        on_op(op, t_start, t_end, fs)
    table = collector.segments  # includes the chunk concatenation
    ingest_s = time.perf_counter() - t0
    del ops

    vectorized_s, vec_facts = _best_of(lambda: dxt_temporal_facts(table), repeats)
    # The per-OST channel's own cost: extraction over the same timeline
    # without the ost column isolates the new server-attribution kernels.
    bare = table.without_ost()
    no_ost_s, _ = _best_of(lambda: dxt_temporal_facts(bare), repeats)
    segments = list(table)  # materialization not charged to the scalar path
    scalar_repeats = 1 if n >= 1_000_000 else repeats
    scalar_s, ref_facts = _best_of(lambda: scalar_temporal_facts(segments), scalar_repeats)

    if not _facts_match(vec_facts, ref_facts):
        raise SystemExit(f"vectorized facts diverge from the scalar reference at n={n}")

    n_osts = int(np.unique(table.ost[table.ost != NO_OST]).size)
    return {
        "n_segments": n,
        "ingest_s": round(ingest_s, 6),
        "ingest_ops_per_s": round(n / ingest_s, 1),
        "vectorized_extract_s": round(vectorized_s, 6),
        "scalar_extract_s": round(scalar_s, 6),
        "speedup": round(scalar_s / vectorized_s, 2),
        "extract_throughput_seg_per_s": round(n / vectorized_s, 1),
        "n_attributed_osts": n_osts,
        "extract_no_ost_s": round(no_ost_s, 6),
        "ost_kernel_overhead_s": round(max(0.0, vectorized_s - no_ost_s), 6),
    }


def check_baseline(results: list[dict], baseline: dict, max_regression: float) -> list[str]:
    """Flag sizes whose extraction performance regressed past the factor.

    The gate compares the vectorized-over-scalar *speedup*, not absolute
    throughput: the scalar reference runs on the same machine in the same
    job, so the ratio is hardware-independent and the gate cannot fail
    just because a shared CI runner is slower than the baseline host.
    Absolute throughputs stay in the JSON for trajectory tracking.
    """
    by_size = {r["n_segments"]: r for r in baseline.get("results", [])}
    failures = []
    for row in results:
        base = by_size.get(row["n_segments"])
        if base is None:
            continue
        if base["speedup"] / row["speedup"] > max_regression:
            failures.append(
                f"n={row['n_segments']}: {row['speedup']:.1f}x speedup vs baseline "
                f"{base['speedup']:.1f}x (> {max_regression}x regression)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tier", choices=sorted(TIERS), default="full")
    parser.add_argument("--sizes", type=int, nargs="*", help="override the tier's sizes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_dxt_scaling.json")
    parser.add_argument("--baseline", help="checked-in baseline JSON to gate against")
    parser.add_argument("--max-regression", type=float, default=2.0)
    args = parser.parse_args(argv)

    sizes = tuple(args.sizes) if args.sizes else TIERS[args.tier]
    results = []
    print(f"{'segments':>10s} {'ingest':>10s} {'vectorized':>11s} {'scalar':>10s} {'speedup':>8s}")
    for n in sizes:
        row = run_size(n, seed=args.seed)
        results.append(row)
        print(
            f"{row['n_segments']:>10d} {row['ingest_s']:>9.3f}s "
            f"{row['vectorized_extract_s']:>10.3f}s {row['scalar_extract_s']:>9.3f}s "
            f"{row['speedup']:>7.1f}x"
        )

    payload = {
        "benchmark": "dxt_scaling",
        "tier": args.tier if not args.sizes else "custom",
        "seed": args.seed,
        "target_speedup_at_1m": TARGET_SPEEDUP_1M,
        # Before/after of the shared event sort (one stable argsort feeds
        # both the concurrency and idle kernels; PR 4 lexsorted twice).
        # "after" is the no-ost extraction — the same fact set PR 4
        # computed — so the comparison isolates the sort change; the full
        # extraction including the per-OST kernels is in the result rows.
        "event_sort": {
            "shared": True,
            "before_extract_s": {
                str(n): s
                for n, s in PR4_DOUBLE_LEXSORT_EXTRACT_S.items()
                if any(r["n_segments"] == n for r in results)
            },
            "after_extract_s": {
                str(r["n_segments"]): r["extract_no_ost_s"] for r in results
            },
        },
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    status = 0
    for row in results:
        if row["n_segments"] >= 1_000_000 and row["speedup"] < TARGET_SPEEDUP_1M:
            print(
                f"FAIL: speedup {row['speedup']}x at {row['n_segments']} segments "
                f"is below the {TARGET_SPEEDUP_1M}x target",
                file=sys.stderr,
            )
            status = 1
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            failures = check_baseline(results, json.load(fh), args.max_regression)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
            status = 1
        if not failures:
            print(f"speedup within {args.max_regression}x of {args.baseline}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
