"""Scenario build rate: the block simulator against the per-op oracle.

Regenerating TraceBench by simulation starts every evaluation (``repro
evaluate``, the eval gate, the chaos sweep, perfbench's ``suite-build``).
Per scenario, this benchmark records the best-of-N process time of one
build (``Workload.run``: generate the phases, execute them, reduce the
op table to counters and DXT segments), the same for
``tests/sim_oracle.py``'s ``oracle_run_workload`` (scalar phase
generators, one op at a time), the build's speedup over the oracle (the
median over the N rounds of the oracle's time over the build's), and
the build split into its four steps: phase generation, the runtime's
ordered pass, the counter reduction and the DXT collection.

Before any timing, each scenario is checked: the build must equal the
oracle's (``trace_digest`` of the log, DXT digest and job runtime), and
the timed split must equal the build.

Tiers: ``full`` is the 40 TraceBench scenarios plus path08 (collective
buffering), path14 (640 barriers in 1,296 ops), path16 (a slow OST),
path17 (producer/consumer barriers) and fuzz-s0-001-churn+lockconvoy;
``small`` is six of those; ``all`` is ``full``, which holds ``small``.
The checked-in ``BENCH_sim.json`` is the ``all`` tier, and CI gates the
small tier against it::

    PYTHONPATH=src python benchmarks/bench_sim.py \\
        --tier small --out BENCH_sim.json \\
        --baseline benchmarks/BENCH_sim.json --max-regression 2.0

The gate compares the speedup over the oracle, which both run in the
same process, so a slower machine does not trip it.  ``--before FILE``
records an earlier run's numbers (say, of the parent commit's
simulator, run with this script on that tree's ``src``) next to the
live ones, with the build-time ratio as measured and per oracle time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections.abc import Iterator
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from sim_oracle import oracle_run_workload  # noqa: E402

from repro.core.service import trace_digest  # noqa: E402
from repro.darshan.dxt import collect_segments, dxt_digest  # noqa: E402
from repro.darshan.instrument import DarshanInstrument  # noqa: E402
from repro.sim.filesystem import LustreFileSystem  # noqa: E402
from repro.sim.runtime import IORuntime, JobSpec  # noqa: E402
from repro.util.rng import rng_for  # noqa: E402
from repro.workloads.base import WorkloadContext  # noqa: E402
from repro.workloads.scenarios import available_scenarios, get_scenario  # noqa: E402

EXTRA = (
    "path08-tiny-collectives",
    "path14-lock-convoy",
    "path16-slow-ost-hotspot",
    "path17-producer-consumer",
    "fuzz-s0-001-churn+lockconvoy",
)
SMALL = (
    "sb06-shared-file",
    "io500-19-mpiio-random-1m",
    "path08-tiny-collectives",
    "path14-lock-convoy",
    "path16-slow-ost-hotspot",
    "fuzz-s0-001-churn+lockconvoy",
)
STEPS = ("generate_s", "run_s", "finalize_s", "dxt_s")


def tier(name: str) -> tuple[str, ...]:
    if name == "small":
        return SMALL
    return tuple(available_scenarios("tracebench")) + EXTRA


def split_build(workload, seed: int):
    """``run_workload``'s steps, timed one by one; returns (log, result, seconds)."""
    clock = time.process_time
    t0 = clock()
    fs = LustreFileSystem(
        num_osts=workload.num_osts,
        default_stripe_size=workload.default_stripe_size,
        default_stripe_width=workload.default_stripe_width,
        seed=seed,
        slow_osts=workload.slow_osts,
    )
    for path, override in workload.stripe_overrides.items():
        fs.set_stripe(path, *override)
    spec = JobSpec(
        exe=workload.exe,
        nprocs=workload.nprocs,
        jobid=workload.jobid,
        uses_mpi=workload.uses_mpi,
        start_time=1_700_000_000 + workload.jobid * 3600,
    )
    stream: list = []
    for i, phase in enumerate(workload.phases):
        ctx = WorkloadContext(
            nprocs=workload.nprocs,
            fs=fs,
            rng=rng_for(seed, "workload", workload.name, "phase", i),
            phase_index=i,
        )
        ops = phase(ctx)
        # A phase that yields single ops is generated here, in full.
        if isinstance(ops, Iterator):
            stream.extend(ops)
        else:
            stream.append(ops)
    t1 = clock()
    result = IORuntime(spec, fs, perf=workload.perf).run(stream)
    t2 = clock()
    log = DarshanInstrument(spec, fs).finalize(
        result.runtime + workload.compute_seconds, result.ops
    )
    t3 = clock()
    log.dxt_segments, _dropped = collect_segments(result.ops)
    t4 = clock()
    return log, result, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)


def _outcome(log, result) -> tuple:
    return trace_digest(log), dxt_digest(log.dxt_segments), result.runtime


def check(name: str, seed: int) -> None:
    """The build equals the oracle's, and the timed split equals the build."""
    workload = get_scenario(name).builder()
    built = _outcome(*workload.run(seed=seed))
    if _outcome(*oracle_run_workload(workload, seed=seed)) != built:
        raise SystemExit(f"{name}: the build differs from the per-op oracle's")
    log, result, _ = split_build(workload, seed)
    if _outcome(log, result) != built:
        raise SystemExit(f"{name}: the timed split differs from the build")


def _timed(fn) -> float:
    t0 = time.process_time()
    fn()
    return time.process_time() - t0


def run_scenario(name: str, seed: int, repeats: int) -> dict:
    """Best times of the build, its steps and the oracle, and the speedup.

    Build and oracle run in turn, so a round's pair sees one host speed;
    the speedup is the median of the rounds' oracle-over-build ratios.
    """
    check(name, seed)
    workload = get_scenario(name).builder()
    rounds = []
    steps = []
    for _ in range(repeats):
        build_s = _timed(lambda: workload.run(seed=seed))
        oracle_s = _timed(lambda: oracle_run_workload(workload, seed=seed))
        rounds.append((build_s, oracle_s))
        steps.append(split_build(workload, seed)[2])
    _, result = workload.run(seed=seed)
    build_s = min(b for b, _ in rounds)
    return {
        "scenario": name,
        "rows": len(result.ops),
        "build_s": round(build_s, 6),
        "oracle_s": round(min(o for _, o in rounds), 6),
        "speedup": round(statistics.median(o / b for b, o in rounds), 2),
        "split": {step: round(min(s[i] for s in steps), 6) for i, step in enumerate(STEPS)},
    }


def check_baseline(results: list[dict], baseline: dict, max_regression: float) -> list[str]:
    """Scenarios whose speedup over the oracle fell by more than ``max_regression``x."""
    by_scenario = {r["scenario"]: r for r in baseline.get("results", [])}
    failures = []
    for row in results:
        base = by_scenario.get(row["scenario"])
        if base is not None and base["speedup"] / row["speedup"] > max_regression:
            failures.append(
                f"{row['scenario']}: {row['speedup']:.2f}x over the oracle vs baseline "
                f"{base['speedup']:.2f}x (> {max_regression}x regression)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tier", choices=("full", "small", "all"), default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default="BENCH_sim.json")
    parser.add_argument("--baseline", help="checked-in baseline JSON to gate against")
    parser.add_argument("--max-regression", type=float, default=2.0)
    parser.add_argument("--before", help="an earlier run's JSON to record next to this one")
    args = parser.parse_args(argv)

    results = []
    print(f"{'scenario':36s}    rows    build oracle  ratio  generate     run finalize     dxt")
    for name in tier(args.tier):
        row = run_scenario(name, args.seed, args.repeats)
        results.append(row)
        split = row["split"]
        print(
            f"{name:36s} {row['rows']:7d} {row['build_s'] * 1e3:7.1f}ms "
            f"{row['oracle_s']:6.2f}s {row['speedup']:5.1f}x "
            + " ".join(f"{split[step] * 1e3:7.1f}ms" for step in STEPS)
        )
    total = sum(r["build_s"] for r in results)
    print(f"{'total':36s} {sum(r['rows'] for r in results):7d} {total * 1e3:7.1f}ms")

    payload: dict = {
        "benchmark": "sim",
        "tier": args.tier,
        "seed": args.seed,
        "repeats": args.repeats,
        "total_build_s": round(total, 6),
        "results": results,
    }
    if args.before:
        with open(args.before, encoding="utf-8") as fh:
            before_run = json.load(fh)
        before = {r["scenario"]: r for r in before_run["results"]}
        shared = [r for r in results if r["scenario"] in before]
        payload["before"] = {
            "total_build_s": before_run.get("total_build_s"),
            "results": [before[r["scenario"]] for r in shared],
        }
        payload["speedup_over_before"] = {
            r["scenario"]: round(before[r["scenario"]]["build_s"] / r["build_s"], 2) for r in shared
        }
        # The same ratio with each run's build time taken relative to its
        # own oracle run, which cancels host speed drift between the runs.
        payload["speedup_over_before_per_oracle"] = {
            r["scenario"]: round(r["speedup"] / before[r["scenario"]]["speedup"], 2) for r in shared
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
