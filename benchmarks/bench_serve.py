"""Serving-layer gate: coalescing, throughput, batch parity, snapshot identity.

Four claims the :mod:`repro.serve` layer makes, each checked here:

1. **coalescing** — a thundering herd of N concurrent requests for the
   same trace digest costs exactly ONE pipeline run (and one LLM bill);
   every duplicate either attaches to the in-flight run or is served
   from the cache it populated.  This is the hard CI gate: any second
   execution is a regression and fails the job;
2. **sustained throughput** — a mixed workload (distinct scenarios x
   repeats) drains through the bounded queue and worker pool with every
   request answered and every duplicate free;
3. **batch and synchronous parity** — the same mixed workload run as one
   :func:`~repro.core.batch.diagnose_batch` executes once per distinct
   trace, and every batch report's text is the one ``serve_all`` returned
   for that request id (batches are a client of the server, not a second
   execution path); each distinct trace diagnosed through a fresh
   :meth:`~repro.core.service.DiagnosisService.diagnose` under a new label
   gets ``serve_all``'s text too (a run is named by its content, not by
   the caller's label);
4. **deterministic telemetry** — two fresh servers driven through the
   identical workload produce byte-identical metrics snapshots (modeled
   latency over seeded SimLLM usage; no wall-clock in the artifact).

Run the CI tier and write the snapshot artifact::

    PYTHONPATH=src python benchmarks/bench_serve.py --tier small \
        --out BENCH_serve_snapshot.json
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from repro.core.agent import IOAgentConfig
from repro.core.batch import diagnose_batch
from repro.core.service import DiagnosisService
from repro.serve import DiagnosisServer
from repro.workloads.scenarios import build_scenario, select_scenarios

TIERS = {
    # (scenario selectors, herd size, repeats per scenario)
    "small": (("sb01-small-writes", "sb03-misaligned-writes"), 8, 3),
    "full": (("simple-bench",), 32, 4),
}


def _build_traces(selectors, seed):
    traces = []
    for scenario in select_scenarios(list(selectors)):
        traces.append(build_scenario(scenario, seed=seed))
    return traces


def _mixed_workload(traces, repeats: int) -> list:
    """Each trace ``repeats`` times, relabeled ``<trace_id>#<i>``."""
    return [
        dataclasses.replace(trace, trace_id=f"{trace.trace_id}#{i}")
        for trace in traces
        for i in range(repeats)
    ]


def run_coalescing(trace, herd: int, seed: int) -> dict:
    """N concurrent identical requests -> exactly one executed run."""
    service = DiagnosisService(config=IOAgentConfig(seed=seed))
    server = DiagnosisServer(service, workers=4, queue_depth=herd)
    t0 = time.perf_counter()
    handles = [server.submit(trace.log, trace_id=f"req-{i}") for i in range(herd)]
    reports = [h.result(timeout=300) for h in handles]
    elapsed = time.perf_counter() - t0
    server.close()
    stats = service.stats()
    assert all(r.text == reports[0].text for r in reports)
    assert [r.trace_id for r in reports] == [f"req-{i}" for i in range(herd)]
    return {
        "herd": herd,
        "executed": server.counters.executed,
        "coalesced": server.counters.coalesced,
        "cache_served": server.counters.cache_served,
        "llm_calls": stats.usage.calls,
        "seconds": round(elapsed, 4),
    }


def run_throughput(traces, repeats: int, seed: int) -> dict:
    """Mixed workload through the deterministic driver; all answered."""
    requests = [(trace.log, trace.trace_id) for trace in _mixed_workload(traces, repeats)]
    server = DiagnosisServer(
        service=DiagnosisService(config=IOAgentConfig(seed=seed)),
        workers=4,
        queue_depth=max(64, len(requests)),
        autostart=False,
    )
    t0 = time.perf_counter()
    reports = server.serve_all(requests)
    elapsed = time.perf_counter() - t0
    server.close()
    assert len(reports) == len(requests)
    assert server.counters.failed == 0
    return {
        "requests": len(requests),
        "distinct": len(traces),
        "executed": server.counters.executed,
        "seconds": round(elapsed, 4),
        "requests_per_s": round(len(requests) / elapsed, 1),
        "texts": {trace_id: report.text for (_, trace_id), report in zip(requests, reports)},
    }


def run_batch_parity(traces, repeats: int, seed: int, served: dict[str, str]) -> dict:
    """The mixed workload as one batch: runs once per distinct trace, serve's texts."""
    service = DiagnosisService(config=IOAgentConfig(seed=seed))
    result = diagnose_batch(service, _mixed_workload(traces, repeats), workers=4)
    return {
        "requests": len(result.reports),
        "executed": service.stats().cache_misses,
        "mismatched": sorted(
            trace_id
            for trace_id, report in result.reports.items()
            if report.text != served[trace_id]
        ),
    }


def run_sync_parity(traces, seed: int, served: dict[str, str]) -> list[str]:
    """Trace ids whose text from a fresh ``service.diagnose`` differs from serve_all's."""
    mismatched = []
    for trace in traces:
        service = DiagnosisService(config=IOAgentConfig(seed=seed))
        report = service.diagnose(trace.log, trace_id=f"{trace.trace_id}@sync")
        if report.text != served[f"{trace.trace_id}#0"]:
            mismatched.append(trace.trace_id)
    return mismatched


def snapshot_bytes(traces, repeats: int, seed: int) -> bytes:
    """One fresh server's canonical snapshot over the fixed workload."""
    requests = [(trace.log, trace.trace_id) for trace in _mixed_workload(traces, repeats)]
    server = DiagnosisServer(
        service=DiagnosisService(config=IOAgentConfig(seed=seed)),
        workers=4,
        queue_depth=max(64, len(requests)),
        autostart=False,
    )
    server.serve_all(requests)
    server.close()
    return server.metrics_snapshot().to_json().encode("utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tier", choices=sorted(TIERS), default="small")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--herd", type=int, default=None, help="override the tier's herd size")
    parser.add_argument(
        "--out", default=None, help="write the deterministic metrics snapshot JSON here"
    )
    args = parser.parse_args(argv)

    selectors, herd, repeats = TIERS[args.tier]
    if args.herd is not None:
        herd = args.herd
    traces = _build_traces(selectors, args.seed)
    status = 0

    coal = run_coalescing(traces[0], herd, args.seed)
    print(
        f"coalescing: herd={coal['herd']} executed={coal['executed']} "
        f"coalesced={coal['coalesced']} cache_served={coal['cache_served']} "
        f"llm_calls={coal['llm_calls']} ({coal['seconds']}s)"
    )
    if coal["executed"] != 1:
        print(
            f"FAIL: {coal['herd']} identical concurrent requests ran the pipeline "
            f"{coal['executed']} times (coalescing regressed; expected exactly 1)",
            file=sys.stderr,
        )
        status = 1
    if coal["coalesced"] + coal["cache_served"] != coal["herd"] - 1:
        print(
            "FAIL: duplicate requests were neither coalesced nor cache-served",
            file=sys.stderr,
        )
        status = 1

    tput = run_throughput(traces, repeats, args.seed)
    print(
        f"throughput: {tput['requests']} requests ({tput['distinct']} distinct) "
        f"in {tput['seconds']}s = {tput['requests_per_s']} req/s, "
        f"executed={tput['executed']}"
    )
    if tput["executed"] != tput["distinct"]:
        print(
            f"FAIL: {tput['distinct']} distinct traces needed {tput['executed']} "
            f"pipeline runs (duplicates were re-executed)",
            file=sys.stderr,
        )
        status = 1

    batch = run_batch_parity(traces, repeats, args.seed, tput["texts"])
    print(
        f"batch: {batch['requests']} traces through diagnose_batch, "
        f"executed={batch['executed']}, {len(batch['mismatched'])} texts differ from serve_all"
    )
    if batch["executed"] != tput["distinct"]:
        print(
            f"FAIL: the batch ran {batch['executed']} times for {tput['distinct']} "
            f"distinct traces (batch duplicates were re-executed)",
            file=sys.stderr,
        )
        status = 1
    if batch["mismatched"]:
        print(
            f"FAIL: batch reports differ from serve_all's for {batch['mismatched']}",
            file=sys.stderr,
        )
        status = 1

    sync_mismatched = run_sync_parity(traces, args.seed, tput["texts"])
    print(
        f"sync: {len(traces)} traces through DiagnosisService.diagnose, "
        f"{len(sync_mismatched)} texts differ from serve_all"
    )
    if sync_mismatched:
        print(
            f"FAIL: synchronous reports differ from serve_all's for {sync_mismatched}",
            file=sys.stderr,
        )
        status = 1

    first = snapshot_bytes(traces, repeats, args.seed)
    second = snapshot_bytes(traces, repeats, args.seed)
    if first != second:
        print("FAIL: metrics snapshots differ across identical runs", file=sys.stderr)
        status = 1
    else:
        print(f"snapshots byte-identical across fresh servers ({len(first)} bytes)")
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(first + b"\n")
        print(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
