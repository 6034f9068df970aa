"""The measured process: set up the program, then drive it in a closed loop.

``run.py`` starts this file in a fresh interpreter for every measurement
(``python3 perfbench/client.py JOB.json``) so that set-up time and peak
RSS belong to the program, not to the input generator.  The job file
names the mode:

* ``setup-serve`` / ``setup-suite`` — set up and exit (set-up probes);
* ``prime`` — one cold pass that fills the store ``warm-resubmit`` reads;
* ``cold`` / ``warm`` — serving passes, one fresh server per pass;
* ``suite`` — whole TraceBench builds.

Each mode writes one JSON result to the job's ``out`` path.  Set-up ends
when the program is ready for work; the orchestrator subtracts its own
spawn time (both read the system-wide monotonic clock).

Every request (or scenario build) is timed in wall-clock and CPU time
and followed by reference chunks that sample the host's speed; see
``_measured_pass``.  Passes run back to back while the next one is
expected to end within ``seconds``; at least one pass always runs.
Serving modes first run one warm-up pass that is checked but not timed:
a long-running server pays its first-pass costs (allocator growth, first
calls of lazily imported code) once, and on a 2-vCPU Xeon container they
made the first pass of a run up to 1.5x slower than the rest.  With
``trace`` set, the time is split: untraced passes first, then traced
passes in the same process, which gives the tracing overhead.

The result holds one part per phase (``warmup``, ``untraced``,
``traced``), each with its requests and per-pass summaries.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable

PERFBENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(PERFBENCH.parent / "src"), str(PERFBENCH)]

from tracer import NullTracer, Tracer, install_sim_tracing, traced_service  # noqa: E402
from workloads import pass_order  # noqa: E402

# Each warm trace arrives as a burst of this many identical requests.
WARM_BURST = 4
RESULT_TIMEOUT_S = 120.0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# The reference: a fixed chunk of pure-Python work (string formatting,
# dict updates, integer arithmetic) and the CPU seconds it takes when
# the host is quiet (2-vCPU Xeon container, Python 3.11).
REFERENCE_LOOPS = 8_000
REFERENCE_S = 0.0025
# After each unit of work, reference chunks take this share of its CPU
# time (at least one chunk), so the host's speed is sampled in step
# with the work.
REFERENCE_SHARE = 0.1


def _reference() -> tuple[float, float]:
    """Wall and CPU seconds of one reference chunk."""
    start, cpu_start = time.perf_counter(), time.process_time()
    table: dict[str, int] = {}
    for i in range(REFERENCE_LOOPS):
        key = f"k{i % 499}"
        table[key] = table.get(key, 0) + len(key) * i % 7
    return time.perf_counter() - start, time.process_time() - cpu_start


def _measured_pass(units: Iterable[Callable[[], dict[str, Any]]]) -> tuple[list, dict]:
    """Run each unit of work, then reference chunks; time the pass.

    The host's speed drifts by tens of percent within seconds, so each
    unit's CPU time is also given at reference speed (``norm_seconds``):
    scaled by ``REFERENCE_S`` over the mean of the chunks run right
    before and right after it.  The pass timing leaves the chunks out;
    its ``norm_seconds`` is the sum over its units.
    """
    records: list[dict[str, Any]] = []
    ref_wall = 0.0
    started = time.perf_counter()
    for unit in units:
        record = unit()
        chunks = max(1, round(REFERENCE_SHARE * record["cpu_seconds"] / REFERENCE_S))
        record["ref_cpu_seconds"] = []
        for _ in range(chunks):
            wall, cpu = _reference()
            ref_wall += wall
            record["ref_cpu_seconds"].append(cpu)
        records.append(record)
    seconds = time.perf_counter() - started - ref_wall
    before: list[float] = []
    for record in records:
        near = before + record["ref_cpu_seconds"]
        record["norm_seconds"] = record["cpu_seconds"] * REFERENCE_S * len(near) / sum(near)
        before = record["ref_cpu_seconds"]
    return records, {
        "seconds": seconds,
        "norm_seconds": sum(record["norm_seconds"] for record in records),
    }


def _keep_going(elapsed: float, passes: int, seconds: float) -> bool:
    return elapsed + elapsed / passes <= seconds


# -- serving ----------------------------------------------------------------


def _request(
    server: Any, parse: Callable[[str], Any], item: dict, trace_id: str, index: int,
    tracer: Any, texts: dict[str, str],
) -> dict[str, Any]:
    """One closed-loop request: read the file, parse it, submit, wait."""
    record: dict[str, Any] = {"file": item["file"], "trace_id": trace_id}
    submit_returned = None
    report = None
    start, cpu_start = time.perf_counter(), time.process_time()
    frame = tracer.begin_request(index, "request")
    try:
        with tracer.span("client.read"):
            text = Path(item["file"]).read_text(encoding="utf-8")
        log = parse(text)
        with tracer.span("serve.server.submit"):
            pending = server.submit(log, trace_id)
        submit_returned = time.perf_counter()
        report = pending.result(timeout=RESULT_TIMEOUT_S)
    except Exception as exc:  # noqa: BLE001 - every failure is counted, not raised
        record["error"] = f"{type(exc).__name__}: {exc}"
    end, cpu_end = time.perf_counter(), time.process_time()
    tracer.end_request(frame, submit_returned)
    record["seconds"] = end - start
    record["cpu_seconds"] = cpu_end - cpu_start
    if report is not None:
        sha = _sha(report.text)
        texts.setdefault(sha, report.text)
        record.update(
            report_trace_id=report.trace_id,
            degraded=list(report.degraded),
            sha=sha,
            cached=pending.served_from_cache,
            coalesced=pending.coalesced,
            sources_kept=report.sources_kept,
            sources_retrieved=report.sources_retrieved,
        )
    return record


def _peak_rss_mb() -> float:
    """High-water resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pass_summary(server: Any, timing: dict[str, float]) -> dict[str, Any]:
    service = server.service
    stats = service.stats()
    client = getattr(service.tool, "client", None)
    summary: dict[str, Any] = {
        **timing,
        "counters": server.counters.as_dict(),
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "store_hits": stats.store_hits,
        "llm_calls": stats.usage.calls,
        "prompt_tokens": stats.usage.prompt_tokens,
        "completion_tokens": stats.usage.completion_tokens,
        "retries": client.resilience_metrics().retries if client is not None else 0,
        "store_entries": len(service.store) if service.store is not None else 0,
        "rss_mb": _peak_rss_mb(),
    }
    return summary


def serve_passes(
    mode: str,
    items: list[dict],
    seed: int,
    seconds: float,
    make_server: Callable[[int], Any],
    parse: Callable[[str], Any],
    tracer: Any,
    first_server: Any = None,
    first_pass: int = 0,
) -> dict[str, Any]:
    """Run serving passes; each pass is one fresh server lifetime."""
    copies = WARM_BURST if mode == "warm" else 1
    requests: list[dict[str, Any]] = []
    passes: list[dict[str, Any]] = []
    texts: dict[str, str] = {}
    elapsed = 0.0
    index = first_pass
    while True:
        server = first_server if first_server is not None else make_server(index)
        first_server = None
        order = [
            (item, copy) for item in pass_order(items, seed, mode, index) for copy in range(copies)
        ]
        records, timing = _measured_pass(
            partial(_request, server, parse, item, f"{item['scenario']}/p{index}/c{copy}",
                    len(requests) + n, tracer, texts)
            for n, (item, copy) in enumerate(order)
        )
        requests += records
        server.close()
        passes.append(_pass_summary(server, timing))
        elapsed += timing["seconds"]
        index += 1
        if not _keep_going(elapsed, len(passes), seconds):
            break
    return {"requests": requests, "passes": passes, "texts": texts}


def _serving(job: dict[str, Any], spawned_ready: Callable[[], None]) -> dict[str, Any]:
    from repro.darshan.parser import parse_darshan_text
    from repro.serve import DiagnosisServer

    mode = job["mode"]
    work = Path(job["work"])

    def store_root(index: int) -> str:
        # cold: a fresh, empty store per server lifetime; warm: the primed one.
        return job["store"] if mode in ("warm", "prime") else str(work / f"store-{index}")

    first = DiagnosisServer(store=store_root(0))
    spawned_ready()
    items = json.loads(Path(job["manifest"]).read_text(encoding="utf-8"))
    seed, seconds = job["seed"], job["seconds"]

    def plain(index: int) -> Any:
        return DiagnosisServer(store=store_root(index))

    def untraced(budget: float, first_pass: int, server: Any = None) -> dict[str, Any]:
        return serve_passes(
            mode, items, seed, budget, plain, parse_darshan_text, NullTracer(), server,
            first_pass,
        )

    if mode == "prime":
        return {"untraced": untraced(0.0, 0, first)}
    parts = {"warmup": untraced(0.0, 0, first)}
    if not job["trace"]:
        parts["untraced"] = untraced(seconds, 1)
        return parts
    parts["untraced"] = untraced(seconds / 2, 1)
    tracer = Tracer()

    def traced(index: int) -> Any:
        return DiagnosisServer(service=traced_service(tracer, store_root(index)))

    parts["traced"] = serve_passes(
        mode, items, seed, seconds / 2, traced, tracer.wrap("darshan.parser", parse_darshan_text),
        tracer, first_pass=1 + len(parts["untraced"]["passes"]),
    )
    parts["traced"]["trace"] = tracer.export()
    return parts


# -- suite ------------------------------------------------------------------


def suite_passes(
    roster: list, seed: int, seconds: float, build: Callable[..., Any], tracer: Any
) -> dict[str, Any]:
    """Build the whole roster repeatedly; digests are taken outside the timing."""
    from repro.core.service import trace_digest

    builds: list[dict[str, Any]] = []
    passes: list[dict[str, Any]] = []
    elapsed = 0.0
    while True:
        built: list[tuple[dict[str, Any], Any]] = []

        def build_one(scenario: Any, index: int) -> dict[str, Any]:
            record: dict[str, Any] = {"scenario": scenario.name}
            trace = None
            start, cpu_start = time.perf_counter(), time.process_time()
            frame = tracer.begin_request(index, "workloads.build_scenario")
            try:
                trace = build(scenario, seed=seed)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                record["error"] = f"{type(exc).__name__}: {exc}"
            end, cpu_end = time.perf_counter(), time.process_time()
            tracer.end_request(frame, None)
            record["seconds"] = end - start
            record["cpu_seconds"] = cpu_end - cpu_start
            built.append((record, trace))
            return record

        records, timing = _measured_pass(
            partial(build_one, scenario, len(builds) + n) for n, scenario in enumerate(roster)
        )
        builds += records
        for record, trace in built:
            if trace is not None:
                record["digest"] = trace_digest(trace.log)
                record["records"] = len(trace.log.records)
        del built
        passes.append(dict(timing, rss_mb=_peak_rss_mb()))
        elapsed += timing["seconds"]
        if not _keep_going(elapsed, len(passes), seconds):
            break
    return {"requests": builds, "passes": passes}


def _suite(job: dict[str, Any], spawned_ready: Callable[[], None]) -> dict[str, Any]:
    from repro.workloads.scenarios import build_scenario, select_scenarios

    roster = select_scenarios(job["roster"])
    spawned_ready()
    seed, seconds = job["seed"], job["seconds"]
    if not job["trace"]:
        return {"untraced": suite_passes(roster, seed, seconds, build_scenario, NullTracer())}
    parts = {"untraced": suite_passes(roster, seed, seconds / 2, build_scenario, NullTracer())}
    tracer = Tracer()
    undo = install_sim_tracing(tracer)
    try:
        parts["traced"] = suite_passes(roster, seed, seconds / 2, build_scenario, tracer)
    finally:
        undo()
    parts["traced"]["trace"] = tracer.export()
    return parts


# -- entry point ------------------------------------------------------------


def run_job(job: dict[str, Any]) -> dict[str, Any]:
    """Execute one job; the result carries ``ready`` (monotonic seconds)."""
    result: dict[str, Any] = {}

    def ready() -> None:
        result["ready"] = time.monotonic()

    mode = job["mode"]
    if mode == "setup-serve":
        from repro.serve import DiagnosisServer

        server = DiagnosisServer(store=job["store"])
        ready()
        server.close()
    elif mode == "setup-suite":
        from repro.workloads.scenarios import select_scenarios

        select_scenarios(job["roster"])
        ready()
    elif mode == "suite":
        result.update(_suite(job, ready))
    else:
        result.update(_serving(job, ready))
    return result


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    result = run_job(job)
    Path(job["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
