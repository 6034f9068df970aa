"""What the benchmark measures: workloads, metrics and the layer map.

This module is the one place that names every metric the benchmark
prints.  ``run.py`` reads units and directions from here, and
``test_perfbench.py`` checks that ``BENCHMARK.json`` agrees with it.

Two kinds of end-to-end metric exist:

* ``GATED_E2E`` — emitted in the untraced JSON result of every workload
  and listed in ``BENCHMARK.json`` with a regression bound.  Each is
  non-zero on every workload.  Times are given at reference speed, so
  that the host's drifting speed cancels out: ``norm_`` metrics are the
  measured CPU time scaled by how fast a fixed reference chunk ran right
  around it (``client._measured_pass``), and ``setup_s`` is the set-up
  time scaled by how fast a bare interpreter started right before it
  (``run.INTERPRETER_S``).
* ``REPORTED_E2E`` — printed with unit and direction, without a bound.
  The wall-clock times as measured (``latency_p50_s`` ...), which swing
  with the host's speed from one minute to the next, and metrics that
  are zero (``failed_ratio``, LLM spend on ``warm-resubmit``) or
  undefined (``diagnosis_f1`` on ``suite-build``) somewhere, so they
  cannot carry a relative bound.  ``failed_ratio`` is also the JSON
  ``failed``/``attempted`` pair; LLM spend and F1 reappear as per-layer
  metrics.

``ServeSnapshot``'s ``LatencyModel`` values are modeled from token
counts.  The benchmark never reads them and never reports them as
performance: every time it prints is measured, and a scaled time is a
measured time over a measured reference time.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Metric",
    "GATED_E2E",
    "REPORTED_E2E",
    "LAYER_METRICS",
    "LAYER_ROWS",
    "WORKLOADS",
    "WORKLOAD_NAMES",
]


@dataclass(frozen=True)
class Metric:
    """One named number: its unit, direction, and what it should move."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    moves: str = ""  # for layer metrics: the end-to-end metrics it should move


GATED_E2E: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower"),
    Metric("norm_latency_p50_s", "s", "lower"),
    Metric("norm_latency_p90_s", "s", "lower"),
    Metric("norm_throughput_per_s", "1/s", "higher"),
    Metric("peak_rss_mb", "MB", "lower"),
)

REPORTED_E2E: tuple[Metric, ...] = (
    Metric("setup_wall_s", "s", "lower"),
    Metric("latency_p50_s", "s", "lower"),  # wall clock, as measured
    Metric("latency_p90_s", "s", "lower"),
    Metric("throughput_per_s", "1/s", "higher"),
    Metric("failed_ratio", "ratio", "lower"),
    Metric("llm_calls_per_diagnosis", "count", "lower"),
    Metric("llm_tokens_per_diagnosis", "count", "lower"),
    Metric("diagnosis_f1", "ratio", "higher"),
)

# Per-layer metrics emitted by the traced run (``--trace 1``).  Layer time
# is given as self time in percent of request time (serving) or of
# scenario build time (suite-build), so a layer a workload never enters
# reads 0 % rather than a constant zero duration; the printed table has
# the same rows in seconds.
_P = "%"
LAYER_METRICS: tuple[Metric, ...] = (
    Metric("darshan.parser.self_pct", _P, "lower",
           "warm-resubmit norm_latency_p90_s/norm_throughput_per_s; "
           "cold-diagnose norm_latency_p90_s"),
    Metric("core.service.cache_key.self_pct", _P, "lower",
           "warm-resubmit norm_latency_p50_s/norm_latency_p90_s/norm_throughput_per_s; "
           "cold-diagnose norm_latency_p90_s/norm_throughput_per_s"),
    Metric("core.service.cache_key.calls_per_request", "count", "lower",
           "3 per cold request and 2 per hit at the seed commit"),
    Metric("core.service.lookup.self_pct", _P, "lower", "warm-resubmit norm_latency_p50_s"),
    Metric("core.service.hit_ratio", "ratio", "higher", "warm-resubmit norm_latency_p50_s"),
    Metric("serve.store.get.self_pct", _P, "lower", "warm-resubmit norm_latency_p50_s"),
    Metric("serve.store.get.calls", "count", "lower", "warm-resubmit norm_latency_p50_s"),
    Metric("serve.store.put.self_pct", _P, "lower", "cold-diagnose latency (expected small)"),
    Metric("serve.store.put.calls", "count", "lower", "cold-diagnose latency (expected small)"),
    Metric("serve.server.queue_wait_pct", _P, "lower", "cold-diagnose latency (expected small)"),
    Metric("serve.server.runs_per_request", "ratio", "lower",
           "failed_ratio, norm_throughput_per_s (1.0 cold, 0.0 warm)"),
    Metric("serve.server.cache_served", "count", "higher",
           "failed_ratio, norm_throughput_per_s"),
    Metric("serve.server.coalesced", "count", "higher", "failed_ratio, norm_throughput_per_s"),
    Metric("serve.server.rejected", "count", "lower", "failed_ratio, norm_throughput_per_s"),
    Metric("core.pipeline.preprocess.self_pct", _P, "lower",
           "cold-diagnose norm_latency_p90_s (record-heavy share)"),
    Metric("core.pipeline.summarize.self_pct", _P, "lower",
           "cold-diagnose norm_latency_p50_s/norm_throughput_per_s; "
           "norm_latency_p90_s (record-heavy share)"),
    Metric("core.pipeline.temporal.self_pct", _P, "lower",
           "cold-diagnose norm_throughput_per_s (DXT share)"),
    Metric("core.pipeline.describe.self_pct", _P, "lower",
           "cold-diagnose norm_latency_p50_s/norm_throughput_per_s"),
    Metric("core.pipeline.integrate.self_pct", _P, "lower",
           "cold-diagnose norm_latency_p50_s/norm_throughput_per_s"),
    Metric("core.pipeline.diagnose.self_pct", _P, "lower",
           "cold-diagnose norm_latency_p50_s/norm_throughput_per_s"),
    Metric("core.pipeline.merge.self_pct", _P, "lower",
           "cold-diagnose norm_latency_p50_s/norm_throughput_per_s"),
    Metric("core.pipeline.integrate.kept_ratio", "ratio", "higher",
           "guards diagnosis_f1 while retrieval changes"),
    Metric("llm.client.self_pct", _P, "lower", "cold-diagnose norm_throughput_per_s"),
    Metric("llm.client.calls_per_diagnosis", "count", "lower", "llm_calls_per_diagnosis"),
    Metric("llm.client.prompt_tokens_per_diagnosis", "count", "lower",
           "llm_tokens_per_diagnosis"),
    Metric("llm.client.completion_tokens_per_diagnosis", "count", "lower",
           "llm_tokens_per_diagnosis"),
    Metric("llm.client.retries", "count", "lower", "cold-diagnose norm_throughput_per_s"),
    Metric("rag.retriever.self_pct", _P, "lower",
           "cold-diagnose norm_latency_p50_s/norm_throughput_per_s"),
    Metric("rag.retriever.calls_per_diagnosis", "count", "lower",
           "cold-diagnose norm_latency_p50_s/norm_throughput_per_s"),
    Metric("core.report.diagnosis_f1", "ratio", "higher", "diagnosis_f1"),
    Metric("sim.runtime.self_pct", _P, "lower", "suite-build norm_throughput_per_s"),
    Metric("sim.ops_per_scenario", "count", "lower", "suite-build norm_throughput_per_s"),
    Metric("sim.filesystem.self_pct", _P, "lower", "suite-build norm_throughput_per_s"),
    Metric("darshan.instrument.on_op.self_pct", _P, "lower",
           "suite-build norm_throughput_per_s"),
    Metric("darshan.instrument.finalize.self_pct", _P, "lower",
           "suite-build norm_throughput_per_s"),
    Metric("darshan.dxt.on_op.self_pct", _P, "lower", "suite-build norm_throughput_per_s"),
    Metric("darshan.segtable.build.self_pct", _P, "lower",
           "suite-build norm_throughput_per_s"),
    Metric("trace.overhead_pct", _P, "lower",
           "none: traced vs untraced norm_throughput_per_s of the same run"),
)

# Rows of the printed per-layer table, in request order.  Each is a span
# or aggregate name recorded by ``tracer.py``; the root rows ("request",
# "workloads.build_scenario") define 100 %.
LAYER_ROWS: tuple[str, ...] = (
    "request",
    "client.read",
    "darshan.parser",
    "serve.server.submit",
    "core.service.cache_key",
    "core.service.lookup",
    "serve.store.get",
    "serve.server.queue_wait",
    "core.service.diagnose",
    "core.pipeline.preprocess",
    "core.pipeline.summarize",
    "core.pipeline.temporal",
    "core.pipeline.describe",
    "core.pipeline.integrate",
    "core.pipeline.diagnose",
    "core.pipeline.merge",
    "llm.client",
    "rag.retriever",
    "serve.store.put",
    "workloads.build_scenario",
    "sim.runtime",
    "sim.filesystem",
    "darshan.instrument.on_op",
    "darshan.instrument.finalize",
    "darshan.dxt.on_op",
    "darshan.segtable.build",
)


@dataclass(frozen=True)
class WorkloadInfo:
    """One workload: why it exists and the traffic properties it has."""

    name: str
    why: str
    loop: str
    heavy_share: str
    dxt_share: str
    duplicate_share: str


WORKLOADS: tuple[WorkloadInfo, ...] = (
    WorkloadInfo(
        "cold-diagnose",
        "a never-seen trace file is diagnosed: every request runs all seven stages "
        "and writes the store",
        loop="closed, 1 client",
        heavy_share="3/15 traces (>= ~2k file records)",
        dxt_share="4/15 traces embed a DXT section",
        duplicate_share="0 within one server/store lifetime",
    ),
    WorkloadInfo(
        "warm-resubmit",
        "known traces come back in bursts of 4 to a fresh server over a primed store: "
        "parse, digest and probe, no pipeline",
        loop="closed, 1 client",
        heavy_share="3/15 traces (>= ~2k file records)",
        dxt_share="4/15 traces embed a DXT section",
        duplicate_share="3/4 (each trace is resubmitted 4 times per server lifetime)",
    ),
    WorkloadInfo(
        "suite-build",
        "regenerates the 40-trace TraceBench at the seed: simulation substrate only, "
        "the diagnosis stack is the control",
        loop="closed, 1 client",
        heavy_share="n/a (40 TraceBench scenarios, ~827k DXT segments)",
        dxt_share="all traces carry in-memory DXT; no text is rendered",
        duplicate_share="0",
    ),
)

WORKLOAD_NAMES: tuple[str, ...] = tuple(w.name for w in WORKLOADS)

