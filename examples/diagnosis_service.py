#!/usr/bin/env python3
"""The production facade: registry-resolved tools behind DiagnosisService.

Shows the three API layers this repo exposes:

1. the tool registry — discover and build any diagnosis tool by name;
2. DiagnosisService — per-trace caching, served in batches through a
   DiagnosisServer by ``diagnose_batch``;
3. pipeline telemetry — the server's per-stage latency and LLM spend on
   BatchResult.

Usage:  python examples/diagnosis_service.py
"""

from __future__ import annotations

from repro import DiagnosisService, IOAgentConfig, available_tools
from repro.core.batch import diagnose_batch
from repro.tracebench import build_tracebench


def main() -> None:
    print(f"registered tools: {', '.join(available_tools())}")

    suite = build_tracebench(0)
    traces = [
        suite.get(tid)
        for tid in ("sb01-small-writes", "sb06-shared-file", "io500-14-mpiio-8k-shared")
    ]

    service = DiagnosisService(tool="ioagent", config=IOAgentConfig(model="gpt-4o", seed=0))
    result = diagnose_batch(service, traces, workers=3)

    print(f"\ndiagnosed {len(result.reports)} traces with {result.tool}: "
          f"mean F1 {result.mean_f1:.3f}, {result.llm_calls} LLM calls, "
          f"${result.cost_usd:.4f}")
    print(f"\n{'stage':>12s} {'seconds':>9s} {'calls':>7s} {'prompt tok':>11s} {'USD':>9s}")
    for stage, m in result.stage_metrics.items():
        print(f"{stage:>12s} {m.seconds:>9.3f} {m.calls:>7d} {m.prompt_tokens:>11d} {m.cost_usd:>9.4f}")

    # Resubmitting the same traces: served from the content-addressed cache.
    rerun = diagnose_batch(service, traces, workers=3)
    print(f"\nrerun: {rerun.cache_hits}/{len(traces)} cache hits, "
          f"{rerun.llm_calls} new LLM calls, ${rerun.cost_usd:.4f} marginal cost")

    # The same service API drives any registered tool, e.g. the heuristic
    # baseline (zero LLM spend, no stage telemetry).
    drishti = diagnose_batch(DiagnosisService(tool="drishti"), traces)
    print(f"\ndrishti over the same traces: mean F1 {drishti.mean_f1:.3f}, "
          f"{drishti.llm_calls} LLM calls")


if __name__ == "__main__":
    main()
