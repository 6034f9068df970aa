"""S1 — Service-layer wins: shared RAG index memo + per-trace result cache.

Two production-scale claims the `DiagnosisService` facade makes:

1. constructing many agents/services reuses ONE memoized default RAG
   index (the corpus embed used to be rebuilt per agent);
2. re-diagnosing unchanged traces is served from the content-addressed
   cache — zero LLM calls, orders of magnitude faster.
"""

from __future__ import annotations

import time

from repro.core.agent import IOAgent, IOAgentConfig
from repro.core.service import DiagnosisService
from repro.rag.index import build_default_index, clear_default_index_cache, default_index_builds


def test_index_memo_across_constructions(benchmark):
    def run():
        clear_default_index_cache()
        t0 = time.perf_counter()
        build_default_index(0)
        cold = time.perf_counter() - t0
        builds_after_cold = default_index_builds()
        t0 = time.perf_counter()
        for _ in range(20):
            IOAgent(IOAgentConfig(seed=0))
        warm20 = time.perf_counter() - t0
        return cold, warm20, default_index_builds() - builds_after_cold

    cold, warm20, extra_builds = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"cold index build: {cold * 1e3:8.1f} ms")
    print(f"20 agent constructions after: {warm20 * 1e3:8.1f} ms ({extra_builds} index rebuilds)")
    assert extra_builds == 0  # every construction shared the memoized index
    assert warm20 < 20 * cold  # constructions no longer pay the embed cost


def test_trace_cache_speedup(benchmark, bench_suite):
    trace = bench_suite.get("sb01-small-writes")

    def run():
        service = DiagnosisService(config=IOAgentConfig(seed=0))
        t0 = time.perf_counter()
        service.diagnose(trace.log, trace_id=trace.trace_id)
        miss = time.perf_counter() - t0
        calls_after_miss = service.stats().usage.calls
        t0 = time.perf_counter()
        service.diagnose(trace.log, trace_id=trace.trace_id)
        hit = time.perf_counter() - t0
        return miss, hit, service.stats().usage.calls - calls_after_miss, service.cache_hits

    miss, hit, extra_calls, hits = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"cache miss: {miss * 1e3:8.1f} ms   cache hit: {hit * 1e6:8.1f} µs")
    assert hits == 1
    assert extra_calls == 0  # the hit made no LLM calls
    assert hit < miss / 10
