"""Per-run accounting cannot bleed between concurrent runs on one client.

A pipeline run owns the LLM calls made in its context (its own thread, and
the pool threads of a stage that fans out), whatever the calls' ids: trace
ids are user-supplied labels, and one may be a prefix of another.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent import IOAgent, IOAgentConfig
from repro.core.pipeline import DiagnosisPipeline, PipelineContext
from repro.llm.client import LLMClient

# Trace ids that nest, share prefixes, or repeat.
NESTING_IDS = ("a", "a/b", "a/b/c", "ab", "a/bc", "b")


class _CallStage:
    """A custom stage that fans ``k`` cheap LLM calls out on its own pool."""

    name = "calls"

    def __init__(self, k: int) -> None:
        self.k = k

    def run(self, ctx: PipelineContext) -> None:
        def call(i: int) -> None:
            ctx.client.complete("TASK: plain\nhello", "gpt-4o", call_id=f"{ctx.trace_id}/{i}")

        # Each item runs in a copy of the run's context, taken on this thread.
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(copy_context().run, call, i) for i in range(self.k)]
            for future in futures:
                future.result()


def _run_concurrently(runs):
    """Start every ``(trace_id, run)`` together; returns their contexts."""
    barrier = threading.Barrier(len(runs))
    contexts: list[PipelineContext | None] = [None] * len(runs)

    def go(index: int) -> None:
        trace_id, run = runs[index]
        barrier.wait(timeout=60)
        contexts[index] = run(trace_id)

    threads = [threading.Thread(target=go, args=(i,)) for i in range(len(runs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the runs' calls finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return contexts


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(NESTING_IDS), st.integers(min_value=1, max_value=12)),
        min_size=2,
        max_size=6,
    )
)
def test_each_run_counts_exactly_its_own_calls(draws):
    client = LLMClient(seed=0)
    config = IOAgentConfig(seed=0)

    def runner(k):
        pipeline = DiagnosisPipeline([_CallStage(k)])
        # The call stage never reads the log.
        return lambda trace_id: pipeline.run(None, trace_id, config=config, client=client)

    contexts = _run_concurrently([(trace_id, runner(k)) for trace_id, k in draws])
    calls = [sum(m.calls for m in ctx.stage_metrics.values()) for ctx in contexts]
    assert calls == [k for _, k in draws]
    assert client.total_usage().calls == sum(k for _, k in draws)


def test_nested_trace_ids_on_one_agent_are_isolated(sb01_trace):
    agent = IOAgent(IOAgentConfig(seed=0))

    def run(trace_id):
        return agent.run(sb01_trace.log, trace_id=trace_id)

    contexts = _run_concurrently([("runs", run), ("runs/b", run)])
    calls = [sum(m.calls for m in ctx.stage_metrics.values()) for ctx in contexts]
    assert calls == [287, 287]  # each is what one sb01 run makes alone
    assert agent.client.total_usage().calls == 574
