"""A cold diagnosis reads each fragment once.

The self-reflection judge derives a fragment description's topics once
per fragment, not once per retrieved source, and the pre-processor's
module tables are built only when something reads them.  Neither may
change an answer.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import preprocess
from repro.core.agent import IOAgent, IOAgentConfig
from repro.core.preprocess import split_modules
from repro.llm.models import get_model
from repro.llm.tasks import relevance
from repro.llm.tasks.relevance import build_relevance_prompt, handle_relevance
from repro.rag.retriever import Retriever

JUDGE = get_model("gpt-4o-mini")


def _in_fresh_thread(fn):
    """``fn()`` on a new thread, which starts with no memo entry."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=300)
    assert not thread.is_alive() and len(out) == 1
    return out[0]


@pytest.fixture(scope="module")
def sb01_run(sb01_trace):
    """One sb01 run, with ``fact_topics`` calls counted while it ran."""
    calls: list[str] = []
    direct = relevance.fact_topics

    def counting(description: str) -> set[str]:
        calls.append(description)
        return direct(description)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relevance, "fact_topics", counting)
        ctx = _in_fresh_thread(
            lambda: IOAgent(IOAgentConfig(seed=0)).run(sb01_trace.log, "derive-once")
        )
    return ctx, calls


class TestTopicsOncePerFragment:
    def test_sb01_derives_topics_once_per_judged_fragment(self, sb01_run):
        ctx, calls = sb01_run
        judged = [fid for fid, result in ctx.integrations.items() if result.retrieved]
        assert len(judged) >= 2
        # One derivation per judged fragment, in judging order...
        assert len(calls) == len(judged)
        assert [c.strip() for c in calls] == [ctx.descriptions[fid].strip() for fid in judged]
        # ...where deriving per judgment would take one per retrieved source.
        assert ctx.sources_retrieved > len(judged)


def _prompts(ctx, fid):
    description = ctx.descriptions[fid]
    sources = [Retriever.render_source(hit) for hit in ctx.integrations[fid].retrieved]
    return [build_relevance_prompt(description, source) for source in sources]


class TestMemoNeverServesAnotherDescription:
    """Answers equal the handler's with ``fact_topics`` called directly."""

    @pytest.fixture(scope="class")
    def cases(self, sb01_run):
        """Per side, (prompt, seed, direct answer): one fragment's description
        against every source of two fragments."""
        ctx, _ = sb01_run
        first, second = [fid for fid, r in ctx.integrations.items() if r.retrieved][:2]
        a, b = _prompts(ctx, first), _prompts(ctx, second)
        # Both descriptions against every source: a memo that served one
        # description for the other would flip some of these answers.
        sources = [p.split("SOURCE:", 1)[1] for p in a + b]
        heads = [p.split("SOURCE:", 1)[0] for p in (a[0], b[0])]
        # Padded to one length, so that only the exact text tells them apart.
        width = max(len(head) for head in heads)
        heads = [head.ljust(width) for head in heads]
        cases = {side: [] for side in (0, 1)}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                relevance,
                "_description_topics",
                lambda d: frozenset(relevance.fact_topics(d)),
            )
            for side, head in enumerate(heads):
                for seed, source in enumerate(sources):
                    prompt = head + "SOURCE:" + source
                    answer = handle_relevance(prompt, JUDGE, np.random.default_rng(seed))
                    cases[side].append((prompt, seed, answer))
        differ = [x[2] != y[2] for x, y in zip(cases[0], cases[1])]
        assert any(differ), "the two fragments must disagree on some source"
        return cases

    @staticmethod
    def _judge(prompt: str, seed: int) -> str:
        return handle_relevance(prompt, JUDGE, np.random.default_rng(seed))

    def test_interleaved_on_one_thread(self, cases):
        def run():
            mismatches = []
            # Alternating descriptions (a miss every call), then each
            # description's prompts back to back (hits after the first).
            order = [case for pair in zip(cases[0], cases[1]) for case in pair]
            order += cases[0] + cases[1] + cases[0][::-1]
            for prompt, seed, answer in order:
                if self._judge(prompt, seed) != answer:
                    mismatches.append((prompt[:80], seed))
            return mismatches

        assert _in_fresh_thread(run) == []

    def test_split_across_threads(self, cases):
        """More threads than cores, switching often; every answer holds."""
        workers = 4
        barrier = threading.Barrier(workers)
        mismatches: list[tuple[int, int]] = []

        def work(side: int) -> None:
            barrier.wait(timeout=30)
            for _ in range(3):
                for prompt, seed, answer in cases[side]:
                    if self._judge(prompt, seed) != answer:
                        mismatches.append((side, seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i % 2,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []


class TestModuleTablesBuiltWhenRead:
    def test_run_builds_no_table_and_reads_equal_split_modules(self, sb01_trace, monkeypatch):
        built: list[str] = []

        class CountingTable(preprocess.ModuleTable):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("module", args[0] if args else ""))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(preprocess, "ModuleTable", CountingTable)
        ctx = IOAgent(IOAgentConfig(seed=0)).run(sb01_trace.log, "tables")
        assert built == []  # the run itself built no table
        monkeypatch.undo()

        tables = ctx.module_tables
        expected = split_modules(sb01_trace.log)
        assert list(tables) == list(expected) and len(tables) == len(expected)
        assert all(module in tables for module in expected)
        assert "H5F" not in tables
        with pytest.raises(KeyError):
            tables["H5F"]
        assert dict(tables) == expected
        assert tables["POSIX"] is tables["POSIX"]  # built once, then kept
        assert tables["POSIX"].to_csv() == expected["POSIX"].to_csv()

    def test_module_tables_are_read_only(self, sb01_trace):
        ctx = IOAgent(IOAgentConfig(seed=0)).run(sb01_trace.log, "tables")
        with pytest.raises(TypeError):
            ctx.module_tables["POSIX"] = None  # type: ignore[index]
