"""Tests for the pipeline/registry/service API (the tool platform layer)."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.agent import IOAgent, IOAgentConfig
from repro.core.batch import diagnose_batch
from repro.core.pipeline import (
    DEFAULT_STAGE_ORDER,
    DiagnosisPipeline,
    PipelineObserver,
    build_default_pipeline,
)
from repro.core.registry import (
    DiagnosticTool,
    ToolNotFoundError,
    available_tools,
    get_tool,
    register_tool,
    unregister_tool,
)
from repro.core.report import DiagnosisReport
from repro.core.service import DiagnosisService, trace_digest
from repro.llm.client import LLMClient, Usage, call_scope
from repro.rag.index import build_default_index, default_index_builds

# sha256 of DiagnosisReport.text for sb01-small-writes, default config,
# seed 0, trace_id "golden" — captured from the pre-refactor (fused-loop)
# IOAgent.diagnose.  The stage pipeline must reproduce it byte-for-byte.
GOLDEN_SB01_SHA256 = "f1a4acc39d2d9928ccf5f84c0b963ad9e6d736591e85a4f80b1c81358eca332e"


class RecordingObserver(PipelineObserver):
    def __init__(self) -> None:
        self.events: list[tuple] = []
        self.llm_calls: list[tuple[str, str, str]] = []

    def on_stage_start(self, stage, ctx):
        self.events.append(("start", stage))

    def on_stage_end(self, stage, ctx, seconds):
        self.events.append(("end", stage, seconds))

    def on_llm_call(self, stage, ctx, model, usage, call_id):
        self.llm_calls.append((stage, model, call_id))


class TestPipeline:
    def test_default_stage_order(self):
        pipeline = build_default_pipeline(IOAgentConfig())
        assert pipeline.stage_names == DEFAULT_STAGE_ORDER

    def test_ablation_drops_integrate_stage(self):
        pipeline = build_default_pipeline(IOAgentConfig(use_rag=False))
        assert "integrate" not in pipeline.stage_names
        assert pipeline.stage_names == tuple(
            s for s in DEFAULT_STAGE_ORDER if s != "integrate"
        )

    def test_duplicate_stage_names_rejected(self):
        from repro.core.pipeline import PreprocessStage

        with pytest.raises(ValueError, match="duplicate"):
            DiagnosisPipeline([PreprocessStage(), PreprocessStage()])

    def test_event_hooks_fire_in_stage_order(self, sb01_trace):
        obs = RecordingObserver()
        agent = IOAgent(IOAgentConfig(seed=0), observers=[obs])
        ctx = agent.run(sb01_trace.log, trace_id="hooks")
        starts = [e[1] for e in obs.events if e[0] == "start"]
        ends = [e[1] for e in obs.events if e[0] == "end"]
        assert tuple(starts) == DEFAULT_STAGE_ORDER
        assert tuple(ends) == DEFAULT_STAGE_ORDER
        # start/end strictly interleave per stage.
        kinds = [e[0] for e in obs.events]
        assert kinds == ["start", "end"] * len(DEFAULT_STAGE_ORDER)
        # Per-stage telemetry was populated.
        assert set(ctx.stage_metrics) == set(DEFAULT_STAGE_ORDER)
        assert all(m.seconds >= 0.0 for m in ctx.stage_metrics.values())

    def test_llm_calls_attributed_to_stages(self, sb01_trace):
        obs = RecordingObserver()
        agent = IOAgent(IOAgentConfig(seed=0), observers=[obs])
        ctx = agent.run(sb01_trace.log, trace_id="attr")
        stages_with_llm = {stage for stage, _, _ in obs.llm_calls}
        # preprocess/summarize are pure-Python; the LLM stages all call out.
        assert {"describe", "diagnose", "merge"} <= stages_with_llm
        assert "preprocess" not in stages_with_llm
        assert "summarize" not in stages_with_llm
        # ctx.stage_metrics agrees with the client's total accounting.
        assert sum(m.calls for m in ctx.stage_metrics.values()) == agent.client.total_usage().calls

    def test_context_products_feed_report(self, sb01_trace):
        agent = IOAgent(IOAgentConfig(seed=0))
        ctx = agent.run(sb01_trace.log, trace_id="ctx")
        assert ctx.fragments and ctx.descriptions and ctx.diagnoses
        assert set(ctx.descriptions) == {f.fragment_id for f in ctx.fragments}
        report = ctx.build_report()
        assert report.text == ctx.merged_text
        assert report.n_fragments == len(ctx.fragments)

    def test_golden_equivalence_with_prerefactor_pipeline(self, sb01_trace):
        report = IOAgent(IOAgentConfig(seed=0)).diagnose(sb01_trace.log, trace_id="golden")
        digest = hashlib.sha256(report.text.encode()).hexdigest()
        assert digest == GOLDEN_SB01_SHA256


class TestRegistry:
    def test_builtins_registered(self):
        assert {"ioagent", "drishti", "ion"} <= set(available_tools())

    def test_builtin_tools_satisfy_protocol(self, sb01_trace):
        for name in ("drishti", "ion", "ioagent"):
            tool = get_tool(name, model="gpt-4o", seed=0)
            assert isinstance(tool, DiagnosticTool)
            report = tool.diagnose(sb01_trace.log, trace_id="proto")
            assert isinstance(report, DiagnosisReport)
            assert isinstance(tool.usage(), Usage)
        assert get_tool("drishti").usage().calls == 0  # heuristic: no LLM

    def test_ioagent_tool_name_carries_model(self):
        assert get_tool("ioagent", model="llama-3.1-70b").name == "ioagent-llama-3.1-70b"

    def test_round_trip_and_unknown_name(self):
        class FakeTool:
            name = "fake"

            def diagnose(self, log, trace_id="trace"):
                return DiagnosisReport(trace_id=trace_id, model="fake", text="nothing")

            def usage(self):
                return Usage()

        register_tool("fake", FakeTool)
        try:
            assert "fake" in available_tools()
            assert isinstance(get_tool("fake"), FakeTool)
            with pytest.raises(ValueError, match="already registered"):
                register_tool("fake", FakeTool)
            register_tool("fake", FakeTool, replace=True)  # explicit override ok
        finally:
            unregister_tool("fake")
        assert "fake" not in available_tools()
        with pytest.raises(ToolNotFoundError) as exc:
            get_tool("fake")
        assert "available tools" in str(exc.value)

    def test_factory_kwarg_filtering(self):
        # Drishti's factory takes no model/seed; generic drivers may still
        # pass them and the registry drops what the signature rejects.
        tool = get_tool("drishti", model="gpt-4o", seed=3)
        assert tool.name == "drishti"


class TestService:
    def test_cache_hit_on_identical_content(self, sb01_trace):
        service = DiagnosisService(config=IOAgentConfig(seed=0))
        first = service.diagnose(sb01_trace.log, trace_id="t1")
        calls_after_first = service.stats().usage.calls
        again = service.diagnose(sb01_trace.log, trace_id="t1")
        assert service.cache_hits == 1 and service.cache_misses == 1
        assert again == first
        assert service.stats().usage.calls == calls_after_first  # no new LLM work

    def test_cache_hit_relabels_trace_id(self, sb01_trace):
        service = DiagnosisService(config=IOAgentConfig(seed=0))
        first = service.diagnose(sb01_trace.log, trace_id="a")
        renamed = service.diagnose(sb01_trace.log, trace_id="b")
        assert renamed.trace_id == "b"
        assert renamed.text == first.text

    def test_service_matches_direct_agent(self, sb01_trace):
        service = DiagnosisService(config=IOAgentConfig(seed=0))
        run_id = service.cache_key(sb01_trace.log)[0][:12]
        direct = IOAgent(IOAgentConfig(seed=0)).diagnose(sb01_trace.log, trace_id=run_id)
        via_service = service.diagnose(sb01_trace.log, trace_id="eq")
        assert via_service.text == direct.text

    def test_batch_collects_stage_metrics(self, bench):
        traces = [bench.get("sb01-small-writes"), bench.get("sb06-shared-file")]
        service = DiagnosisService(config=IOAgentConfig(seed=0))
        result = diagnose_batch(service, traces, workers=2)
        assert set(result.reports) == {t.trace_id for t in traces}
        assert set(result.stage_metrics) == set(DEFAULT_STAGE_ORDER)
        for stage in ("describe", "diagnose", "merge"):
            assert result.stage_metrics[stage].calls > 0
            assert result.stage_metrics[stage].cost_usd >= 0.0
        assert result.stage_metrics["preprocess"].calls == 0
        assert result.total_seconds > 0.0
        assert result.llm_calls == sum(m.calls for m in result.stage_metrics.values())
        # Re-running the same batch is served from cache: no new LLM calls.
        rerun = diagnose_batch(service, traces, workers=2)
        assert rerun.cache_hits == len(traces)
        assert rerun.llm_calls == 0
        assert {r.text for r in rerun.reports.values()} == {
            r.text for r in result.reports.values()
        }

    def test_service_over_heuristic_tool(self, bench):
        service = DiagnosisService(tool="drishti", config=IOAgentConfig(seed=0))
        result = diagnose_batch(service, [bench.get("sb01-small-writes")])
        assert result.tool == "drishti"
        assert result.llm_calls == 0 and result.cost_usd == 0.0
        assert result.stage_metrics == {}  # no pipeline → no stage telemetry

    def test_trace_digest_distinguishes_content(self, bench):
        a = bench.get("sb01-small-writes")
        b = bench.get("sb06-shared-file")
        assert trace_digest(a.log) == trace_digest(a.log)
        assert trace_digest(a.log) != trace_digest(b.log)


class TestSharedIndexMemo:
    def test_repeated_construction_reuses_index(self):
        idx = build_default_index(0)
        builds_before = default_index_builds()
        agents = [IOAgent(IOAgentConfig(seed=0)) for _ in range(5)]
        DiagnosisService(config=IOAgentConfig(seed=0))
        assert default_index_builds() == builds_before
        assert all(a.retriever.index is idx for a in agents)


class TestUsageListener:
    def test_listener_fires_and_detaches(self):
        client = LLMClient(seed=0)
        seen: list[tuple[str, str]] = []
        def listener(model, usage, call_id):
            seen.append((model, call_id))
        with call_scope(on_usage=listener):
            client.complete("TASK: plain\nhello", model="gpt-4o", call_id="x1")
        assert seen == [("gpt-4o", "x1")]
        client.complete("TASK: plain\nhello", model="gpt-4o", call_id="x2")
        assert seen == [("gpt-4o", "x1")]
