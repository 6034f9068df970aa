"""Tests for the DXT temporal evidence channel (the tentpole of PR 3).

Covers: the always-on collector in ``run_workload``, the temporal fact
extractors (golden values for the straggler trace), the ``temporal``
pipeline stage and its ablation switch, the time-domain expert rules and
Drishti triggers, the sim-layer support (barrier, slow OSTs), and the
per-difficulty evaluation split.
"""

from __future__ import annotations

import pytest

from repro.baselines.drishti.triggers import run_triggers
from repro.core.agent import IOAgent, IOAgentConfig
from repro.core.pipeline import DEFAULT_STAGE_ORDER, build_default_pipeline
from repro.core.service import trace_digest
from repro.darshan.dxt import app_level_segments, dxt_temporal_facts
from repro.darshan.parser import parse_darshan_text
from repro.darshan.writer import render_darshan_text
from repro.llm.reasoning import infer_findings
from repro.sim.filesystem import LustreFileSystem
from repro.sim.ops import API, IOOp, OpKind, barrier
from repro.sim.runtime import IORuntime, JobSpec
from repro.util.units import MiB
from repro.workloads.scenarios import build_scenario

TEMPORAL_SCENARIOS = (
    "path04-straggler-rank",
    "path13-straggler-compute",
    "path14-lock-convoy",
    "path15-bursty-interference",
    "path16-slow-ost-hotspot",
    "path17-producer-consumer",
)


@pytest.fixture(scope="module")
def temporal_traces():
    return {name: build_scenario(name, seed=0) for name in TEMPORAL_SCENARIOS}


def _facts(trace) -> dict[str, dict]:
    return {f.kind: f.data for f in dxt_temporal_facts(trace.log.dxt_segments)}


class TestSimSupport:
    def test_barrier_synchronizes_clocks(self):
        fs = LustreFileSystem(seed=0)
        rt = IORuntime(JobSpec(exe="/bin/x", nprocs=2), fs)
        result = rt.run(
            [
                IOOp(kind=OpKind.COMPUTE, api=API.POSIX, rank=0, duration=1.0),
                barrier(),
                IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=1, path="/scratch/f", offset=0, size=4096),
            ]
        )
        # Rank 1's write starts only after rank 0's compute finished.
        assert result.runtime > 1.0

    def test_barrier_invisible_to_observers(self):
        fs = LustreFileSystem(seed=0)
        rt = IORuntime(JobSpec(exe="/bin/x", nprocs=2), fs)
        seen = rt.run([barrier()]).ops
        assert list(seen.kind) == []

    def test_slow_ost_multiplies_transfer_time(self):
        def run(slow):
            fs = LustreFileSystem(
                seed=0, num_osts=2, slow_osts={0: 4.0} if slow else None
            )
            fs.set_stripe("/scratch/f", 1 * MiB, 1, 0)  # pinned to OST 0
            rt = IORuntime(JobSpec(exe="/bin/x", nprocs=1), fs)
            return rt.run(
                [IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=0, size=MiB)]
            ).runtime

        assert run(slow=True) == pytest.approx(4.0 * run(slow=False))

    def test_slow_osts_validation(self):
        with pytest.raises(ValueError, match=">= 1.0"):
            LustreFileSystem(slow_osts={0: 0.5})

    def test_stripe_offset_pinning(self):
        fs = LustreFileSystem(seed=0, num_osts=8)
        fs.set_stripe("/scratch/f", 1 * MiB, 2, 5)
        assert fs.layout_for("/scratch/f").ost_ids == (5, 6)
        with pytest.raises(ValueError, match="valid OST"):
            fs.set_stripe("/scratch/g", 1 * MiB, 1, 9)


class TestCollectorWiring:
    def test_every_workload_log_carries_segments(self, temporal_traces):
        for trace in temporal_traces.values():
            assert trace.log.has_dxt
            assert len(trace.log.dxt_segments) > 0

    def test_parsed_text_has_no_dxt(self, temporal_traces):
        trace = temporal_traces["path14-lock-convoy"]
        reparsed = parse_darshan_text(render_darshan_text(trace.log))
        assert reparsed.dxt_segments is None
        assert not reparsed.has_dxt

    def test_digest_covers_the_temporal_channel(self, temporal_traces):
        """Same counters + different timeline must not share a cache key."""
        trace = temporal_traces["path14-lock-convoy"]
        with_dxt = trace_digest(trace.log)
        stripped = parse_darshan_text(render_darshan_text(trace.log))
        assert trace_digest(stripped) != with_dxt


class TestTemporalFacts:
    def test_straggler_golden_facts(self, temporal_traces):
        """Golden temporal facts for the PR 2 straggler trace (seed 0)."""
        facts = _facts(temporal_traces["path04-straggler-rank"])
        skew = facts["dxt_rank_skew"]
        assert skew["slowest_rank"] == 0
        assert skew["nprocs"] == 8
        assert skew["time_skew"] == pytest.approx(6.94, abs=0.01)
        assert skew["span_skew"] == pytest.approx(6.94, abs=0.01)
        assert skew["bytes_ratio"] == pytest.approx(1.0)
        timeline = facts["dxt_timeline"]
        assert timeline["n_segments"] == 12624
        assert timeline["phase"] == "write-only"

    def test_convoy_serializes(self, temporal_traces):
        facts = _facts(temporal_traces["path14-lock-convoy"])
        conc = facts["dxt_concurrency"]
        assert conc["active_ranks"] == 8
        assert conc["mean_inflight"] == pytest.approx(1.0, abs=0.01)
        assert conc["peak_inflight"] == 1

    def test_interference_gaps(self, temporal_traces):
        idle = _facts(temporal_traces["path15-bursty-interference"])["dxt_idle"]
        assert idle["n_gaps"] == 9
        assert idle["idle_fraction"] > 0.9
        assert idle["longest_gap_s"] == pytest.approx(0.6, abs=0.01)

    def test_slow_ost_file_skew(self, temporal_traces):
        skew = _facts(temporal_traces["path16-slow-ost-hotspot"])["dxt_file_skew"]
        assert skew["n_files"] == 8
        assert skew["ratio"] == pytest.approx(4.0, abs=0.01)
        assert skew["slow_path"].startswith("/scratch/path16/")

    def test_producer_consumer_stalled_ranks(self, temporal_traces):
        idle = _facts(temporal_traces["path17-producer-consumer"])["dxt_idle"]
        assert idle["stalled_ranks"] == 8  # both halves wait on each other

    def test_app_level_sees_through_aggregators(self):
        trace = build_scenario("path08-tiny-collectives", seed=0)
        app = app_level_segments(trace.log.dxt_segments)
        assert all(s.module == "X_MPIIO" for s in app)
        assert any(s.module == "X_POSIX" for s in trace.log.dxt_segments)

    def test_empty_segments(self):
        assert dxt_temporal_facts([]) == []


class TestTemporalRules:
    @pytest.mark.parametrize("name", TEMPORAL_SCENARIOS)
    def test_hard_tier_grounds_through_dxt(self, temporal_traces, name):
        """The whole temporal tier's ground truth is recoverable from
        counter facts + DXT facts (and from nothing less)."""
        from repro.core.summaries import app_context_facts, extract_fragments

        trace = temporal_traces[name]
        facts = app_context_facts(trace.log)
        for fragment in extract_fragments(trace.log):
            facts.extend(fragment.facts)
        counter_only = {f.issue_key for f in infer_findings(facts)}
        assert counter_only != set(trace.labels), "ground truth leaked into counters"
        facts.extend(dxt_temporal_facts(trace.log.dxt_segments))
        assert {f.issue_key for f in infer_findings(facts)} == set(trace.labels)


class TestTemporalStage:
    def test_stage_in_default_order(self):
        assert "temporal" in DEFAULT_STAGE_ORDER
        assert DEFAULT_STAGE_ORDER.index("temporal") < DEFAULT_STAGE_ORDER.index("describe")

    def test_use_dxt_ablation_drops_stage(self):
        pipeline = build_default_pipeline(IOAgentConfig(use_dxt=False))
        assert "temporal" not in pipeline.stage_names

    def test_stage_appends_dxt_fragment(self, temporal_traces):
        agent = IOAgent(IOAgentConfig(seed=0))
        ctx = agent.run(temporal_traces["path13-straggler-compute"].log, trace_id="t")
        assert "DXT.timeline" in [f.fragment_id for f in ctx.fragments]
        assert "DXT.timeline" in ctx.descriptions

    def test_stage_noop_without_segments(self, temporal_traces):
        log = parse_darshan_text(
            render_darshan_text(temporal_traces["path13-straggler-compute"].log)
        )
        agent = IOAgent(IOAgentConfig(seed=0))
        ctx = agent.run(log, trace_id="t")
        assert "DXT.timeline" not in [f.fragment_id for f in ctx.fragments]
        assert "temporal" in ctx.stage_metrics  # the stage ran, found nothing

    def test_temporal_findings_reach_the_report(self, temporal_traces):
        report = IOAgent(IOAgentConfig(seed=0)).diagnose(
            temporal_traces["path14-lock-convoy"].log, trace_id="t"
        )
        assert "[lock_contention]" in report.text

    def test_counter_only_config_reproduces_paper_system(self, temporal_traces):
        """use_dxt=False on a DXT-carrying log equals running on the
        counter-only rendering of the same log."""
        log = temporal_traces["path16-slow-ost-hotspot"].log
        stripped = parse_darshan_text(render_darshan_text(log))
        ablated = IOAgent(IOAgentConfig(seed=0, use_dxt=False)).diagnose(log, trace_id="x")
        counter_only = IOAgent(IOAgentConfig(seed=0)).diagnose(stripped, trace_id="x")
        assert ablated.text == counter_only.text


class TestDxtTriggers:
    def test_triggers_fire_exactly_on_the_temporal_tier(self, temporal_traces):
        expected = {
            "path04-straggler-rank": "DXT_TIME_STRAGGLER",
            "path13-straggler-compute": "DXT_TIME_STRAGGLER",
            "path14-lock-convoy": "DXT_SERIALIZED_IO",
            "path15-bursty-interference": "DXT_IO_STALLS",
            # Since PR 5 the ost column localizes path16's degradation to
            # its servers, which suppresses the (shallower) straggler read.
            "path16-slow-ost-hotspot": "DXT_OST_SLOW_SERVER",
            "path17-producer-consumer": "DXT_IO_STALLS",
        }
        for name, code in expected.items():
            fired = {r.code for r in run_triggers(temporal_traces[name].log)}
            assert code in fired, name

    def test_triggers_quiet_on_tracebench(self, bench):
        new = {
            "DXT_TIME_STRAGGLER",
            "DXT_SERIALIZED_IO",
            "DXT_IO_STALLS",
            "DXT_OST_SLOW_SERVER",
            "DXT_OST_HOTSPOT",
        }
        for trace in bench:
            fired = {r.code for r in run_triggers(trace.log)}
            assert not (fired & new), trace.trace_id

    def test_triggers_quiet_without_segments(self, temporal_traces):
        log = parse_darshan_text(
            render_darshan_text(temporal_traces["path14-lock-convoy"].log)
        )
        fired = {r.code for r in run_triggers(log)}
        assert not fired & {
            "DXT_TIME_STRAGGLER",
            "DXT_SERIALIZED_IO",
            "DXT_IO_STALLS",
            "DXT_OST_SLOW_SERVER",
            "DXT_OST_HOTSPOT",
        }


class TestDifficultySplit:
    def test_labeled_trace_carries_difficulty(self, temporal_traces):
        assert temporal_traces["path14-lock-convoy"].difficulty == "hard"
        trace = build_scenario("path12-clean-baseline", seed=0)
        assert trace.difficulty == "control"

    def test_evaluation_result_splits_by_difficulty(self):
        from repro.evaluation.harness import evaluate_scenarios

        result = evaluate_scenarios(
            ["path01-random-small-reads", "path14-lock-convoy", "path12-clean-baseline"]
        )
        assert result.difficulties() == ["easy", "hard", "control"]
        split = result.accuracy_by_difficulty()
        assert set(split) == {"easy", "hard", "control"}
        for scores in split.values():
            assert set(scores) == set(result.tool_names)

    def test_table4_renders_difficulty_block(self):
        from repro.evaluation.harness import evaluate_scenarios
        from repro.evaluation.tables import render_table4

        result = evaluate_scenarios(["path01-random-small-reads", "path14-lock-convoy"])
        text = render_table4(result)
        assert "Accuracy by scenario difficulty" in text
        for column in ("easy", "hard"):
            assert column in text

    def test_batch_reports_f1_by_difficulty(self):
        from repro.core.batch import run_scenario_batch

        result = run_scenario_batch(("path01-random-small-reads", "path14-lock-convoy"))
        assert set(result.f1_by_difficulty) == {"easy", "hard"}
        # The convoy's ground truth is fully recoverable via DXT.
        assert result.f1_by_difficulty["hard"] == pytest.approx(1.0)
