"""Tests for the per-OST server-attribution evidence channel (PR 5).

Covers: the ``ost`` column end to end (sim stamping → columnar store →
text round trip), the per-OST kernels against their scalar references
(pinned scenarios + randomized property equivalence), the ``None``-ost
degradation guarantee (counter-only and legacy text traces produce no
server facts and fire no server rules), the server-attribution scenario
tier (path18-path21) grounding exactly *only* through the new channel,
the deepest-cause suppression ordering, and the two ``DXT_OST_*``
Drishti triggers.
"""

from __future__ import annotations

import numpy as np
import pytest
from dxt_reference import scalar_temporal_facts

from repro.baselines.drishti.triggers import run_triggers
from repro.core.summaries import app_context_facts, extract_fragments
from repro.darshan.dxt import (
    dxt_temporal_facts,
    parse_dxt_text,
    render_dxt_text,
)
from repro.darshan.parser import parse_darshan_text
from repro.darshan.segtable import (
    NO_OST,
    DxtSegment,
    SegmentTable,
    SegmentTableBuilder,
)
from repro.darshan.writer import render_darshan_text
from repro.llm.facts import extract_facts, render_fact
from repro.llm.reasoning import infer_findings
from repro.workloads.scenarios import build_scenario

OST_TIER = (
    "path18-hot-ost",
    "path19-mds-vs-oss",
    "path20-rebalanced-stripe",
    "path21-multi-ost-degradation",
)
# Scenarios whose ground truth needs the ost column (path20 is the control).
OST_GROUNDED = ("path18-hot-ost", "path19-mds-vs-oss", "path21-multi-ost-degradation")


@pytest.fixture(scope="module")
def ost_traces():
    return {name: build_scenario(name, seed=0) for name in OST_TIER}


def _detected(trace, segments=None) -> set[str]:
    facts = app_context_facts(trace.log)
    for fragment in extract_fragments(trace.log):
        facts.extend(fragment.facts)
    if segments is not None:
        facts.extend(dxt_temporal_facts(segments))
    return {f.issue_key for f in infer_findings(facts)}


def _facts(segments) -> dict[str, dict]:
    return {f.kind: f.data for f in dxt_temporal_facts(segments)}


def _make_segments(n: int, seed: int, *, with_ost: bool = True) -> list[DxtSegment]:
    """Randomized attributed segments exercising the per-OST kernels:
    several OSTs, a None-attribution mix, multiple size buckets, ranks,
    files, and MPIIO->POSIX lowering."""
    rng = np.random.default_rng(seed)
    segments = []
    for _ in range(n):
        path_idx = int(rng.integers(0, 6))
        lowered = path_idx < 2 and rng.random() < 0.5
        module = "X_MPIIO" if path_idx < 2 and not lowered else "X_POSIX"
        start = round(float(rng.uniform(0.0, 20.0)), 2)
        duration = round(float(rng.uniform(0.001, 0.5)), 3)
        # Two size buckets plus jitter, so the dominant-bucket pick matters.
        base = 1 << int(rng.choice([12, 20]))
        length = int(base * rng.uniform(1.0, 1.9))
        ost = int(rng.integers(0, 7)) if with_ost and rng.random() < 0.9 else None
        segments.append(
            DxtSegment(
                module=module,
                rank=int(rng.integers(0, 8)),
                path=f"/scratch/rand/f{path_idx}",
                operation="read" if rng.random() < 0.4 else "write",
                offset=int(rng.integers(0, 1 << 30)),
                length=length,
                start_time=start,
                end_time=start + duration,
                ost=ost,
            )
        )
    return segments


def _assert_facts_equivalent(vec_facts, ref_facts, rel=1e-9):
    vec = {f.kind: f.data for f in vec_facts}
    ref = {f.kind: f.data for f in ref_facts}
    assert vec.keys() == ref.keys()
    for kind, ref_data in ref.items():
        vec_data = vec[kind]
        assert vec_data.keys() == ref_data.keys(), kind
        for field, expected in ref_data.items():
            got = vec_data[field]
            if isinstance(expected, float):
                assert got == pytest.approx(expected, rel=rel, abs=1e-9), f"{kind}.{field}"
            else:
                assert got == expected, f"{kind}.{field}"


class TestOstColumn:
    def test_collector_stamps_serving_ost(self, ost_traces):
        table = ost_traces["path18-hot-ost"].log.dxt_segments
        assert (table.ost != NO_OST).all()
        # Aligned stripe-sized requests on a width-8 pinned layout: the
        # stamped OST is exactly offset // stripe_size mod 8.
        expected = (table.offset // (1 << 20)) % 8
        assert (table.ost == expected).all()

    def test_segment_object_view_round_trips_ost(self):
        builder = SegmentTableBuilder()
        builder.append("X_POSIX", 0, "/s/f", "write", 0, 4096, 0.0, 0.1, 5)
        builder.append("X_POSIX", 1, "/s/f", "read", 4096, 4096, 0.1, 0.2, None)
        table = builder.build()
        assert [s.ost for s in table] == [5, None]
        assert table[0].ost == 5 and table[1].ost is None
        assert list(SegmentTable.from_segments(list(table))) == list(table)

    def test_digest_is_ost_sensitive(self):
        segments = _make_segments(20, seed=1)
        base = SegmentTable.from_segments(segments).digest()
        stripped = SegmentTable.from_segments(segments).without_ost().digest()
        assert base != stripped

    def test_dxt_text_round_trips_ost(self):
        table = SegmentTable.from_segments(_make_segments(30, seed=2))
        parsed = parse_dxt_text(render_dxt_text(table))
        assert [s.ost for s in parsed] == [s.ost for s in table]
        assert render_dxt_text(parsed) == render_dxt_text(table)

    def test_legacy_nine_field_text_parses_unattributed(self):
        line = "X_POSIX 0 write 0 0 4096 0.0000 0.0010 /scratch/f\n"
        (seg,) = parse_dxt_text(line)
        assert seg.ost is None

    def test_legacy_text_with_spaced_path_still_parses(self):
        """A pre-ost export line whose path contains whitespace must not be
        mistaken for the 10-field format (the 9th token is no ost id)."""
        line = "X_POSIX 0 write 0 0 4096 0.0000 0.0010 /scratch/my file\n"
        (seg,) = parse_dxt_text(line)
        assert seg.path == "/scratch/my file"
        assert seg.ost is None

    def test_darshan_text_export_preserves_attribution(self, ost_traces):
        log = ost_traces["path21-multi-ost-degradation"].log
        restored = parse_darshan_text(render_darshan_text(log, include_dxt=True))
        assert (restored.dxt_segments.ost == log.dxt_segments.ost).all()


class TestOstKernels:
    def test_hot_ost_latency_attribution(self, ost_traces):
        facts = _facts(ost_traces["path18-hot-ost"].log.dxt_segments)
        latency = facts["dxt_ost_latency"]
        assert latency["slow_osts"] == [3]
        assert latency["n_osts"] == 8
        assert latency["ratio"] == pytest.approx(4.0, abs=0.05)
        skew = facts["dxt_ost_skew"]
        assert skew["hot_ost"] == 3
        assert skew["skew"] == pytest.approx(4 / (4 + 7) * 8, abs=0.1)

    def test_multi_ost_attribution_names_both_servers(self, ost_traces):
        latency = _facts(ost_traces["path21-multi-ost-degradation"].log.dxt_segments)[
            "dxt_ost_latency"
        ]
        assert latency["slow_osts"] == [2, 5]
        assert latency["ratio"] == pytest.approx(4.0, abs=0.05)

    def test_rebalanced_control_is_healthy(self, ost_traces):
        facts = _facts(ost_traces["path20-rebalanced-stripe"].log.dxt_segments)
        latency = facts["dxt_ost_latency"]
        assert 3 not in latency["slow_osts"]  # the degraded OST serves nothing
        assert latency["n_osts"] == 7
        assert latency["ratio"] < 1.5
        assert facts["dxt_ost_skew"]["skew"] < 1.5

    @pytest.mark.parametrize("name", OST_TIER)
    def test_scenario_facts_match_scalar_reference(self, ost_traces, name):
        table = ost_traces[name].log.dxt_segments
        _assert_facts_equivalent(
            dxt_temporal_facts(table), scalar_temporal_facts(list(table))
        )

    @pytest.mark.parametrize("n,seed", [(16, 10), (64, 11), (257, 12), (2000, 13)])
    def test_random_tables_match_scalar_reference(self, n, seed):
        segments = _make_segments(n, seed=seed)
        _assert_facts_equivalent(
            dxt_temporal_facts(segments), scalar_temporal_facts(segments), rel=1e-7
        )

    def test_none_ost_segments_produce_no_server_facts(self):
        """The degradation guarantee: a timeline with no attribution at all
        (counter-only deployments, parsed legacy text) yields no per-OST
        facts — identical to the full extraction minus the ost kinds."""
        segments = _make_segments(300, seed=20, with_ost=False)
        kinds = {f.kind for f in dxt_temporal_facts(segments)}
        assert not {k for k in kinds if k.startswith("dxt_ost")}
        _assert_facts_equivalent(
            dxt_temporal_facts(segments), scalar_temporal_facts(segments), rel=1e-7
        )


class TestNlRoundTrip:
    @pytest.mark.parametrize("kind", ["dxt_ost_skew", "dxt_ost_latency"])
    def test_scenario_facts_survive_rendering(self, ost_traces, kind):
        facts = dxt_temporal_facts(ost_traces["path21-multi-ost-degradation"].log.dxt_segments)
        fact = next(f for f in facts if f.kind == kind)
        recovered = [f for f in extract_facts(render_fact(fact)) if f.kind == kind]
        assert recovered
        for field, value in fact.data.items():
            if isinstance(value, float):
                # Rates render at one decimal, shares at one decimal percent.
                assert recovered[0].data[field] == pytest.approx(value, abs=0.06)
            else:
                assert recovered[0].data[field] == value


class TestOstGrounding:
    @pytest.mark.parametrize("name", OST_TIER)
    def test_tier_grounds_exactly_with_the_channel(self, ost_traces, name):
        trace = ost_traces[name]
        assert _detected(trace, trace.log.dxt_segments) == set(trace.labels)

    @pytest.mark.parametrize("name", OST_GROUNDED)
    def test_tier_needs_the_ost_column(self, ost_traces, name):
        """Counters plus the *file-level* temporal facts are not enough:
        the same timeline without its ost column under-grounds (or, for
        path21, misattributes to rank imbalance)."""
        trace = ost_traces[name]
        without = _detected(trace, trace.log.dxt_segments.without_ost())
        assert without != set(trace.labels)
        assert "server_imbalance" not in without

    def test_multi_ost_misattributes_without_the_column(self, ost_traces):
        trace = ost_traces["path21-multi-ost-degradation"]
        without = _detected(trace, trace.log.dxt_segments.without_ost())
        assert "rank_imbalance" in without  # the wrong (shallower) diagnosis

    def test_control_grounds_either_way(self, ost_traces):
        trace = ost_traces["path20-rebalanced-stripe"]
        assert _detected(trace, trace.log.dxt_segments) == set(trace.labels)
        assert _detected(trace, trace.log.dxt_segments.without_ost()) == set(trace.labels)

    def test_slow_server_explains_away_the_straggler(self, ost_traces):
        """Deepest-cause ordering: with attribution, the slow-rank symptom
        of path21 is attributed to its servers, not reported as its own
        rank-imbalance finding."""
        trace = ost_traces["path21-multi-ost-degradation"]
        detected = _detected(trace, trace.log.dxt_segments)
        assert "server_imbalance" in detected
        assert "rank_imbalance" not in detected


class TestOstTriggers:
    def test_slow_server_trigger_fires_on_degraded_tiers(self, ost_traces):
        for name in OST_GROUNDED:
            fired = {r.code for r in run_triggers(ost_traces[name].log)}
            assert "DXT_OST_SLOW_SERVER" in fired, name
            assert "DXT_TIME_STRAGGLER" not in fired, name  # suppressed

    def test_hotspot_trigger_fires_on_single_hot_ost(self, ost_traces):
        fired = {r.code for r in run_triggers(ost_traces["path18-hot-ost"].log)}
        assert "DXT_OST_HOTSPOT" in fired

    def test_triggers_quiet_on_the_rebalanced_control(self, ost_traces):
        fired = {r.code for r in run_triggers(ost_traces["path20-rebalanced-stripe"].log)}
        assert not fired & {"DXT_OST_SLOW_SERVER", "DXT_OST_HOTSPOT"}

    def test_triggers_quiet_without_segments(self, ost_traces):
        log = parse_darshan_text(render_darshan_text(ost_traces["path18-hot-ost"].log))
        fired = {r.code for r in run_triggers(log)}
        assert not fired & {"DXT_OST_SLOW_SERVER", "DXT_OST_HOTSPOT"}
