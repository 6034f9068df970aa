"""Columnar DXT segment store + vectorized kernel equivalence (PR 4).

Covers: the :class:`SegmentTable` / :class:`SegmentTableBuilder` pair and
their lazy per-segment view, the chunk-buffered collector, the
golden-equivalence guarantee (vectorized kernels reproduce the scalar
PR 3 facts on the pinned temporal fixtures), property checks on
randomized segment tables against the scalar reference, the timeline
masking fix, and the DXT text round trip (``parse_dxt_text`` +
``render_darshan_text(include_dxt=True)``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from dxt_reference import scalar_app_level_segments, scalar_temporal_facts

from repro.darshan.dxt import (
    DxtCollector,
    DxtSegment,
    app_level_segments,
    dxt_digest,
    dxt_temporal_facts,
    dxt_timeline_facts,
    parse_dxt_text,
    render_dxt_text,
)
from repro.darshan.parser import parse_darshan_text
from repro.darshan.segtable import (
    SegmentTable,
    SegmentTableBuilder,
    as_table,
)
from repro.darshan.writer import render_darshan_text
from repro.sim.ops import API, IOOp, OpKind
from repro.workloads.scenarios import build_scenario

EQUIVALENCE_SCENARIOS = (
    "path04-straggler-rank",
    "path14-lock-convoy",
    "path16-slow-ost-hotspot",
    "path17-producer-consumer",
)


@pytest.fixture(scope="module")
def equivalence_traces():
    return {name: build_scenario(name, seed=0) for name in EQUIVALENCE_SCENARIOS}


def _make_segments(n: int, seed: int, *, zero_lengths: bool = False) -> list[DxtSegment]:
    """Randomized segments exercising every kernel: multiple ranks, files,
    op kinds, MPIIO->POSIX lowering, overlapping and tied intervals."""
    rng = np.random.default_rng(seed)
    segments = []
    for _ in range(n):
        path_idx = int(rng.integers(0, 9))
        lowered = path_idx < 3 and rng.random() < 0.5
        module = "X_MPIIO" if path_idx < 3 and not lowered else "X_POSIX"
        # Quantized times create exact start/end ties across segments.
        start = round(float(rng.uniform(0.0, 30.0)), 2)
        duration = round(float(rng.uniform(0.0, 1.0)), 2)
        length = 0 if zero_lengths and rng.random() < 0.3 else int(rng.integers(1, 1 << 20))
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


class TestSegmentTable:
    def test_builder_round_trip_across_chunks(self):
        segments = _make_segments(20, seed=1)
        builder = SegmentTableBuilder(chunk=8)  # force multiple chunks
        for s in segments:
            builder.append(
                s.module, s.rank, s.path, s.operation,
                s.offset, s.length, s.start_time, s.end_time,
            )
        table = builder.build()
        assert len(table) == 20
        assert list(table) == segments

    def test_from_segments_matches_builder(self):
        segments = _make_segments(50, seed=2)
        assert list(SegmentTable.from_segments(segments)) == segments

    def test_getitem_and_slice(self):
        segments = _make_segments(10, seed=3)
        table = SegmentTable.from_segments(segments)
        assert table[0] == segments[0]
        assert table[-1] == segments[-1]
        with pytest.raises(IndexError):
            table[10]
        sliced = table[2:5]
        assert isinstance(sliced, SegmentTable)
        assert list(sliced) == segments[2:5]

    def test_take_shares_dictionaries(self):
        table = SegmentTable.from_segments(_make_segments(30, seed=4))
        subset = table.take(table.op_code == 0)
        assert subset.paths is table.paths
        assert all(s.operation == "read" for s in subset)

    def test_as_table_passthrough_and_empty(self):
        table = SegmentTable.from_segments(_make_segments(5, seed=5))
        assert as_table(table) is table
        assert len(as_table(None)) == 0
        assert len(as_table([])) == 0
        assert not as_table([])  # falsy, like the old empty list

    def test_digest_stable_and_content_sensitive(self):
        segments = _make_segments(25, seed=6)
        table = SegmentTable.from_segments(segments)
        assert table.digest() == SegmentTable.from_segments(segments).digest()
        assert dxt_digest(table) == table.digest()  # list/table entry points agree
        bumped = segments[:12] + [
            DxtSegment(
                module=segments[12].module,
                rank=segments[12].rank,
                path=segments[12].path,
                operation=segments[12].operation,
                offset=segments[12].offset,
                length=segments[12].length + 1,
                start_time=segments[12].start_time,
                end_time=segments[12].end_time,
            )
        ] + segments[13:]
        assert SegmentTable.from_segments(bumped).digest() != table.digest()

    def test_durations_column(self):
        table = SegmentTable.from_segments(_make_segments(8, seed=7))
        for i, seg in enumerate(table):
            assert table.durations[i] == pytest.approx(seg.duration)


class TestCollector:
    def _ingest(self, collector, n=10, rank=0):
        for i in range(n):
            op = IOOp(
                kind=OpKind.WRITE, api=API.POSIX, rank=rank,
                path="/scratch/c", offset=i * 100, size=100,
            )
            collector.on_op(op, float(i), float(i) + 0.5, None)

    def test_collector_builds_a_table(self):
        collector = DxtCollector()
        self._ingest(collector, n=7)
        table = collector.segments
        assert isinstance(table, SegmentTable)
        assert len(table) == 7
        assert table[3].offset == 300

    def test_segments_memoized_per_count(self):
        collector = DxtCollector()
        self._ingest(collector, n=3)
        first = collector.segments
        assert collector.segments is first  # no new ops -> same table
        self._ingest(collector, n=1)
        assert len(collector.segments) == 4

    def test_max_segments_still_counts_drops(self):
        collector = DxtCollector(max_segments=5)
        self._ingest(collector, n=9)
        assert len(collector.segments) == 5
        assert collector.dropped == 4


class TestGoldenEquivalence:
    """The vectorized kernels reproduce the exact PR 3 scalar facts on the
    pinned temporal-tier fixtures (same Fact kinds, same values)."""

    @pytest.mark.parametrize("name", EQUIVALENCE_SCENARIOS)
    def test_scenario_facts_match_scalar_reference(self, equivalence_traces, name):
        table = equivalence_traces[name].log.dxt_segments
        _assert_facts_equivalent(
            dxt_temporal_facts(table), scalar_temporal_facts(list(table))
        )

    def test_app_level_matches_scalar_reference(self):
        trace = build_scenario("path08-tiny-collectives", seed=0)
        table = trace.log.dxt_segments
        assert list(app_level_segments(table)) == scalar_app_level_segments(list(table))


class TestPropertyEquivalence:
    @pytest.mark.parametrize("n,seed", [(1, 10), (3, 11), (64, 12), (257, 13), (2000, 14)])
    def test_random_tables_match_scalar_reference(self, n, seed):
        segments = _make_segments(n, seed=seed)
        _assert_facts_equivalent(
            dxt_temporal_facts(segments), scalar_temporal_facts(segments), rel=1e-7
        )

    @pytest.mark.parametrize("seed", [20, 21])
    def test_random_app_level_matches_scalar(self, seed):
        segments = _make_segments(500, seed=seed)
        assert list(app_level_segments(segments)) == scalar_app_level_segments(segments)

    def test_file_skew_bucket_tie_keeps_first_touched_bucket(self):
        """Two size buckets with exactly equal total bytes: both sweeps
        must keep the bucket whose first eligible file was touched first
        (dict-insertion-order max), not the numerically smaller bucket."""

        def file_stream(path, mean_size, t0):
            return [
                DxtSegment("X_POSIX", 0, path, "write", i * mean_size, mean_size,
                           t0 + i * 0.01, t0 + i * 0.01 + 0.004)
                for i in range(8)
            ]

        segments = []
        # 4 files at 256 KiB mean touched first, 4 files at 64 KiB mean
        # after — equal 2 MiB per file, equal 8 MiB per bucket.
        for k in range(4):
            segments += file_stream(f"/s/big{k}", 256 * 1024, t0=k * 1.0)
        for k in range(4):
            segments += file_stream(f"/s/small{k}", 64 * 1024, t0=10.0 + k * 1.0)
        _assert_facts_equivalent(
            dxt_temporal_facts(segments), scalar_temporal_facts(segments)
        )
        skew = {f.kind: f.data for f in dxt_temporal_facts(segments)}["dxt_file_skew"]
        assert skew["slow_path"].startswith("/s/big")


class TestTimelineMaskingFix:
    def test_zero_byte_reads_still_count_as_a_phase(self):
        """Reads with segments but zero bytes used to vanish from the phase
        signature (and the list-comprehension masks risked NaN averages);
        op-kind presence now decides, with explicit empty guards."""
        segments = [
            DxtSegment("X_POSIX", 0, "/scratch/z", "read", 0, 0, 0.0, 0.1),
            DxtSegment("X_POSIX", 0, "/scratch/z", "read", 0, 0, 0.2, 0.3),
            DxtSegment("X_POSIX", 0, "/scratch/z", "write", 0, 4096, 1.0, 1.1),
        ]
        (fact,) = dxt_timeline_facts(segments)
        assert fact.data["phase"] == "read-then-write"
        assert all(
            not (isinstance(v, float) and math.isnan(v)) for v in fact.data.values()
        )

    def test_single_op_kind_phases(self):
        writes = [DxtSegment("X_POSIX", 0, "/s/f", "write", 0, 10, 0.0, 0.1)]
        reads = [DxtSegment("X_POSIX", 0, "/s/f", "read", 0, 0, 0.0, 0.1)]
        assert dxt_timeline_facts(writes)[0].data["phase"] == "write-only"
        assert dxt_timeline_facts(reads)[0].data["phase"] == "read-only"


class TestDxtTextRoundTrip:
    def test_parse_inverts_render(self):
        segments = _make_segments(40, seed=30)
        table = SegmentTable.from_segments(segments)
        parsed = parse_dxt_text(render_dxt_text(table))
        assert len(parsed) == len(table)
        for original, restored in zip(table, parsed):
            assert restored.module == original.module
            assert restored.rank == original.rank
            assert restored.path == original.path
            assert restored.operation == original.operation
            assert restored.offset == original.offset
            assert restored.length == original.length
            # Times quantize at the rendering's 1e-4 s resolution.
            assert restored.start_time == pytest.approx(original.start_time, abs=1e-4)
            assert restored.end_time == pytest.approx(original.end_time, abs=1e-4)

    def test_text_round_trip_is_idempotent(self):
        text = render_dxt_text(as_table(_make_segments(25, seed=31)))
        assert render_dxt_text(parse_dxt_text(text)) == text

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="expected 9"):
            parse_dxt_text("X_POSIX 0 write 0 0\n")

    def test_parse_rejects_unknown_operation_token(self):
        line = "X_POSIX 0 wt 0 0 4096 0.0000 0.0010 /scratch/f\n"
        with pytest.raises(ValueError, match="unknown operation 'wt'"):
            parse_dxt_text(line)

    def test_darshan_text_export_preserves_the_channel(self):
        trace = build_scenario("path01-random-small-reads", seed=0)
        text = render_darshan_text(trace.log, include_dxt=True)
        restored = parse_darshan_text(text)
        assert restored.has_dxt
        assert len(restored.dxt_segments) == len(trace.log.dxt_segments)
        # The counter channel still round-trips identically.
        assert render_darshan_text(restored) == render_darshan_text(trace.log)
        # Restored temporal facts ground the same fact kinds.
        original = {f.kind for f in dxt_temporal_facts(trace.log.dxt_segments)}
        assert {f.kind for f in dxt_temporal_facts(restored.dxt_segments)} == original

    def test_default_export_still_drops_the_channel(self):
        trace = build_scenario("path01-random-small-reads", seed=0)
        assert parse_darshan_text(render_darshan_text(trace.log)).dxt_segments is None


class TestScalingBaseline:
    """The checked-in benchmark baseline records the perf-gate contract."""

    def test_baseline_artifact_meets_the_speedup_target(self):
        import json
        from pathlib import Path

        baseline_path = (
            Path(__file__).resolve().parent.parent / "benchmarks" / "BENCH_dxt_scaling.json"
        )
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        assert baseline["benchmark"] == "dxt_scaling"
        rows = {r["n_segments"]: r for r in baseline["results"]}
        assert {10_000, 100_000, 1_000_000} <= rows.keys()
        # The tentpole target: >= 10x over the scalar path at 1M segments.
        assert rows[1_000_000]["speedup"] >= baseline["target_speedup_at_1m"] == 10.0
        for row in rows.values():
            assert row["extract_throughput_seg_per_s"] > 0
