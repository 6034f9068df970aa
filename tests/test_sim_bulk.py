"""The bulk simulator: pinned output, and equality with the scalar oracle.

``tests/data/sim_digests.json`` pins the ``trace_digest`` of 127 builds,
recorded from commit 3ab71b7, the last one that executed and instrumented
ops one at a time: every registered scenario at seed 0, every run of
every series scenario at its per-run seed (``seed + run``), and the first
ten compositions of fuzz stream 1 (the registered fuzz tier is stream 0)
built at seed 0.  Any edit to that file is a change of simulator output.

The hypothesis property runs random op streams through the bulk path
(:class:`~repro.sim.runtime.IORuntime` writing an op table, reduced by
:meth:`~repro.darshan.instrument.DarshanInstrument.finalize` and
:func:`~repro.darshan.dxt.collect_segments`) and through the per-op
oracle in ``sim_oracle.py``, and requires equal logs (floats compared
exactly), segments and job results.  A second property cuts each stream
into :class:`~repro.sim.ops.OpBlock` pieces and bare ops, which catches
runtime state lost between one block and the next.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sim_oracle import oracle_run, oracle_run_workload

from repro.core.service import trace_digest
from repro.darshan.dxt import collect_segments, dxt_digest
from repro.darshan.instrument import DarshanInstrument
from repro.darshan.writer import render_darshan_text
from repro.sim.filesystem import LustreFileSystem
from repro.sim.ops import API, IOOp, OpBlock, OpKind
from repro.sim.runtime import IORuntime, JobSpec
from repro.sim.timing import PerfModel
from repro.util.units import MiB
from repro.workloads.fuzz import generate_compositions
from repro.workloads.scenarios import (
    available_scenarios,
    build_scenario,
    build_series,
    get_scenario,
)

PINNED = json.loads((Path(__file__).parent / "data" / "sim_digests.json").read_text())


def _mismatches(pinned: dict[str, str], built: dict[str, str]) -> list[str]:
    return [name for name, digest in pinned.items() if built.get(name) != digest]


class TestPinnedDigests:
    def test_tracebench(self, bench):
        built = {trace.trace_id: trace_digest(trace.log) for trace in bench.traces}
        pinned = {name: PINNED["scenarios"][name] for name in available_scenarios("tracebench")}
        assert len(pinned) == 40
        assert _mismatches(pinned, built) == []

    def test_other_registered_scenarios(self):
        tracebench = set(available_scenarios("tracebench"))
        pinned = {k: v for k, v in PINNED["scenarios"].items() if k not in tracebench}
        built = {name: trace_digest(build_scenario(name, seed=0).log) for name in pinned}
        assert len(pinned) + len(tracebench) == len(PINNED["scenarios"]) == 77
        assert _mismatches(pinned, built) == []

    def test_series_runs(self):
        names = sorted({run_id.split("/")[0] for run_id in PINNED["series"]})
        built = {
            trace.trace_id: trace_digest(trace.log)
            for name in names
            for trace in build_series(name, seed=0)
        }
        assert len(PINNED["series"]) == 40
        assert _mismatches(PINNED["series"], built) == []

    def test_fuzz_stream_1(self):
        built = {
            composition.name: trace_digest(composition.workload().run(seed=0)[0])
            for composition in generate_compositions(seed=1, count=10)
        }
        assert len(PINNED["fuzz_stream_1"]) == 10
        assert _mismatches(PINNED["fuzz_stream_1"], built) == []


# -- bulk path == per-op oracle ------------------------------------------------

_PATHS = ("/scratch/a", "/scratch/b", "/home/c")  # the last one lies outside the mount
_OFFSETS = st.one_of(
    st.sampled_from([0, 512, 4096, 8192, 65536, MiB, MiB + 512, 3 * MiB]),
    st.integers(0, 8 * MiB),
)
_SIZES = st.one_of(
    st.sampled_from([0, 512, 4096, 65536, MiB, 5 * MiB]),
    st.integers(0, 6 * MiB),
)


@st.composite
def _op(draw, nprocs: int, apis: tuple[API, ...]) -> IOOp:
    kind = draw(st.sampled_from(tuple(OpKind)))
    rank = draw(st.integers(0, nprocs - 1))
    if kind is OpKind.COMPUTE:
        return IOOp(kind=kind, api=API.POSIX, rank=rank, duration=draw(st.floats(0, 0.01)))
    if kind is OpKind.BARRIER:
        return IOOp(kind=kind, api=API.POSIX, rank=0)
    api = draw(st.sampled_from(apis))
    return IOOp(
        kind=kind,
        api=api,
        rank=rank,
        path=draw(st.sampled_from(_PATHS)),
        offset=draw(_OFFSETS),
        size=draw(_SIZES),
        collective=api is API.MPIIO and draw(st.booleans()),
        nonblocking=draw(st.booleans()),
        mem_aligned=draw(st.booleans()),
    )


@st.composite
def _burst(draw, nprocs: int, apis: tuple[API, ...]) -> list[IOOp]:
    """Ops of one kind on one file, a phase: cycling through a few sizes
    and ranks, at sequential or strided offsets."""
    op = draw(_op(nprocs, apis))
    count = draw(st.integers(1, 40))
    if op.kind in (OpKind.COMPUTE, OpKind.BARRIER):
        return [op] * count
    step = draw(st.sampled_from([op.size, 2 * op.size, 4096, 0]))
    sizes = draw(st.lists(_SIZES, min_size=1, max_size=3))
    ranks = draw(st.sampled_from([[op.rank], list(range(nprocs))]))
    return [
        IOOp(
            kind=op.kind,
            api=op.api,
            rank=ranks[i % len(ranks)],
            path=op.path,
            offset=op.offset + i * step,
            size=sizes[i % len(sizes)],
            collective=op.collective,
            nonblocking=op.nonblocking,
            mem_aligned=op.mem_aligned,
        )
        for i in range(count)
    ]


@st.composite
def _jobs(draw):
    nprocs = draw(st.integers(1, 9))
    uses_mpi = draw(st.booleans())
    apis = (API.POSIX, API.MPIIO, API.STDIO) if uses_mpi else (API.POSIX, API.STDIO)
    num_osts = draw(st.sampled_from([1, 2, 4, 8]))
    fs_kwargs = dict(
        num_osts=num_osts,
        default_stripe_size=draw(st.sampled_from([4096, 65536, MiB])),
        default_stripe_width=draw(st.integers(1, num_osts)),
        seed=draw(st.integers(0, 3)),
        slow_osts=draw(
            st.dictionaries(st.integers(0, num_osts - 1), st.sampled_from([2.5, 8.0]), max_size=2)
        ),
    )
    perf = PerfModel(sync_latency=draw(st.sampled_from([None, 5e-3])))
    phases = st.one_of(_op(nprocs, apis).map(lambda op: [op]), _burst(nprocs, apis))
    ops = [op for phase in draw(st.lists(phases, max_size=12)) for op in phase]
    max_segments = draw(st.sampled_from([1_000_000, 7]))
    spec = JobSpec(exe="/bin/app", nprocs=nprocs, jobid=3, uses_mpi=uses_mpi)
    return spec, fs_kwargs, perf, ops, max_segments


def _assert_same_logs(bulk, oracle) -> None:
    assert bulk.header == oracle.header
    # Rows compare counters exactly: floats to the last bit, dict order aside.
    assert list(bulk.records) == list(oracle.records)
    assert render_darshan_text(bulk) == render_darshan_text(oracle)
    assert trace_digest(bulk) == trace_digest(oracle)


class TestBulkEqualsOracle:
    @settings(max_examples=200, deadline=None)
    @given(_jobs())
    def test_random_op_streams(self, job):
        spec, fs_kwargs, perf, ops, max_segments = job
        fs = LustreFileSystem(**fs_kwargs)
        result = IORuntime(spec, fs, perf).run(ops)
        log = DarshanInstrument(spec, fs).finalize(None, result.ops)
        segments, dropped = collect_segments(result.ops, max_segments)
        oracle_fs = LustreFileSystem(**fs_kwargs)
        expected_log, expected_dxt, expected = oracle_run(
            spec, oracle_fs, ops, perf, max_segments=max_segments
        )

        assert result.runtime == expected.runtime
        assert result.ops_executed == expected.ops_executed
        assert result.bytes_read == expected.bytes_read
        assert result.bytes_written == expected.bytes_written
        assert list(result.ost_bytes.items()) == list(expected.ost_bytes.items())
        assert result.rank_busy.dtype == expected.rank_busy.dtype
        assert np.array_equal(result.rank_busy, expected.rank_busy)
        table, seen = result.ops, expected.ops
        assert table.paths == seen.paths
        for column in ("kind", "api", "flags", "rank", "path", "offset", "size", "start", "end"):
            assert np.array_equal(getattr(table, column), getattr(seen, column)), column
        assert fs.known_files() == oracle_fs.known_files()
        assert [fs.file_size(p) for p in _PATHS] == [oracle_fs.file_size(p) for p in _PATHS]

        assert list(segments) == list(expected_dxt.segments)
        assert dxt_digest(segments) == dxt_digest(expected_dxt.segments)
        assert dropped == expected_dxt.dropped
        log.dxt_segments = segments
        expected_log.dxt_segments = expected_dxt.segments
        _assert_same_logs(log, expected_log)

    @pytest.mark.parametrize(
        "name",
        [
            "path08-tiny-collectives",  # collective buffering over 16 ranks
            "path03-metadata-storm",  # metadata-only records
            "path16-slow-ost-hotspot",  # a slow OST
            "path17-producer-consumer",  # barriers
            "sb09-stdio-write",  # STDIO next to independent MPI-IO
        ],
    )
    def test_registered_workloads(self, name):
        workload = get_scenario(name).builder()
        log, result = workload.run(seed=0)
        expected_log, expected = oracle_run_workload(workload, seed=0)
        assert result.runtime == expected.runtime
        assert result.ops_executed == expected.ops_executed
        assert result.ost_bytes == expected.ost_bytes
        assert dxt_digest(log.dxt_segments) == dxt_digest(expected_log.dxt_segments)
        _assert_same_logs(log, expected_log)


@st.composite
def _cut_jobs(draw):
    """A stream as ``_jobs`` draws it, cut into blocks and runs of bare ops.

    Some transfers get a follower that continues their (path, rank) where
    they left off, and any op may start a new piece, so a file's position,
    like every other piece of runtime state, often has to carry from one
    block to the next.
    """
    spec, fs_kwargs, perf, drawn, max_segments = draw(_jobs())
    ops = []
    for op in drawn:
        ops.append(op)
        if op.kind in (OpKind.READ, OpKind.WRITE) and draw(st.booleans()):
            ops.append(replace(op, offset=op.end_offset))
    starts = draw(st.lists(st.booleans(), min_size=len(ops), max_size=len(ops)))
    cuts = [0, *(i for i in range(1, len(ops)) if starts[i]), len(ops)]
    stream: list = []
    for lo, hi in zip(cuts, cuts[1:]):
        if draw(st.booleans()):
            stream.append(OpBlock.from_ops(ops[lo:hi]))
        else:
            stream.extend(ops[lo:hi])
    return spec, fs_kwargs, perf, ops, stream, max_segments


class TestBlocksEqualOracle:
    @settings(max_examples=200, deadline=None)
    @given(_cut_jobs())
    def test_blocks_cut_anywhere(self, job):
        spec, fs_kwargs, perf, ops, stream, max_segments = job
        fs = LustreFileSystem(**fs_kwargs)
        result = IORuntime(spec, fs, perf).run(stream)
        log = DarshanInstrument(spec, fs).finalize(None, result.ops)
        segments, dropped = collect_segments(result.ops, max_segments)
        oracle_fs = LustreFileSystem(**fs_kwargs)
        expected_log, expected_dxt, expected = oracle_run(
            spec, oracle_fs, ops, perf, max_segments=max_segments
        )

        assert result.runtime == expected.runtime
        assert result.ops_executed == expected.ops_executed
        assert result.bytes_read == expected.bytes_read
        assert result.bytes_written == expected.bytes_written
        assert list(result.ost_bytes.items()) == list(expected.ost_bytes.items())
        assert result.rank_busy.dtype == expected.rank_busy.dtype
        assert np.array_equal(result.rank_busy, expected.rank_busy)
        table, seen = result.ops, expected.ops
        assert table.paths == seen.paths
        for column in ("kind", "api", "flags", "rank", "path", "offset", "size", "start", "end"):
            assert np.array_equal(getattr(table, column), getattr(seen, column)), column
        assert fs.known_files() == oracle_fs.known_files()
        assert [fs.file_size(p) for p in _PATHS] == [oracle_fs.file_size(p) for p in _PATHS]

        assert list(segments) == list(expected_dxt.segments)
        assert dxt_digest(segments) == dxt_digest(expected_dxt.segments)
        assert dropped == expected_dxt.dropped
        log.dxt_segments = segments
        expected_log.dxt_segments = expected_dxt.segments
        _assert_same_logs(log, expected_log)
