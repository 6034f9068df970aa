"""Every built-in phase builds the ops its scalar generator issues.

The phase factories of :mod:`repro.workloads.patterns` build each phase
as one :class:`~repro.sim.ops.OpBlock` with numpy.  ``sim_oracle.py``
keeps the generators they replaced, which issue one
:class:`~repro.sim.ops.IOOp` at a time in loops.  Per factory, a
hypothesis property draws the factory's arguments and a job size, and
requires both to yield equal op lists from equal fresh random streams.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sim_oracle import SCALAR_PHASES, oracle_phase

from repro.sim.filesystem import LustreFileSystem
from repro.sim.ops import OpBlock
from repro.util.rng import rng_for
from repro.util.units import KiB, MiB
from repro.workloads import patterns
from repro.workloads.base import WorkloadContext

_XFER = st.sampled_from([1, 512, 4 * KiB, 47008, 1 * MiB])
_COUNT = st.integers(0, 12)
_API = st.sampled_from(["posix", "mpiio", "stdio"])
_LAYOUT = st.sampled_from(["fpp", "shared"])
_DIRECTION = st.sampled_from(["read", "write"])
_SECONDS = st.sampled_from([0, 0.25, 0.5, 10.0])


@st.composite
def _data(draw, nprocs):
    api = draw(_API)
    kwargs = dict(
        api=api,
        collective=api == "mpiio" and draw(st.booleans()),
        layout=draw(_LAYOUT),
        pattern=draw(st.sampled_from(["seq", "strided", "random"])),
        unaligned_shim=draw(st.sampled_from([0, 17, 4095])),
        mem_aligned=draw(st.booleans()),
        open_per_rank=draw(st.booleans()),
        fsync=draw(st.booleans()),
    )
    return ("/scratch/d", draw(_DIRECTION), draw(_XFER), draw(_COUNT)), kwargs


@st.composite
def _metadata(draw, nprocs):
    kwargs = dict(
        with_stat=draw(st.booleans()), data_bytes=draw(st.sampled_from([0, 100])), api=draw(_API)
    )
    return ("/scratch/md", draw(st.integers(0, 6))), kwargs


@st.composite
def _repetitive(draw, nprocs):
    nranks = draw(st.one_of(st.none(), st.integers(1, nprocs)))
    xfer = draw(_XFER)
    region = draw(st.integers(0, 12)) * xfer + draw(st.sampled_from([0, 1, 511]))
    return ("/scratch/r", region, xfer, draw(st.integers(0, 4))), dict(nranks=nranks)


@st.composite
def _imbalanced(draw, nprocs):
    kwargs = dict(
        heavy_rank=draw(st.integers(0, 9)),
        heavy_share=draw(st.sampled_from([0.1, 0.33, 0.8, 1.0])),
        api=draw(_API),
        layout=draw(_LAYOUT),
    )
    return ("/scratch/i", draw(_XFER), draw(st.integers(0, 40))), kwargs


@st.composite
def _stdio(draw, nprocs):
    ranks = draw(st.one_of(st.none(), st.lists(st.integers(0, nprocs - 1), max_size=4)))
    kwargs = dict(layout=draw(_LAYOUT), ranks=ranks)
    return ("/scratch/log", draw(_DIRECTION), draw(_XFER), draw(_COUNT)), kwargs


@st.composite
def _false_sharing(draw, nprocs):
    record = draw(st.sampled_from([1, 100, 1024, 4 * KiB]))
    return ("/scratch/fs", record, draw(_COUNT)), dict(api=draw(_API))


@st.composite
def _churn(draw, nprocs):
    kwargs = dict(cycles=draw(st.integers(0, 3)), with_stat=draw(st.booleans()), api=draw(_API))
    return ("/scratch/stage", draw(st.integers(0, 5))), kwargs


@st.composite
def _checkpoint(draw, nprocs):
    kwargs = dict(
        compute_seconds=draw(_SECONDS), api=draw(_API), sync_each_burst=draw(st.booleans())
    )
    args = ("/scratch/ckpt", draw(_XFER), draw(st.integers(0, 5)), draw(st.integers(0, 4)))
    return args, kwargs


@st.composite
def _records(draw, nprocs):
    kwargs = dict(api=draw(_API), layout=draw(_LAYOUT))
    return ("/scratch/rec", draw(_XFER), draw(_COUNT)), kwargs


@st.composite
def _straggler(draw, nprocs):
    slow_factor = draw(st.sampled_from([1, 2, 4, 64]))
    xfer = slow_factor * draw(st.sampled_from([1, 512, 4 * KiB]))
    kwargs = dict(straggler_rank=draw(st.integers(0, 9)), slow_factor=slow_factor, api=draw(_API))
    return ("/scratch/s", xfer, draw(_COUNT)), kwargs


@st.composite
def _compute_straggler(draw, nprocs):
    kwargs = dict(
        straggler_rank=draw(st.integers(0, 9)), stall_seconds=draw(_SECONDS), api=draw(_API)
    )
    return ("/scratch/cs", draw(_XFER), draw(_COUNT)), kwargs


@st.composite
def _convoy(draw, nprocs):
    return ("/scratch/convoy", draw(_XFER), draw(st.integers(0, 6))), dict(api=draw(_API))


@st.composite
def _interference(draw, nprocs):
    kwargs = dict(stall_seconds=draw(_SECONDS), api=draw(_API))
    args = ("/scratch/stream", draw(_XFER), draw(st.integers(0, 5)), draw(st.integers(0, 4)))
    return args, kwargs


@st.composite
def _producer_consumer(draw, nprocs):
    args = ("/scratch/stage.dat", draw(_XFER), draw(st.integers(0, 4)), draw(st.integers(0, 5)))
    return args, dict(api=draw(_API))


ARGUMENTS = {
    "data_phase": _data,
    "metadata_phase": _metadata,
    "repetitive_read_phase": _repetitive,
    "imbalanced_write_phase": _imbalanced,
    "stdio_phase": _stdio,
    "false_sharing_phase": _false_sharing,
    "metadata_churn_phase": _churn,
    "checkpoint_burst_phase": _checkpoint,
    "read_modify_write_phase": _records,
    "fsync_per_write_phase": _records,
    "straggler_phase": _straggler,
    "compute_straggler_phase": _compute_straggler,
    "lock_convoy_phase": _convoy,
    "interference_stall_phase": _interference,
    "producer_consumer_phase": _producer_consumer,
}


def _ctx(nprocs: int, seed: int) -> WorkloadContext:
    """A context with a fresh random stream: equal seeds draw equal numbers."""
    return WorkloadContext(
        nprocs=nprocs, fs=LustreFileSystem(), rng=rng_for(seed, "phase"), phase_index=0
    )


def test_every_factory_has_a_scalar_generator_and_a_property():
    assert set(SCALAR_PHASES) == set(patterns.__all__) == set(ARGUMENTS)


@pytest.mark.parametrize("name", sorted(ARGUMENTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_phase_block_equals_scalar_generator(name, data):
    nprocs = data.draw(st.integers(1, 9), label="nprocs")
    seed = data.draw(st.integers(0, 3), label="seed")
    args, kwargs = data.draw(ARGUMENTS[name](nprocs), label="arguments")
    phase = getattr(patterns, name)(*args, **kwargs)
    assert phase.built_by == (name, args, kwargs)
    block = phase(_ctx(nprocs, seed))
    assert isinstance(block, OpBlock)
    expected = list(oracle_phase(phase)(_ctx(nprocs, seed)))
    assert list(block) == expected
    assert len(block) == len(expected)
