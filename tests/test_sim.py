"""Tests for the simulated HPC substrate (filesystem, ops, runtime)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.filesystem import LustreFileSystem, StripeLayout
from repro.sim.ops import API, IOOp, OpKind
from repro.sim.optable import APIS
from repro.sim.runtime import IORuntime, JobSpec
from repro.sim.timing import PerfModel
from repro.util.units import MiB


class TestStripeLayout:
    def test_ost_for_offset_round_robin(self):
        layout = StripeLayout(stripe_size=MiB, stripe_width=4, stripe_offset=0, ost_ids=(0, 1, 2, 3))
        assert layout.ost_for_offset(0) == 0
        assert layout.ost_for_offset(MiB) == 1
        assert layout.ost_for_offset(4 * MiB) == 0

    @given(
        offset=st.integers(min_value=0, max_value=64 * MiB),
        size=st.integers(min_value=1, max_value=32 * MiB),
        width=st.integers(min_value=1, max_value=8),
    )
    def test_bytes_per_ost_conserves_bytes(self, offset, size, width):
        layout = StripeLayout(
            stripe_size=MiB, stripe_width=width, stripe_offset=0, ost_ids=tuple(range(width))
        )
        per_ost = layout.bytes_per_ost(offset, size)
        assert sum(per_ost.values()) == size
        assert all(ost in range(width) for ost in per_ost)

    def test_zero_size_extent(self):
        layout = StripeLayout(stripe_size=MiB, stripe_width=1, stripe_offset=0, ost_ids=(0,))
        assert layout.bytes_per_ost(10, 0) == {}

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StripeLayout(stripe_size=MiB, stripe_width=2, stripe_offset=0, ost_ids=(0,))


class TestLustreFileSystem:
    def test_layout_deterministic_per_path(self):
        fs = LustreFileSystem(seed=5)
        a = fs.layout_for("/scratch/a")
        assert a == fs.layout_for("/scratch/a")

    def test_set_stripe_override(self):
        fs = LustreFileSystem(num_osts=32, seed=0)
        fs.set_stripe("/scratch/wide", MiB, 16)
        assert fs.layout_for("/scratch/wide").stripe_width == 16

    def test_restripe_after_touch_rejected(self):
        fs = LustreFileSystem(seed=0)
        fs.layout_for("/scratch/f")
        with pytest.raises(ValueError):
            fs.set_stripe("/scratch/f", MiB, 4)

    def test_stripe_wider_than_osts_rejected(self):
        fs = LustreFileSystem(num_osts=4, seed=0)
        with pytest.raises(ValueError):
            fs.set_stripe("/scratch/f", MiB, 8)

    def test_contains(self):
        fs = LustreFileSystem(mount_point="/scratch", seed=0)
        assert fs.contains("/scratch/x")
        assert not fs.contains("/home/x")

    def test_root_mount_contains_every_absolute_path(self):
        fs = LustreFileSystem(mount_point="/", seed=0)
        assert fs.contains("/data/x") and fs.contains("/")
        assert not fs.contains("data/x")

    def test_file_size_tracking(self):
        fs = LustreFileSystem(seed=0)
        fs.record_extent("/scratch/f", 1000)
        fs.record_extent("/scratch/f", 500)
        assert fs.file_size("/scratch/f") == 1000


class TestIOOp:
    def test_validation(self):
        with pytest.raises(ValueError):
            IOOp(kind=OpKind.READ, api=API.POSIX, rank=-1, path="/f", size=1)
        with pytest.raises(ValueError):
            IOOp(kind=OpKind.READ, api=API.POSIX, rank=0, path="", size=1)
        with pytest.raises(ValueError):
            IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/f", size=1, collective=True)

    def test_end_offset(self):
        op = IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/f", offset=100, size=50)
        assert op.end_offset == 150


class TestPerfModel:
    def test_small_ops_latency_bound(self):
        perf = PerfModel()
        t_small = perf.transfer_time(100, 1, sequential=True)
        assert t_small == pytest.approx(perf.op_latency, rel=0.05)

    def test_wide_stripes_are_faster(self):
        perf = PerfModel()
        assert perf.transfer_time(64 * MiB, 8, True) < perf.transfer_time(64 * MiB, 1, True)

    def test_seek_penalty(self):
        perf = PerfModel()
        assert perf.transfer_time(MiB, 1, False) > perf.transfer_time(MiB, 1, True)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            PerfModel().transfer_time(-1, 1, True)


class TestIORuntime:
    def _runtime(self, nprocs=4, **fs_kwargs):
        fs = LustreFileSystem(seed=1, **fs_kwargs)
        spec = JobSpec(exe="/bin/app", nprocs=nprocs)
        return IORuntime(spec, fs), fs

    def test_bytes_accounting(self):
        rt, _ = self._runtime()
        ops = [
            IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=0, size=1000),
            IOOp(kind=OpKind.READ, api=API.POSIX, rank=1, path="/scratch/f", offset=0, size=400),
        ]
        res = rt.run(ops)
        assert res.bytes_written == 1000
        assert res.bytes_read == 400

    def test_ost_traffic_conservation(self):
        rt, _ = self._runtime()
        ops = [
            IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=i * MiB, size=MiB)
            for i in range(8)
        ]
        res = rt.run(ops)
        assert sum(res.ost_bytes.values()) == 8 * MiB

    def test_collective_lowering_aggregates(self):
        """Collective writes lower to few large POSIX writes by aggregators."""
        rt, fs = self._runtime(nprocs=4)
        ops = [
            IOOp(kind=OpKind.WRITE, api=API.MPIIO, rank=r, path="/scratch/c", offset=r * MiB, size=MiB, collective=True)
            for r in range(4)
        ]
        seen = rt.run(ops).ops
        posix = [i for i, a in enumerate(seen.api) if APIS[a] is API.POSIX]
        mpiio = [i for i, a in enumerate(seen.api) if APIS[a] is API.MPIIO]
        assert len(mpiio) == 4  # every rank's collective call is recorded
        assert len(posix) == 1  # one aggregated transfer (4 MiB < CB buffer)
        assert seen.size[posix[0]] == 4 * MiB
        assert seen.rank[posix[0]] == 0  # the aggregator

    def test_independent_mpiio_lowers_one_to_one(self):
        rt, _ = self._runtime(nprocs=2)
        seen = rt.run(
            [IOOp(kind=OpKind.WRITE, api=API.MPIIO, rank=0, path="/scratch/i", offset=0, size=4096)]
        ).ops
        assert [APIS[a] for a in seen.api] == [API.MPIIO, API.POSIX]
        assert seen.size[1] == 4096

    def test_rank_clocks_advance_independently(self):
        rt, _ = self._runtime(nprocs=2)
        ops = [
            IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f0", offset=0, size=16 * MiB),
            IOOp(kind=OpKind.COMPUTE, api=API.POSIX, rank=1, duration=0.001),
        ]
        res = rt.run(ops)
        assert res.rank_busy[0] > res.rank_busy[1] > 0

    def test_out_of_range_rank_rejected(self):
        rt, _ = self._runtime(nprocs=2)
        with pytest.raises(ValueError):
            rt.run([IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=5, path="/scratch/f", size=1)])

    def test_mpiio_op_rejected_without_mpi(self):
        fs = LustreFileSystem(seed=1)
        rt = IORuntime(JobSpec(exe="/bin/app", nprocs=2, uses_mpi=False), fs)
        ok = IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", size=1)
        bad = IOOp(kind=OpKind.OPEN, api=API.MPIIO, rank=1, path="/scratch/f")
        with pytest.raises(ValueError, match=r"MPI-IO op .*uses_mpi=False.*rank=1"):
            rt.run([ok, bad])

    def test_runtime_monotone_in_volume(self):
        rt1, _ = self._runtime()
        rt2, _ = self._runtime()
        small = rt1.run(
            [IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=0, size=MiB)]
        )
        big = rt2.run(
            [IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=0, size=64 * MiB)]
        )
        assert big.runtime > small.runtime
