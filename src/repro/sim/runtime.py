"""The I/O runtime: executes operation streams into an executed-op table.

This plays the role of the application + MPI-IO library + OS on a real
system.  It maintains per-rank clocks, lowers MPI-IO collectives through
two-phase collective buffering into large aligned POSIX writes by
aggregator ranks (so "collective I/O turns many small requests into few
large ones" is an emergent property, as on real ROMIO), tracks per-OST
traffic, and writes every executed operation, lowered ones included, as
one row of an :class:`~repro.sim.optable.OpTable`.  The Darshan
instrumentation and the DXT collector reduce that table in bulk once the
run is over; only what depends on execution order (clocks, barriers,
seek detection, lowering) happens op by op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.sim.filesystem import LustreFileSystem, StripeLayout
from repro.sim.ops import API, IOOp, OpKind
from repro.sim.optable import (
    API_CODE,
    COLLECTIVE,
    IN_FS,
    KIND_CODE,
    MEM_NOT_ALIGNED,
    NONBLOCKING,
    OpTable,
    OpTableBuilder,
)
from repro.sim.timing import PerfModel

__all__ = ["JobSpec", "JobResult", "IORuntime"]


@dataclass(frozen=True, slots=True)
class JobSpec:
    """Static description of one application run."""

    exe: str
    nprocs: int
    jobid: int = 0
    uid: int = 1001
    start_time: int = 1_700_000_000  # fixed epoch keeps logs reproducible
    uses_mpi: bool = True

    def __post_init__(self) -> None:
        if self.nprocs <= 0:
            raise ValueError("nprocs must be positive")


@dataclass(slots=True)
class JobResult:
    """Aggregates produced by executing a job's operation stream."""

    runtime: float
    ops_executed: int
    bytes_read: int
    bytes_written: int
    ost_bytes: dict[int, int]
    rank_busy: np.ndarray  # seconds of I/O+compute per rank
    ops: OpTable  # every executed op in execution order, lowered ones included


# Number of ranks per collective-buffering aggregator (ROMIO-like default:
# one aggregator per node; we use a fixed fan-in).
_CB_RANKS_PER_AGGREGATOR = 4
# Collective buffering buffer size (ROMIO default 16 MiB).
_CB_BUFFER_SIZE = 16 * 1024 * 1024

_READ = OpKind.READ
_WRITE = OpKind.WRITE
_COMPUTE = OpKind.COMPUTE
_BARRIER = OpKind.BARRIER
_MPIIO = API.MPIIO
_POSIX_CODE = API_CODE[API.POSIX]


@dataclass(slots=True)
class _File:
    """What the runtime tracks per path."""

    code: int  # path code in the op table
    layout: StripeLayout | None  # None outside the mount point
    flags: int  # IN_FS or 0
    # rank -> offset one past the last byte touched, for sequentiality/seek
    # detection in the timing model.
    last_end: dict[int, int] = field(default_factory=dict)
    max_end: int = 0  # furthest byte a transfer reached


class IORuntime:
    """Executes an :class:`IOOp` stream for one job against one filesystem.

    Operations are supplied in program order per rank (any interleaving
    across ranks is accepted; per-rank order is what matters).  The runtime
    keeps a clock per rank; collective operations synchronize the clocks of
    all participating ranks, as an MPI barrier would.  A job whose spec
    says ``uses_mpi=False`` cannot issue MPI-IO operations.
    """

    def __init__(
        self,
        spec: JobSpec,
        fs: LustreFileSystem,
        perf: PerfModel | None = None,
    ) -> None:
        self.spec = spec
        self.fs = fs
        self.perf = perf or PerfModel()
        self._clock = [0.0] * spec.nprocs
        self._files: dict[str, _File] = {}
        self._rows = OpTableBuilder(fs)
        self._ost_bytes: dict[int, int] = {}
        self._bytes_read = 0
        self._bytes_written = 0
        self._ops = 0

    # -- execution -------------------------------------------------------

    def run(self, ops: Iterable[IOOp]) -> JobResult:
        """Execute the stream; return job-level aggregates and the op table."""
        nprocs = self.spec.nprocs
        uses_mpi = self.spec.uses_mpi
        clock = self._clock
        files = self._files
        add = self._rows.add
        time_op = self._time_op
        for op in ops:
            rank = op.rank
            if rank >= nprocs:
                raise ValueError(f"op rank {rank} out of range for nprocs={nprocs}")
            api = op.api
            if api is _MPIIO and not uses_mpi:
                raise ValueError(f"MPI-IO op in a job without MPI (uses_mpi=False): {op!r}")
            kind = op.kind
            if kind is _COMPUTE:
                clock[rank] += op.duration
                continue
            if kind is _BARRIER:
                # MPI_Barrier: every rank waits for the slowest.  Invisible
                # to Darshan (no row), but the waiting time shapes the DXT
                # timeline, which is the point.
                clock[:] = [max([0.0, *clock])] * nprocs
                continue
            file = files.get(op.path)
            if file is None:
                file = self._open(op.path)
            offset = op.offset
            size = op.size
            collective = op.collective
            t0 = clock[rank]
            dt = time_op(kind, rank, file, offset, size)
            if collective:
                # A synchronization round is charged to the calling rank.
                dt = self.perf.collective_overhead + dt
            t1 = clock[rank] = t0 + dt
            kind_code = KIND_CODE[kind]
            flags = file.flags if op.mem_aligned else file.flags | MEM_NOT_ALIGNED
            add(
                kind_code,
                API_CODE[api],
                flags | (COLLECTIVE if collective else 0) | (NONBLOCKING if op.nonblocking else 0),
                rank,
                file.code,
                offset,
                size,
                t0,
                t1,
            )
            if api is not _MPIIO or (kind is not _READ and kind is not _WRITE):
                continue
            if not collective:
                # Independent MPI-IO lowers 1:1 to POSIX on the same rank;
                # the MPI-IO op already accounted for the time and traffic.
                add(kind_code, _POSIX_CODE, flags, rank, file.code, offset, size, t0, t1)
            elif rank % _CB_RANKS_PER_AGGREGATOR == 0:
                self._aggregate(op, file)
        for path, file in files.items():
            if file.layout is not None:
                self.fs.record_extent(path, file.max_end)
        return JobResult(
            runtime=max([0.0, *clock]),
            ops_executed=self._ops,
            bytes_read=self._bytes_read,
            bytes_written=self._bytes_written,
            ost_bytes=dict(self._ost_bytes),
            rank_busy=np.array(clock, dtype=np.float64),
            ops=self._rows.build(),
        )

    # -- internals ---------------------------------------------------------

    def _aggregate(self, op: IOOp, file: _File) -> None:
        """Issue the POSIX transfers of one collective call's aggregator.

        Every rank's collective call is a row of its own (Darshan counts
        MPIIO_COLL_* per rank), but the data moves through aggregators:
        every ``_CB_RANKS_PER_AGGREGATOR``-th rank writes its group's
        buffers as stripe-aligned transfers of at most one CB buffer each.
        """
        rank = op.rank
        group = min(_CB_RANKS_PER_AGGREGATOR, self.spec.nprocs - rank)
        total = op.size * group
        align = file.layout.stripe_size if file.layout else self.fs.block_size
        base = (op.offset // align) * align
        kind_code = KIND_CODE[op.kind]
        clock = self._clock
        done = 0
        while done < total:
            chunk = min(_CB_BUFFER_SIZE, total - done)
            t0 = clock[rank]
            t1 = clock[rank] = t0 + self._time_op(op.kind, rank, file, base + done, chunk)
            self._rows.add(
                kind_code, _POSIX_CODE, file.flags, rank, file.code, base + done, chunk, t0, t1
            )
            done += chunk

    def _open(self, path: str) -> _File:
        """Start tracking ``path``; its layout materializes on this first touch."""
        fs = self.fs
        inside = fs.contains(path)
        file = self._files[path] = _File(
            code=self._rows.path_code(path),
            layout=fs.layout_for(path) if inside else None,
            flags=IN_FS if inside else 0,
        )
        return file

    def _time_op(self, kind: OpKind, rank: int, file: _File, offset: int, size: int) -> float:
        """Account one executed op; return its duration."""
        self._ops += 1
        if kind is _READ or kind is _WRITE:
            end = offset + size
            sequential = file.last_end.get(rank, 0) == offset
            file.last_end[rank] = end
            osts_used = 1
            slowdown = 1.0
            if file.layout is not None:
                osts_used, slowdown = self._stripe_traffic(file.layout, offset, size)
                if end > file.max_end:
                    file.max_end = end
            if kind is _READ:
                self._bytes_read += size
            else:
                self._bytes_written += size
            return self.perf.transfer_time(size, osts_used, sequential) * slowdown
        # Metadata operations.
        if kind is OpKind.SEEK:
            file.last_end[rank] = offset
        if kind is OpKind.SYNC:
            return self.perf.sync_time()
        return self.perf.metadata_time()

    def _stripe_traffic(self, layout: StripeLayout, offset: int, size: int) -> tuple[int, float]:
        """Count an extent's bytes per OST; return (OSTs used, slowdown).

        An extent inside one stripe is one OST's traffic, worked out
        here; a wider one goes through ``StripeLayout.bytes_per_ost``.
        """
        if size <= 0:
            return 1, 1.0
        stripe = layout.stripe_size
        first = offset // stripe
        if first == (offset + size - 1) // stripe:
            ost = layout.ost_ids[first % layout.stripe_width]
            self._ost_bytes[ost] = self._ost_bytes.get(ost, 0) + size
            return 1, self.fs.slow_osts.get(ost, 1.0)
        per_ost = layout.bytes_per_ost(offset, size)
        for ost, nbytes in per_ost.items():
            self._ost_bytes[ost] = self._ost_bytes.get(ost, 0) + nbytes
        return len(per_ost), self.fs.ost_slowdown(per_ost)
