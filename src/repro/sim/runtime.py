"""The I/O runtime: executes operation blocks into an executed-op table.

This plays the role of the application + MPI-IO library + OS on a real
system.  It maintains per-rank clocks, lowers MPI-IO collectives through
two-phase collective buffering into large aligned POSIX writes by
aggregator ranks (so "collective I/O turns many small requests into few
large ones" is an emergent property, as on real ROMIO), tracks per-OST
traffic, and writes every executed operation, lowered ones included, as
one row of an :class:`~repro.sim.optable.OpTable`.  The Darshan
instrumentation and the DXT collector reduce that table in bulk once the
run is over.

Execution works on whole :class:`~repro.sim.ops.OpBlock` s, with array
code: the lowered rows are expanded with ``np.repeat``; a transfer is
sequential when it starts where the previous transfer or seek of its
(path, rank) left off, found by a stable sort on that key; single-stripe
OST traffic and transfer times are array expressions; and each rank's
clock is a running sum (``np.cumsum`` adds in order, so every time
equals adding op by op), cut into segments at barriers.  Clocks, the
per-(path, rank) position, file extents and the OST traffic carry from
one block to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.sim.filesystem import LustreFileSystem, StripeLayout
from repro.sim.ops import (
    API,
    API_CODE,
    COLLECTIVE,
    KIND_CODE,
    MEM_NOT_ALIGNED,
    IOOp,
    OpBlock,
    OpKind,
)
from repro.sim.optable import IN_FS, OpTable, OpTableBuilder
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

_READ = KIND_CODE[OpKind.READ]
_WRITE = KIND_CODE[OpKind.WRITE]
_SEEK = KIND_CODE[OpKind.SEEK]
_SYNC = KIND_CODE[OpKind.SYNC]
_COMPUTE = KIND_CODE[OpKind.COMPUTE]
_BARRIER = KIND_CODE[OpKind.BARRIER]
_MPIIO = API_CODE[API.MPIIO]
_POSIX = API_CODE[API.POSIX]


class IORuntime:
    """Executes an op stream for one job against one filesystem.

    The stream holds :class:`OpBlock` s and bare :class:`IOOp` s, in
    program order per rank (any interleaving across ranks is accepted;
    per-rank order is what matters); consecutive bare ops are batched
    into one block.  The runtime keeps a clock per rank, and a barrier
    sets every clock to the latest one.  A job whose spec says
    ``uses_mpi=False`` cannot issue MPI-IO operations.
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
        self._rows = OpTableBuilder(fs)
        # Per path, indexed by its code in the op table: its layout, and
        # (stripe size, 0 outside the mount; chunk alignment; stripe width;
        # where its OST ids start in _osts; IN_FS or 0).
        self._files: dict[str, int] = {}
        self._layouts: list[StripeLayout | None] = []
        self._geometry: list[tuple[int, int, int, int, int]] = []
        self._osts: list[int] = []
        # _geometry's five columns and _osts as arrays, for the block pass.
        self._columns = tuple(np.zeros(0, dtype=np.int64) for _ in range(5))
        self._ost_ids = np.zeros(0, dtype=np.int64)
        self._max_end = np.zeros(0, dtype=np.int64)  # furthest byte a transfer reached
        # (path code * nprocs + rank) -> offset one past the last byte that
        # rank touched in that file (or its last seek target), sorted by key.
        self._last_keys = np.zeros(0, dtype=np.int64)
        self._last_ends = np.zeros(0, dtype=np.int64)
        self._ost_bytes: dict[int, int] = {}
        self._bytes_read = 0
        self._bytes_written = 0
        self._ops = 0

    # -- execution -------------------------------------------------------

    def run(self, ops: Iterable[IOOp | OpBlock] | OpBlock) -> JobResult:
        """Execute the stream; return job-level aggregates and the op table."""
        if isinstance(ops, OpBlock):
            ops = (ops,)
        bare: list[IOOp] = []
        for item in ops:
            if isinstance(item, OpBlock):
                if bare:
                    self._run_block(OpBlock.from_ops(bare))
                    bare = []
                self._run_block(item)
            else:
                bare.append(item)
        if bare:
            self._run_block(OpBlock.from_ops(bare))
        for path, code in self._files.items():
            if self._layouts[code] is not None:
                self.fs.record_extent(path, int(self._max_end[code]))
        return JobResult(
            runtime=max([0.0, *self._clock]),
            ops_executed=self._ops,
            bytes_read=self._bytes_read,
            bytes_written=self._bytes_written,
            ost_bytes=dict(self._ost_bytes),
            rank_busy=np.array(self._clock, dtype=np.float64),
            ops=self._rows.build(),
        )

    # -- the block pass ----------------------------------------------------

    def _run_block(self, block: OpBlock) -> None:
        """Execute one block: time its rows, append them to the table."""
        n = len(block)
        if not n:
            return
        self._check(block)
        nprocs = self.spec.nprocs
        kind, api, flags, rank = block.kind, block.api, block.flags, block.rank
        compute = kind == _COMPUTE
        barrier = kind == _BARRIER
        issued = ~(compute | barrier)
        data = (kind == _READ) | (kind == _WRITE)
        collective = (flags & COLLECTIVE) != 0
        mpi_data = data & (api == _MPIIO)
        twin = mpi_data & ~collective  # independent MPI-IO: a POSIX row of its own
        code = self._codes(block, issued)[block.path]
        stripe_of, align_of, _, _, flags_of = self._columns

        # Collective buffering: every _CB_RANKS_PER_AGGREGATOR-th rank moves
        # its group's data as stripe-aligned chunks of at most one buffer.
        # Every rank's collective call stays a row of its own.
        aggregates = mpi_data & collective & (rank % _CB_RANKS_PER_AGGREGATOR == 0)
        group = np.minimum(_CB_RANKS_PER_AGGREGATOR, nprocs - rank)
        total = np.where(aggregates, block.size * group, 0)
        chunks = -(-total // _CB_BUFFER_SIZE)
        base = np.zeros(n, dtype=np.int64)
        lead = np.flatnonzero(aggregates)
        align = align_of[code[lead]]
        base[lead] = (block.offset[lead] // align) * align

        # One expanded row per issued op, then its twin or its chunks.
        reps = 1 + twin + chunks
        src = np.repeat(np.arange(n), reps)
        m = src.size
        sub = np.arange(m) - np.repeat(np.cumsum(reps) - reps, reps)
        head = sub == 0
        chunk = ~head & ~twin[src]
        twin_row = ~head & ~chunk
        r_kind = kind[src]
        r_rank = rank[src]
        r_code = code[src]
        done = (sub - 1) * _CB_BUFFER_SIZE
        r_offset = np.where(chunk, base[src] + done, block.offset[src])
        r_size = np.where(chunk, np.minimum(_CB_BUFFER_SIZE, total[src] - done), block.size[src])
        timed = (head & issued[src]) | chunk  # rows the timing model charges
        r_data = timed & data[src]

        # Sequential: a transfer starting where its (path, rank) left off.
        r_seek = timed & (r_kind == _SEEK)
        moved = np.flatnonzero(r_data | r_seek)
        reach = np.where(r_seek[moved], r_offset[moved], r_offset[moved] + r_size[moved])
        previous = self._previous_ends(r_code[moved] * nprocs + r_rank[moved], reach)
        sequential = np.zeros(m, dtype=bool)
        sequential[moved] = previous == r_offset[moved]

        # Durations: transfers by size, OSTs and seek; metadata by kind.
        perf = self.perf
        dt = np.where(r_kind == _SYNC, perf.sync_time(), perf.metadata_time())
        rows = np.flatnonzero(r_data)
        d_code, d_offset, d_size = r_code[rows], r_offset[rows], r_size[rows]
        lanes, slowdown = self._ost_traffic(d_code, d_offset, d_size)
        dt[rows] = perf.transfer_times(d_size, lanes, sequential[rows]) * slowdown
        overhead = head & collective[src] & issued[src]
        dt[overhead] = perf.collective_overhead + dt[overhead]
        ran = head & compute[src]
        dt[ran] = block.duration[src[ran]]

        reading = r_kind[rows] == _READ
        self._bytes_read += int(d_size[reading].sum())
        self._bytes_written += int(d_size[~reading].sum())
        self._ops += int(np.count_nonzero(timed))
        striped = stripe_of[d_code] > 0
        np.maximum.at(self._max_end, d_code[striped], (d_offset + d_size)[striped])

        start, end = self._advance_clocks(timed | ran, head & barrier[src], r_rank, dt)
        twins = np.flatnonzero(twin_row)
        start[twins] = start[twins - 1]
        end[twins] = end[twins - 1]

        out = np.flatnonzero(timed | twin_row)
        own = np.where(twin_row, flags[src] & MEM_NOT_ALIGNED, np.where(head, flags[src], 0))
        self._rows.extend(
            r_kind[out],
            np.where(head, api[src], _POSIX)[out],
            (flags_of[r_code[out]] | own[out]),
            r_rank[out],
            r_code[out],
            r_offset[out],
            r_size[out],
            start[out],
            end[out],
        )

    def _check(self, block: OpBlock) -> None:
        """Reject ops this job cannot issue, naming the first one."""
        nprocs = self.spec.nprocs
        bad = block.rank >= nprocs
        if not self.spec.uses_mpi:
            bad |= block.api == _MPIIO
        if bad.any():
            op = block[int(np.argmax(bad))]
            if op.rank >= nprocs:
                raise ValueError(f"op rank {op.rank} out of range for nprocs={nprocs}")
            raise ValueError(f"MPI-IO op in a job without MPI (uses_mpi=False): {op!r}")

    def _codes(self, block: OpBlock, issued: np.ndarray) -> np.ndarray:
        """The table code of each of ``block``'s paths (-1 where no row names it).

        A path seen for the first time is opened, in the order the
        block's ops first touch them.
        """
        order = list(dict.fromkeys(block.path[issued].tolist()))
        files, paths = self._files, block.paths
        known = len(files)
        codes = np.full(len(paths), -1, dtype=np.int64)
        names = [paths[p] for p in order]
        codes[order] = [files[name] if name in files else self._open(name) for name in names]
        if len(files) > known:
            self._columns = tuple(np.array(c, dtype=np.int64) for c in zip(*self._geometry))
            self._ost_ids = np.array(self._osts, dtype=np.int64)
            self._max_end = np.concatenate(
                [self._max_end, np.zeros(len(files) - known, dtype=np.int64)]
            )
        return codes

    def _open(self, path: str) -> int:
        """Start tracking ``path``; its layout materializes on this first touch."""
        fs = self.fs
        code = self._files[path] = self._rows.path_code(path)
        layout = fs.layout_for(path) if fs.contains(path) else None
        self._layouts.append(layout)
        if layout is None:
            self._geometry.append((0, fs.block_size, 1, 0, 0))
        else:
            stripe = layout.stripe_size
            self._geometry.append((stripe, stripe, layout.stripe_width, len(self._osts), IN_FS))
            self._osts.extend(layout.ost_ids)
        return code

    def _previous_ends(self, keys: np.ndarray, reach: np.ndarray) -> np.ndarray:
        """Where each row's (path, rank) stood before it; record where it ends.

        ``keys`` name a row's (path, rank) and ``reach`` where the row
        leaves it, in execution order.  A key's first row reads the
        position carried from earlier blocks (0 if none).
        """
        order = np.argsort(keys, kind="stable")
        keys, reach = keys[order], reach[order]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        before = np.empty_like(reach)
        before[1:] = reach[:-1]
        known, ends = self._last_keys, self._last_ends
        before[first] = 0
        if known.size:
            at = np.minimum(np.searchsorted(known, keys[first]), known.size - 1)
            before[first] = np.where(known[at] == keys[first], ends[at], 0)
        last = np.ones(keys.size, dtype=bool)
        last[:-1] = first[1:]
        merged = np.concatenate([known, keys[last]])[::-1]
        kept, where = np.unique(merged, return_index=True)
        self._last_keys = kept
        self._last_ends = np.concatenate([ends, reach[last]])[::-1][where]
        out = np.empty_like(before)
        out[order] = before
        return out

    def _ost_traffic(
        self, code: np.ndarray, offset: np.ndarray, size: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Count transfers' bytes per OST; return each one's (OSTs used, slowdown).

        A transfer inside one stripe is one OST's traffic, worked out for
        all of them at once; a wider one goes through
        ``StripeLayout.bytes_per_ost``.  OSTs enter the traffic map in the
        order transfers first reach them.
        """
        lanes = np.ones(code.size, dtype=np.int64)
        slowdown = np.ones(code.size, dtype=np.float64)
        if not code.size:
            return lanes, slowdown
        stripe_of, _, width_of, first_ost_of, _ = self._columns
        stripe = stripe_of[code]
        striped = (stripe > 0) & (size > 0)
        stripe = np.where(striped, stripe, 1)
        first = offset // stripe
        single = striped & (first == (offset + size - 1) // stripe)
        one = np.flatnonzero(single)
        c = code[one]
        ost = self._ost_ids[first_ost_of[c] + first[one] % width_of[c]]
        nbytes = size[one]
        fs = self.fs
        if fs.slow_osts and one.size:
            factors = np.ones(int(ost.max()) + 1)
            for slow, factor in fs.slow_osts.items():
                if 0 <= slow < factors.size:
                    factors[slow] = factor
            slowdown[one] = factors[ost]
        wide = np.flatnonzero(striped & ~single)
        if wide.size:
            layouts = self._layouts
            used, slower, osts, amounts = [], [], [], []
            for c, o, s in zip(code[wide].tolist(), offset[wide].tolist(), size[wide].tolist()):
                per_ost = layouts[c].bytes_per_ost(o, s)
                used.append(len(per_ost))
                slower.append(fs.ost_slowdown(per_ost))
                osts.extend(per_ost)
                amounts.extend(per_ost.values())
            lanes[wide] = used
            slowdown[wide] = slower
            # Every OST touch in row order, a wide row's in stripe order.
            order = np.argsort(np.concatenate([one, np.repeat(wide, used)]), kind="stable")
            ost = np.concatenate([ost, np.array(osts, dtype=np.int64)])[order]
            nbytes = np.concatenate([nbytes, np.array(amounts, dtype=np.int64)])[order]
        seen, first_seen, slot = np.unique(ost, return_index=True, return_inverse=True)
        totals = np.zeros(seen.size, dtype=np.int64)
        np.add.at(totals, slot, nbytes)
        traffic = self._ost_bytes
        order = np.argsort(first_seen)
        for o, b in zip(seen[order].tolist(), totals[order].tolist()):
            traffic[o] = traffic.get(o, 0) + b
        return lanes, slowdown

    def _advance_clocks(
        self, moves: np.ndarray, cuts: np.ndarray, rank: np.ndarray, dt: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run each rank's clock over the rows that move it; return (start, end).

        ``moves`` marks rows that add ``dt`` to their rank's clock and
        ``cuts`` the barriers, which set every clock to the latest one.
        Between two barriers each rank's clock is one running sum.
        """
        m = dt.size
        start = np.zeros(m)
        end = np.zeros(m)
        events = np.flatnonzero(moves | cuts)
        nprocs = self.spec.nprocs
        cut = cuts[events]
        segment = np.cumsum(cut)
        events, segment = events[~cut], segment[~cut]
        # Sort by (segment, rank): each such run sums in one cumsum, from a
        # leading slot that holds the clock it starts at.
        key = segment * nprocs + rank[events]
        order = np.argsort(key, kind="stable")
        key = key[order]
        events = events[order]
        new_run = np.ones(key.size, dtype=bool)
        new_run[1:] = key[1:] != key[:-1]
        slot = np.arange(key.size) + np.cumsum(new_run)
        run_first = np.flatnonzero(new_run)
        run_start = run_first + np.arange(run_first.size)
        run_key = key[run_first]
        bounds = np.searchsorted(run_key // nprocs, np.arange(int(cut.sum()) + 2)).tolist()
        buffer = np.empty(key.size + run_first.size)
        buffer[slot] = dt[events]
        starts = run_start.tolist()
        stops = starts[1:] + [buffer.size]
        ranks = (run_key % nprocs).tolist()
        clock = self._clock
        for s in range(len(bounds) - 1):
            if s:
                # The barrier: every rank waits for the slowest.
                clock = [max([0.0, *clock])] * nprocs
            for g in range(bounds[s], bounds[s + 1]):
                run = buffer[starts[g] : stops[g]]
                run[0] = clock[ranks[g]]
                run.cumsum(out=run)
                clock[ranks[g]] = float(run[-1])
        self._clock = clock
        start[events] = buffer[slot - 1]
        end[events] = buffer[slot]
        return start, end
