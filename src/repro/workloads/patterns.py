"""Composable I/O phase generators.

Every TraceBench issue corresponds to an operation-stream behaviour; these
factories produce those behaviours.  A phase factory returns a closure that
maps a :class:`~repro.workloads.base.WorkloadContext` to the phase's ops,
so workloads are declarative compositions.  Each phase builds its ops as
one :class:`~repro.sim.ops.OpBlock` with numpy: a loop nest such as
"request ``i`` of every rank, rank by rank" is a ``np.tile`` of the ranks
against a ``np.repeat`` of ``i``, and groups that alternate (writes, then
each rank's sync, burst after burst) are ordered by a stable sort on
their position.  Each phase also records the call that built it as
``phase.built_by``, ``(factory name, args, kwargs)``.

Conventions:

* ``layout='fpp'`` → file-per-process (``path`` gets ``.rank`` appended);
  ``layout='shared'`` → all ranks touch one file (segmented by rank).
* ``pattern='seq'`` → each rank walks its region in order;
  ``'strided'`` → ranks interleave block-by-block across the file (classic
  N-to-1 strided access); ``'random'`` → each rank visits its region's
  blocks in a shuffled order.
* ``unaligned_shim`` shifts every offset by a constant, defeating both
  file and stripe alignment (Darshan's ``POSIX_FILE_NOT_ALIGNED``).
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable

import numpy as np

from repro.sim.ops import (
    API,
    API_CODE,
    COLLECTIVE,
    KIND_CODE,
    MEM_NOT_ALIGNED,
    OpBlock,
    OpKind,
)
from repro.workloads.base import PhaseFn, WorkloadContext

__all__ = [
    "data_phase",
    "metadata_phase",
    "repetitive_read_phase",
    "imbalanced_write_phase",
    "stdio_phase",
    "false_sharing_phase",
    "metadata_churn_phase",
    "checkpoint_burst_phase",
    "read_modify_write_phase",
    "fsync_per_write_phase",
    "straggler_phase",
    "compute_straggler_phase",
    "lock_convoy_phase",
    "interference_stall_phase",
    "producer_consumer_phase",
]

_API_MAP = {"posix": API.POSIX, "mpiio": API.MPIIO, "stdio": API.STDIO}
_API_CODES = {name: API_CODE[api] for name, api in _API_MAP.items()}
_POSIX = API_CODE[API.POSIX]
_STDIO = API_CODE[API.STDIO]
_OPEN = KIND_CODE[OpKind.OPEN]
_READ = KIND_CODE[OpKind.READ]
_WRITE = KIND_CODE[OpKind.WRITE]
_STAT = KIND_CODE[OpKind.STAT]
_SYNC = KIND_CODE[OpKind.SYNC]
_CLOSE = KIND_CODE[OpKind.CLOSE]
_COMPUTE = KIND_CODE[OpKind.COMPUTE]
_BARRIER = KIND_CODE[OpKind.BARRIER]


def _factory(make: Callable[..., PhaseFn]) -> Callable[..., PhaseFn]:
    """Record on each phase ``make`` returns the call that built it."""

    @functools.wraps(make)
    def factory(*args, **kwargs) -> PhaseFn:
        phase = make(*args, **kwargs)
        phase.built_by = (make.__name__, args, kwargs)  # type: ignore[attr-defined]
        return phase

    return factory


def _rank_paths(path: str, layout: str, nprocs: int) -> list[str]:
    if layout == "fpp":
        return [f"{path}.{r:05d}" for r in range(nprocs)]
    if layout == "shared":
        return [path] * nprocs
    raise ValueError(f"unknown layout {layout!r}")


def _rank_files(path: str, layout: str, nprocs: int) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct paths of :func:`_rank_paths`, and each rank's index into them."""
    if layout == "shared":
        return (path,), np.zeros(nprocs, dtype=np.int64)
    return tuple(_rank_paths(path, layout, nprocs)), np.arange(nprocs)


def _offsets_for_rank(
    rank: int,
    nprocs: int,
    count: int,
    xfer: int,
    layout: str,
    pattern: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Byte offsets of each request of ``rank``, in issue order."""
    idx = np.arange(count, dtype=np.int64)
    if layout == "shared":
        if pattern == "strided":
            # Block i of rank r lands at (i*nprocs + r): ranks interleave.
            blocks = idx * nprocs + rank
        else:
            # Segmented: rank r owns blocks [r*count, (r+1)*count).
            blocks = rank * count + idx
    else:
        blocks = idx
    offsets = blocks * xfer
    if pattern == "random":
        offsets = rng.permutation(offsets)
    return offsets


def _rounds(count: int, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``for i in range(count): for r in ranks``, as (i, r) columns."""
    return np.repeat(np.arange(count), ranks.size), np.tile(ranks, count)


def _framed(
    paths: tuple[str, ...], api: int, ranks: np.ndarray, where: np.ndarray, body: OpBlock
) -> OpBlock:
    """``body`` between an open and a close of each rank's file, rank by rank."""
    return OpBlock.concat(
        [
            OpBlock(paths, _OPEN, api, ranks, where),
            body,
            OpBlock(paths, _CLOSE, api, ranks, where),
        ]
    )


def _in_order(parts: list[OpBlock], keys: list[np.ndarray]) -> OpBlock:
    """The rows of ``parts`` sorted by ``keys`` (one per row); ties keep part order."""
    return OpBlock.concat(parts).take(np.argsort(np.concatenate(keys), kind="stable"))


@_factory
def data_phase(
    path: str,
    direction: str,
    xfer: int,
    count_per_rank: int,
    *,
    api: str = "posix",
    collective: bool = False,
    layout: str = "fpp",
    pattern: str = "seq",
    unaligned_shim: int = 0,
    mem_aligned: bool = True,
    open_per_rank: bool = True,
    fsync: bool = False,
) -> PhaseFn:
    """A bulk read or write phase.

    ``direction`` is ``'read'`` or ``'write'``.  Collective phases must use
    the MPI-IO API; the runtime lowers them through collective buffering.
    """
    if direction not in ("read", "write"):
        raise ValueError("direction must be 'read' or 'write'")
    if collective and api != "mpiio":
        raise ValueError("collective phases require api='mpiio'")
    kind = _READ if direction == "read" else _WRITE
    api_code = _API_CODES[api]
    coll = COLLECTIVE if collective else 0
    data_flags = coll | (0 if mem_aligned else MEM_NOT_ALIGNED)
    closing = [_SYNC, _CLOSE] if fsync else [_CLOSE]

    def phase(ctx: WorkloadContext) -> OpBlock:
        n = ctx.nprocs
        paths, where = _rank_files(path, layout, n)
        ranks = np.arange(n)
        offsets = np.array(
            [
                _offsets_for_rank(r, n, count_per_rank, xfer, layout, pattern, ctx.rng)
                for r in range(n)
            ],
            dtype=np.int64,
        ).reshape(n, count_per_rank)
        parts = []
        if open_per_rank:
            parts.append(OpBlock(paths, _OPEN, api_code, ranks, where, flags=coll))
        # Requests go round-robin across ranks so the op stream resembles a
        # real parallel execution trace: the offset matrix, transposed.
        parts.append(
            OpBlock(
                paths,
                kind,
                api_code,
                np.tile(ranks, count_per_rank),
                np.tile(where, count_per_rank),
                offset=offsets.T.ravel() + unaligned_shim,
                size=xfer,
                flags=data_flags,
            )
        )
        parts.append(
            OpBlock(
                paths,
                np.tile(closing, n),
                api_code,
                np.repeat(ranks, len(closing)),
                np.repeat(where, len(closing)),
            )
        )
        return OpBlock.concat(parts)

    return phase


def _per_file_paths(directory: str, nprocs: int, files_per_rank: int) -> tuple[str, ...]:
    return tuple(
        f"{directory}/rank{r:04d}/f{i:06d}" for r in range(nprocs) for i in range(files_per_rank)
    )


@_factory
def metadata_phase(
    directory: str,
    files_per_rank: int,
    *,
    with_stat: bool = True,
    data_bytes: int = 0,
    api: str = "posix",
) -> PhaseFn:
    """A metadata-heavy phase: create/stat/touch many small files.

    Models mdtest and the *High Metadata Load* issue: per file, an open,
    an optional stat, an optional tiny write, and a close.
    """
    api_code = _API_CODES[api]
    per_file = (
        [_OPEN] + ([_STAT] if with_stat else []) + ([_WRITE] if data_bytes > 0 else []) + [_CLOSE]
    )

    def phase(ctx: WorkloadContext) -> OpBlock:
        paths = _per_file_paths(directory, ctx.nprocs, files_per_rank)
        kinds = np.tile(per_file, len(paths))
        return OpBlock(
            paths,
            kinds,
            api_code,
            np.repeat(np.arange(ctx.nprocs), files_per_rank * len(per_file)),
            np.repeat(np.arange(len(paths)), len(per_file)),
            size=np.where(kinds == _WRITE, data_bytes, 0),
        )

    return phase


@_factory
def repetitive_read_phase(
    path: str,
    region_bytes: int,
    xfer: int,
    repeats: int,
    *,
    nranks: int | None = None,
) -> PhaseFn:
    """Re-read the same region ``repeats`` times (Repetitive Data Access).

    The Darshan signature is BYTES_READ far exceeding MAX_BYTE_READ + 1:
    the application moves the same bytes over and over.
    """

    def phase(ctx: WorkloadContext) -> OpBlock:
        ranks = np.arange(nranks if nranks is not None else ctx.nprocs)
        reads_per_pass = max(1, region_bytes // xfer)
        i, r = _rounds(reads_per_pass, ranks)
        i, r = np.tile(i, repeats), np.tile(r, repeats)
        reads = OpBlock((path,), _READ, _POSIX, r, offset=i * xfer, size=xfer)
        return _framed((path,), _POSIX, ranks, np.zeros_like(ranks), reads)

    return phase


@_factory
def imbalanced_write_phase(
    path: str,
    xfer: int,
    total_count: int,
    *,
    heavy_rank: int = 0,
    heavy_share: float = 0.8,
    api: str = "posix",
    layout: str = "shared",
) -> PhaseFn:
    """A write phase where one rank issues a disproportionate share.

    Models *Rank Load Imbalance*: ``heavy_rank`` performs ``heavy_share``
    of all requests; remaining requests spread evenly.  With
    ``layout='shared'`` all ranks append to one file (rank imbalance shows
    up in the shared record's variance counters); with ``'fpp'`` each rank
    writes its own file (imbalance shows up across per-rank records).
    """
    if not 0.0 < heavy_share <= 1.0:
        raise ValueError("heavy_share must be in (0, 1]")
    api_code = _API_CODES[api]

    def phase(ctx: WorkloadContext) -> OpBlock:
        n = ctx.nprocs
        paths, where = _rank_files(path, layout, n)
        ranks = np.arange(n)
        heavy_n = int(total_count * heavy_share)
        rest = total_count - heavy_n
        # The rest goes round-robin over the other ranks.
        others = ranks[ranks != heavy_rank]
        if not others.size:
            others = np.array([heavy_rank])
        counts = np.zeros(n, dtype=np.int64)
        if 0 <= heavy_rank < n:
            counts[heavy_rank] = heavy_n
        k = others.size
        np.add.at(counts, others, rest // k + (np.arange(k) < rest % k))
        # Rank by rank, each rank's writes in turn: a shared file is
        # appended to, a rank's own file written from its start.
        writer = np.repeat(ranks, counts)
        issued = np.arange(writer.size)
        own = issued - np.repeat(np.cumsum(counts) - counts, counts)
        writes = OpBlock(
            paths,
            _WRITE,
            api_code,
            writer,
            where[writer],
            offset=(issued if layout == "shared" else own) * xfer,
            size=xfer,
        )
        return _framed(paths, api_code, ranks, where, writes)

    return phase


@_factory
def false_sharing_phase(
    path: str,
    record_bytes: int,
    count_per_rank: int,
    *,
    api: str = "mpiio",
) -> PhaseFn:
    """Rank-interleaved sub-block records on one shared file.

    Record *i* of rank *r* lands at ``(i * nprocs + r) * record_bytes``, so
    neighbouring ranks write into the *same* file-system block — the classic
    false-sharing / extent-lock-contention pattern.  With ``record_bytes``
    below the block size most offsets are unaligned and every request is
    small.
    """
    if record_bytes <= 0:
        raise ValueError("record_bytes must be positive")
    api_code = _API_CODES[api]

    def phase(ctx: WorkloadContext) -> OpBlock:
        n = ctx.nprocs
        ranks = np.arange(n)
        i, r = _rounds(count_per_rank, ranks)
        writes = OpBlock(
            (path,), _WRITE, api_code, r, offset=(i * n + r) * record_bytes, size=record_bytes
        )
        return _framed((path,), api_code, ranks, np.zeros(n, dtype=np.int64), writes)

    return phase


@_factory
def metadata_churn_phase(
    directory: str,
    files_per_rank: int,
    *,
    cycles: int = 2,
    with_stat: bool = True,
    api: str = "posix",
) -> PhaseFn:
    """A create/stat/unlink-style flood: every file is reopened ``cycles``
    extra times after creation.

    Models checkpoint-cleanup and staging scripts that churn the metadata
    server with open/stat/close cycles carrying no data at all.
    """
    if cycles < 0:
        raise ValueError("cycles must be non-negative")
    api_code = _API_CODES[api]
    per_file = [_OPEN, _STAT, _CLOSE] if with_stat else [_OPEN, _CLOSE]

    def phase(ctx: WorkloadContext) -> OpBlock:
        paths = _per_file_paths(directory, ctx.nprocs, files_per_rank)
        passes = 1 + cycles
        return OpBlock(
            paths,
            np.tile(per_file, len(paths) * passes),
            api_code,
            np.tile(np.repeat(np.arange(ctx.nprocs), files_per_rank * len(per_file)), passes),
            np.tile(np.repeat(np.arange(len(paths)), len(per_file)), passes),
        )

    return phase


@_factory
def checkpoint_burst_phase(
    path: str,
    xfer: int,
    writes_per_burst: int,
    bursts: int,
    *,
    compute_seconds: float = 10.0,
    api: str = "mpiio",
    sync_each_burst: bool = True,
) -> PhaseFn:
    """Bursty N-to-1 checkpointing: write bursts separated by compute.

    Every burst, each rank appends ``writes_per_burst`` requests to its own
    contiguous segment of the shared checkpoint file, optionally syncs, then
    computes for ``compute_seconds`` before the next burst — the classic
    defensive-I/O timeline (quiet, spike, quiet, spike).
    """
    api_code = _API_CODES[api]
    tail = ([_SYNC] if sync_each_burst else []) + ([_COMPUTE] if compute_seconds > 0 else [])

    def phase(ctx: WorkloadContext) -> OpBlock:
        n = ctx.nprocs
        paths = (path, "")  # compute names no file
        ranks = np.arange(n)
        seg = writes_per_burst * xfer
        i, r = _rounds(writes_per_burst, ranks)
        burst = np.repeat(np.arange(bursts), i.size)
        i, r = np.tile(i, bursts), np.tile(r, bursts)
        writes = OpBlock(
            paths, _WRITE, api_code, r, offset=(burst * n + r) * seg + i * xfer, size=xfer
        )
        # After each burst, rank by rank: its sync, then its compute (none
        # after the last burst).
        kinds = np.tile(np.array(tail, dtype=np.int64), n * bursts)
        after = np.repeat(np.arange(bursts), n * len(tail))
        keep = (kinds != _COMPUTE) | (after < bursts - 1)
        kinds, after = kinds[keep], after[keep]
        stalls = kinds == _COMPUTE
        tails = OpBlock(
            paths,
            kinds,
            api_code,
            np.tile(np.repeat(ranks, len(tail)), bursts)[keep],
            stalls,
            duration=np.where(stalls, compute_seconds, 0.0),
        )
        body = _in_order([writes, tails], [2 * burst, 2 * after + 1])
        return _framed(paths, api_code, ranks, np.zeros(n, dtype=np.int64), body)

    return phase


@_factory
def read_modify_write_phase(
    path: str,
    record_bytes: int,
    count_per_rank: int,
    *,
    api: str = "posix",
    layout: str = "fpp",
) -> PhaseFn:
    """Per record: read it, then write it back at the same offset.

    The write can never be sequential (its offset sits *before* the read's
    end), so read-modify-write shows up as heavy ``RW_SWITCHES`` plus a
    non-sequential write stream — exactly how an update-in-place workload
    looks in Darshan.
    """
    api_code = _API_CODES[api]

    def phase(ctx: WorkloadContext) -> OpBlock:
        n = ctx.nprocs
        paths, where = _rank_files(path, layout, n)
        ranks = np.arange(n)
        i, r = _rounds(count_per_rank, ranks)
        offset = (i * n + r) * record_bytes if layout == "shared" else i * record_bytes
        pairs = OpBlock(
            paths,
            np.tile([_READ, _WRITE], r.size),
            api_code,
            np.repeat(r, 2),
            np.repeat(where[r], 2),
            offset=np.repeat(offset, 2),
            size=record_bytes,
        )
        return _framed(paths, api_code, ranks, where, pairs)

    return phase


@_factory
def fsync_per_write_phase(
    path: str,
    xfer: int,
    count_per_rank: int,
    *,
    api: str = "posix",
    layout: str = "fpp",
) -> PhaseFn:
    """Every write is followed by its own fsync.

    Models paranoid durability (databases, naive logging): the sync flood
    turns a bandwidth problem into a metadata/commit-latency problem, with
    ``POSIX_FSYNCS`` tracking ``POSIX_WRITES`` one-for-one.
    """
    api_code = _API_CODES[api]

    def phase(ctx: WorkloadContext) -> OpBlock:
        n = ctx.nprocs
        paths, where = _rank_files(path, layout, n)
        ranks = np.arange(n)
        i, r = _rounds(count_per_rank, ranks)
        offset = (i * n + r) * xfer if layout == "shared" else i * xfer
        kinds = np.tile([_WRITE, _SYNC], r.size)
        writing = kinds == _WRITE
        pairs = OpBlock(
            paths,
            kinds,
            api_code,
            np.repeat(r, 2),
            np.repeat(where[r], 2),
            offset=np.where(writing, np.repeat(offset, 2), 0),
            size=np.where(writing, xfer, 0),
        )
        return _framed(paths, api_code, ranks, where, pairs)

    return phase


@_factory
def straggler_phase(
    path: str,
    xfer: int,
    count_per_rank: int,
    *,
    straggler_rank: int = 0,
    slow_factor: int = 64,
    api: str = "mpiio",
) -> PhaseFn:
    """One rank moves the same volume as its peers, but in tiny pieces.

    Every rank writes ``count_per_rank * xfer`` bytes into its segment of a
    shared file; ``straggler_rank`` issues each request as ``slow_factor``
    sub-requests of ``xfer / slow_factor`` bytes.  Byte volume stays
    perfectly balanced while per-op latency makes the straggler's I/O time
    dominate — the signature lives in ``*_F_SLOWEST_RANK_TIME``, not in the
    byte counters.
    """
    if slow_factor < 1 or xfer % slow_factor != 0:
        raise ValueError("slow_factor must divide xfer")
    api_code = _API_CODES[api]

    def phase(ctx: WorkloadContext) -> OpBlock:
        n = ctx.nprocs
        ranks = np.arange(n)
        small = xfer // slow_factor
        i, r = _rounds(count_per_rank, ranks)
        slow = r == straggler_rank
        pieces = np.where(slow, slow_factor, 1)
        # Request (i, r) as its pieces: piece j at base + j * small.
        j = np.arange(pieces.sum()) - np.repeat(np.cumsum(pieces) - pieces, pieces)
        base = (r * count_per_rank + i) * xfer
        writes = OpBlock(
            (path,),
            _WRITE,
            api_code,
            np.repeat(r, pieces),
            offset=np.repeat(base, pieces) + j * small,
            size=np.repeat(np.where(slow, small, xfer), pieces),
        )
        return _framed((path,), api_code, ranks, np.zeros(n, dtype=np.int64), writes)

    return phase


@_factory
def compute_straggler_phase(
    path: str,
    xfer: int,
    count_per_rank: int,
    *,
    straggler_rank: int = 0,
    stall_seconds: float = 0.5,
    api: str = "mpiio",
) -> PhaseFn:
    """A straggler whose imbalance is invisible even to time counters.

    Every rank writes identical request counts and sizes into its segment
    of a shared file, but ``straggler_rank`` interleaves a compute stall
    before each of its requests (slow preprocessing, NUMA contention, a
    noisy neighbour on its node).  Byte counters stay balanced *and* the
    per-rank I/O-time counters stay balanced — compute never reaches
    Darshan — so the straggler exists only in the DXT timeline, where the
    slow rank's I/O window stretches far past its peers'.
    """
    api_code = _API_CODES[api]

    def phase(ctx: WorkloadContext) -> OpBlock:
        n = ctx.nprocs
        paths = (path, "")  # compute names no file
        ranks = np.arange(n)
        i, r = _rounds(count_per_rank, ranks)
        # The straggler's request (i, r) is a stall, then the write.
        pieces = np.where(r == straggler_rank, 2, 1)
        last = np.cumsum(pieces) - 1
        stall = np.ones(last[-1] + 1 if last.size else 0, dtype=bool)
        stall[last] = False
        rows = np.repeat(np.arange(r.size), pieces)
        body = OpBlock(
            paths,
            np.where(stall, _COMPUTE, _WRITE),
            api_code,
            r[rows],
            stall,
            offset=np.where(stall, 0, (r * count_per_rank + i)[rows] * xfer),
            size=np.where(stall, 0, xfer),
            duration=np.where(stall, stall_seconds, 0.0),
        )
        return _framed(paths, api_code, ranks, np.zeros(n, dtype=np.int64), body)

    return phase


@_factory
def lock_convoy_phase(
    path: str,
    xfer: int,
    rounds: int,
    *,
    api: str = "mpiio",
) -> PhaseFn:
    """Extent-lock convoy: shared-file writers proceed one rank at a time.

    Each round the write "token" passes around all ranks — modelled with a
    job-wide barrier before every write, the way an extent-lock handoff
    serializes writers on real Lustre.  Per-rank bytes, op counts, and
    even per-rank I/O times stay perfectly balanced; what collapses is
    concurrency, visible only in the DXT timeline (mean operations in
    flight ~= 1 despite every rank being active).
    """
    api_code = _API_CODES[api]

    def phase(ctx: WorkloadContext) -> OpBlock:
        n = ctx.nprocs
        paths = (path, "")  # barriers name no file
        ranks = np.arange(n)
        i, r = _rounds(rounds, ranks)
        # Each write waits for the lock handoff: a barrier (rank 0, POSIX,
        # as repro.sim.ops.barrier() builds it), then the write.
        handoff = np.tile([True, False], r.size)
        body = OpBlock(
            paths,
            np.where(handoff, _BARRIER, _WRITE),
            np.where(handoff, _POSIX, api_code),
            np.where(handoff, 0, np.repeat(r, 2)),
            handoff,
            offset=np.where(handoff, 0, np.repeat((r * rounds + i) * xfer, 2)),
            size=np.where(handoff, 0, xfer),
        )
        return _framed(paths, api_code, ranks, np.zeros(n, dtype=np.int64), body)

    return phase


@_factory
def interference_stall_phase(
    path: str,
    xfer: int,
    writes_per_window: int,
    stalls: int,
    *,
    stall_seconds: float = 0.6,
    api: str = "posix",
) -> PhaseFn:
    """Healthy sequential I/O repeatedly frozen by external interference.

    Every rank streams large sequential writes to its own file — textbook
    clean, and the counters say so — but ``stalls`` times during the run
    the whole job pauses for ``stall_seconds`` (another job saturating the
    shared OSTs, fabric congestion, a metadata server hiccup).  The
    repeated mid-run gaps exist only in the DXT timeline.
    """
    api_code = _API_CODES[api]

    def phase(ctx: WorkloadContext) -> OpBlock:
        n = ctx.nprocs
        files, where = _rank_files(path, "fpp", n)
        paths = (*files, "")  # the stalls name no file
        ranks = np.arange(n)
        k, r = _rounds((stalls + 1) * writes_per_window, ranks)
        writes = OpBlock(paths, _WRITE, api_code, r, where[r], offset=k * xfer, size=xfer)
        # After every window but the last, each rank stalls.
        window, stalled = _rounds(stalls, ranks)
        pauses = OpBlock(paths, _COMPUTE, api_code, stalled, len(files), duration=stall_seconds)
        body = _in_order([writes, pauses], [k // max(writes_per_window, 1), window])
        return _framed(paths, api_code, ranks, where, body)

    return phase


@_factory
def producer_consumer_phase(
    path: str,
    xfer: int,
    rounds: int,
    items_per_round: int,
    *,
    api: str = "mpiio",
) -> PhaseFn:
    """Strict producer/consumer hand-off over a shared staging file.

    The first half of the ranks write a round's worth of data, a barrier
    hands it off, the second half read it back, another barrier closes the
    round.  Each group idles while the other works — half the job's wall
    time is spent stalled — yet the counters only see a balanced mix of
    reads and writes on one shared file.  The alternating stall pattern
    lives purely in the DXT timeline.
    """
    api_code = _API_CODES[api]

    def phase(ctx: WorkloadContext) -> OpBlock:
        n = ctx.nprocs
        paths = (path, "")  # barriers name no file
        half = max(1, n // 2)
        producers = np.arange(half)
        consumers = np.arange(half, n)

        def turns(ranks: np.ndarray) -> tuple[np.ndarray, ...]:
            """For each round, for each item, for each of ``ranks``."""
            i, r = _rounds(items_per_round, ranks)
            return np.repeat(np.arange(rounds), i.size), np.tile(i, rounds), np.tile(r, rounds)

        w_round, w_item, w_rank = turns(producers)
        writes = OpBlock(
            paths,
            _WRITE,
            api_code,
            w_rank,
            offset=((w_round * half + w_rank) * items_per_round + w_item) * xfer,
            size=xfer,
        )
        r_round, r_item, r_rank = turns(consumers)
        reads = OpBlock(
            paths,
            _READ,
            api_code,
            r_rank,
            offset=((r_round * half + (r_rank - half) % half) * items_per_round + r_item) * xfer,
            size=xfer,
        )
        # Consumers may not read before the data exists; producers reuse
        # the buffers next round.
        barriers = OpBlock(paths, _BARRIER, _POSIX, np.zeros(2 * rounds, dtype=np.int64), 1)
        each = np.arange(rounds)
        body = _in_order(
            [writes, reads, barriers],
            [4 * w_round, 4 * r_round + 2, np.concatenate([4 * each + 1, 4 * each + 3])],
        )
        ranks = np.arange(n)
        return _framed(paths, api_code, ranks, np.zeros(n, dtype=np.int64), body)

    return phase


@_factory
def stdio_phase(
    path: str,
    direction: str,
    xfer: int,
    count_per_rank: int,
    *,
    layout: str = "fpp",
    ranks: Iterable[int] | None = None,
) -> PhaseFn:
    """Bulk I/O through the STDIO interface (Low-Level Library issue)."""
    if direction not in ("read", "write"):
        raise ValueError("direction must be 'read' or 'write'")
    kind = _READ if direction == "read" else _WRITE
    per_rank = [_OPEN] + [kind] * count_per_rank + [_SYNC, _CLOSE]

    def phase(ctx: WorkloadContext) -> OpBlock:
        use_ranks = np.array(
            list(ranks) if ranks is not None else range(ctx.nprocs), dtype=np.int64
        )
        paths, where = _rank_files(path, layout, ctx.nprocs)
        # Rank after rank: open, the requests in order, flush, close.
        kinds = np.tile(per_rank, use_ranks.size)
        step = np.tile(np.arange(len(per_rank)) - 1, use_ranks.size)
        writer = np.repeat(use_ranks, len(per_rank))
        moving = kinds == kind
        return OpBlock(
            paths,
            kinds,
            _STDIO,
            writer,
            where[writer],
            offset=np.where(moving, step * xfer, 0),
            size=np.where(moving, xfer, 0),
        )

    return phase
