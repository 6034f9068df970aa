"""Typed I/O operations issued by workloads and executed by the runtime.

An operation stream is the ground truth of an application's I/O behaviour;
Darshan counters are a lossy projection of it.  One operation is an
:class:`IOOp`; one phase's operations, in issue order, are an
:class:`OpBlock`: the same fields as numpy columns, which is what every
built-in phase emits and what the runtime times.  The runtime executes
blocks (and bare :class:`IOOp` s, batched into blocks on entry) in
rank-interleaved program order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "API",
    "OpKind",
    "IOOp",
    "OpBlock",
    "KIND_CODE",
    "API_CODE",
    "APIS",
    "COLLECTIVE",
    "NONBLOCKING",
    "MEM_NOT_ALIGNED",
    "compute",
    "barrier",
]


class API(str, enum.Enum):
    """The I/O interface an operation goes through (Darshan module)."""

    POSIX = "POSIX"
    MPIIO = "MPIIO"
    STDIO = "STDIO"


class OpKind(str, enum.Enum):
    """Operation kinds the runtime knows how to execute and time."""

    OPEN = "open"
    READ = "read"
    WRITE = "write"
    SEEK = "seek"
    STAT = "stat"
    SYNC = "sync"
    CLOSE = "close"
    COMPUTE = "compute"  # advances the rank clock without touching the FS
    BARRIER = "barrier"  # synchronizes every rank's clock (MPI_Barrier)


# Kinds that Darshan counts as metadata operations.
METADATA_KINDS = frozenset({OpKind.OPEN, OpKind.SEEK, OpKind.STAT, OpKind.SYNC, OpKind.CLOSE})

# Column codes: an op's kind and api as small integers (declaration order).
KINDS: tuple[OpKind, ...] = tuple(OpKind)
APIS: tuple[API, ...] = tuple(API)
KIND_CODE: dict[OpKind, int] = {kind: code for code, kind in enumerate(KINDS)}
API_CODE: dict[API, int] = {api: code for code, api in enumerate(APIS)}

# Flag bits of an op's boolean fields.
COLLECTIVE = 1
NONBLOCKING = 2
MEM_NOT_ALIGNED = 4

_READ = KIND_CODE[OpKind.READ]
_WRITE = KIND_CODE[OpKind.WRITE]
_MPIIO = API_CODE[API.MPIIO]


@dataclass(slots=True)
class IOOp:
    """One I/O call issued by one rank.

    ``offset``/``size`` are in bytes and only meaningful for READ/WRITE
    (and SEEK's target offset).  ``collective`` marks MPI-IO collective
    calls; the runtime lowers them through two-phase collective buffering.
    ``mem_aligned`` models whether the user buffer is aligned to the
    memory alignment Darshan checks (``POSIX_MEM_NOT_ALIGNED``).
    ``duration`` is only used by COMPUTE ops.
    """

    kind: OpKind
    api: API
    rank: int
    path: str = ""
    offset: int = 0
    size: int = 0
    collective: bool = False
    nonblocking: bool = False
    mem_aligned: bool = True
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be non-negative, got {self.rank}")
        if self.size < 0 or self.offset < 0:
            raise ValueError("offset/size must be non-negative")
        if self.kind in (OpKind.READ, OpKind.WRITE) and not self.path:
            raise ValueError("data operations require a path")
        if self.collective and self.api is not API.MPIIO:
            raise ValueError("only MPI-IO operations can be collective")

    @property
    def end_offset(self) -> int:
        """First byte past the extent this operation touches."""
        return self.offset + self.size


# Column names of a block and the dtypes they hold.
_COLUMNS = ("kind", "api", "flags", "rank", "path", "offset", "size", "duration")
_DTYPES = (np.uint8, np.uint8, np.uint8, np.int64, np.int64, np.int64, np.int64, np.float64)


class OpBlock:
    """One phase's issued ops as numpy columns, in issue order.

    ``kind`` and ``api`` hold :data:`KIND_CODE` / :data:`API_CODE` codes,
    ``flags`` the :data:`COLLECTIVE`, :data:`NONBLOCKING` and
    :data:`MEM_NOT_ALIGNED` bits, ``path`` an index into the ``paths``
    tuple, and ``rank``, ``offset``, ``size`` and ``duration`` what the
    :class:`IOOp` fields of those names hold.  Any column may be given as
    a scalar, which broadcasts to the length of the others.  The block is
    checked on construction with :class:`IOOp`'s rules and messages, and
    iterating it yields its ops as :class:`IOOp` s.
    """

    __slots__ = ("paths", *_COLUMNS)

    paths: tuple[str, ...]
    kind: np.ndarray
    api: np.ndarray
    flags: np.ndarray
    rank: np.ndarray
    path: np.ndarray
    offset: np.ndarray
    size: np.ndarray
    duration: np.ndarray

    def __init__(
        self,
        paths: Iterable[str],
        kind,
        api,
        rank,
        path=0,
        offset=0,
        size=0,
        flags=0,
        duration=0.0,
    ) -> None:
        given = [np.asarray(c) for c in (kind, api, flags, rank, path, offset, size, duration)]
        lengths = {c.shape for c in given if c.ndim}
        if len(lengths) > 1 or any(len(shape) != 1 for shape in lengths):
            raise ValueError("op block columns must be scalars or 1-D arrays of one length")
        n = lengths.pop()[0] if lengths else 1
        self.paths = tuple(paths)
        for name, dtype, column in zip(_COLUMNS, _DTYPES, given):
            column = np.full(n, column, dtype=dtype) if column.ndim == 0 else column.astype(dtype)
            setattr(self, name, column)
        self._check()

    @classmethod
    def _of(cls, paths: tuple[str, ...], columns: Iterable[np.ndarray]) -> OpBlock:
        """A block over columns that are already typed and checked."""
        block = cls.__new__(cls)
        block.paths = paths
        for name, column in zip(_COLUMNS, columns):
            setattr(block, name, column)
        return block

    @classmethod
    def from_ops(cls, ops: Iterable[IOOp]) -> OpBlock:
        """The block of ``ops``, paths numbered in first-seen order."""
        ops = list(ops)
        index: dict[str, int] = {}
        path = [index.setdefault(op.path, len(index)) for op in ops]
        return cls(
            tuple(index),
            [KIND_CODE[op.kind] for op in ops],
            [API_CODE[op.api] for op in ops],
            [op.rank for op in ops],
            path,
            [op.offset for op in ops],
            [op.size for op in ops],
            [
                (COLLECTIVE if op.collective else 0)
                | (NONBLOCKING if op.nonblocking else 0)
                | (0 if op.mem_aligned else MEM_NOT_ALIGNED)
                for op in ops
            ],
            [op.duration for op in ops],
        )

    @classmethod
    def concat(cls, blocks: Iterable[OpBlock]) -> OpBlock:
        """One block of ``blocks``' ops in order; they must share one ``paths``."""
        blocks = list(blocks)
        if not blocks:
            raise ValueError("concat needs at least one block")
        paths = blocks[0].paths
        if any(b.paths != paths for b in blocks[1:]):
            raise ValueError("concatenated blocks must share one paths tuple")
        return cls._of(
            paths, [np.concatenate([getattr(b, name) for b in blocks]) for name in _COLUMNS]
        )

    def take(self, rows: np.ndarray) -> OpBlock:
        """The block of the ops at ``rows``, in that order."""
        return OpBlock._of(self.paths, [getattr(self, name)[rows] for name in _COLUMNS])

    def _check(self) -> None:
        n_paths = len(self.paths)
        if len(self) and (
            int(self.kind.max()) >= len(KINDS)
            or int(self.api.max()) >= len(APIS)
            or int(self.path.min()) < 0
            or int(self.path.max()) >= n_paths
        ):
            raise ValueError("op block codes out of range")
        flags = self.flags
        bad = (
            (self.rank < 0)
            | (self.offset < 0)
            | (self.size < 0)
            | (((flags & COLLECTIVE) != 0) & (self.api != _MPIIO))
        )
        if "" in self.paths:
            unnamed = np.array([not p for p in self.paths])[self.path]
            bad |= unnamed & ((self.kind == _READ) | (self.kind == _WRITE))
        if bad.any():
            self[int(np.argmax(bad))]  # IOOp's own check raises that op's message

    def __len__(self) -> int:
        return int(self.kind.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpBlock(n={len(self)}, paths={len(self.paths)})"

    def __getitem__(self, i: int) -> IOOp:
        flags = int(self.flags[i])
        return IOOp(
            KINDS[self.kind[i]],
            APIS[self.api[i]],
            int(self.rank[i]),
            self.paths[self.path[i]],
            int(self.offset[i]),
            int(self.size[i]),
            bool(flags & COLLECTIVE),
            bool(flags & NONBLOCKING),
            not flags & MEM_NOT_ALIGNED,
            float(self.duration[i]),
        )

    def __iter__(self) -> Iterator[IOOp]:
        kinds, apis, paths = KINDS, APIS, self.paths
        for k, a, f, r, p, o, s, d in zip(*(getattr(self, n).tolist() for n in _COLUMNS)):
            yield IOOp(
                kinds[k],
                apis[a],
                r,
                paths[p],
                o,
                s,
                bool(f & COLLECTIVE),
                bool(f & NONBLOCKING),
                not f & MEM_NOT_ALIGNED,
                d,
            )


def compute(rank: int, seconds: float) -> IOOp:
    """Convenience constructor for a compute phase on ``rank``."""
    return IOOp(kind=OpKind.COMPUTE, api=API.POSIX, rank=rank, duration=seconds)


def barrier() -> IOOp:
    """Convenience constructor for a job-wide barrier.

    Like COMPUTE, a barrier never reaches the filesystem or the op table —
    MPI synchronization is invisible to Darshan — but it aligns every
    rank's clock, which is how workloads model cross-rank dependencies
    (producer/consumer handoffs, lock-token passing) whose cost shows up
    only in the time domain.
    """
    return IOOp(kind=OpKind.BARRIER, api=API.POSIX, rank=0)
