"""Typed I/O operations issued by workloads and executed by the runtime.

An operation stream is the ground truth of an application's I/O behaviour;
Darshan counters are a lossy projection of it.  Workloads build lists of
:class:`IOOp`; the runtime executes them in rank-interleaved program order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["API", "OpKind", "IOOp", "compute", "barrier"]


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
