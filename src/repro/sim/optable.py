"""The executed-op table: every operation one run executed, as columns.

:class:`~repro.sim.runtime.IORuntime` writes one row per executed op,
in execution order: the ops a workload issued plus the POSIX ops the
runtime lowered MPI-IO to (the 1:1 twin of an independent transfer,
the aggregator chunks of a collective one). COMPUTE and BARRIER only
move clocks and leave no row. The Darshan instrumentation reduces the
table to counters, and the DXT collector takes its data rows as
segments, both with array kernels instead of one callback per op.

Columns (equal length): ``kind`` and ``api`` (uint8 codes from
:data:`KIND_CODE` and :data:`API_CODE`; :data:`APIS` decodes an api
code), ``flags`` (uint8 bits, see :data:`COLLECTIVE` ...), ``rank`` and
``path`` (int32; ``path`` indexes ``paths``, interned in first-seen
order), ``offset`` and ``size`` (int64), ``start`` and ``end`` (float64
seconds). ``fs`` is the filesystem the rows flagged :data:`IN_FS` live
on.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.sim.filesystem import LustreFileSystem
from repro.sim.ops import (
    API_CODE,
    APIS,
    COLLECTIVE,
    KIND_CODE,
    MEM_NOT_ALIGNED,
    NONBLOCKING,
    IOOp,
    OpKind,
)

__all__ = [
    "APIS",
    "KIND_CODE",
    "API_CODE",
    "COLLECTIVE",
    "NONBLOCKING",
    "MEM_NOT_ALIGNED",
    "IN_FS",
    "OpTable",
    "OpTableBuilder",
]

# Flag bits: an op's own (COLLECTIVE, NONBLOCKING, MEM_NOT_ALIGNED, from
# repro.sim.ops) plus IN_FS, which marks a path under the filesystem's
# mount point: its record names that mount and, on Lustre, the row has a
# serving OST.
IN_FS = 8

# Column names and the array typecodes their buffers use.
_COLUMNS = ("kind", "api", "flags", "rank", "path", "offset", "size", "start", "end")
_TYPECODES = ("B", "B", "B", "i", "i", "q", "q", "d", "d")


class OpTable:
    """Immutable executed-op columns of one run (see the module docstring)."""

    __slots__ = ("paths", "fs", *_COLUMNS)

    kind: np.ndarray
    api: np.ndarray
    flags: np.ndarray
    rank: np.ndarray
    path: np.ndarray
    offset: np.ndarray
    size: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def __init__(
        self,
        paths: tuple[str, ...],
        fs: LustreFileSystem | None,
        columns: dict[str, np.ndarray],
    ) -> None:
        self.paths = paths
        self.fs = fs
        for name in _COLUMNS:
            setattr(self, name, columns[name])

    def __len__(self) -> int:
        return int(self.kind.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpTable(n={len(self)}, paths={len(self.paths)})"

    def data_rows(self) -> np.ndarray:
        """Indices of the READ and WRITE rows, in execution order."""
        kind = self.kind
        return np.flatnonzero(
            (kind == KIND_CODE[OpKind.READ]) | (kind == KIND_CODE[OpKind.WRITE])
        )


class OpTableBuilder:
    """Append-only typed column buffers that :meth:`build` an :class:`OpTable`.

    :meth:`extend` takes many rows as whole columns (the runtime hands
    over one block's rows at a time); :meth:`append` takes one
    :class:`IOOp` plus the filesystem the op's path lives on, the
    arguments an instrument's ``on_op`` gets.
    ``build`` hands the filled buffers to the table without copying and
    starts new ones, so rows added later land in the next table.
    """

    __slots__ = ("fs", "_paths", "_buffers", "_appends", "_parts")

    def __init__(self, fs: LustreFileSystem | None = None) -> None:
        self.fs = fs
        self._paths: dict[str, int] = {}
        self._parts: list[tuple[np.ndarray, ...]] = []
        self._open()

    def _open(self) -> None:
        self._buffers = tuple(array(code) for code in _TYPECODES)
        self._appends = tuple(buffer.append for buffer in self._buffers)

    def extend(self, *columns: np.ndarray) -> None:
        """Append rows given as whole columns, in the table's column order.

        ``path`` holds codes from :meth:`path_code`.
        """
        self._flush()
        self._parts.append(tuple(np.asarray(c, dtype=code) for c, code in zip(columns, _TYPECODES)))

    def _flush(self) -> None:
        """Move the rows added one at a time into a part of their own."""
        if len(self._buffers[0]):
            self._parts.append(tuple(np.frombuffer(b, dtype=b.typecode) for b in self._buffers))
            self._open()

    def __len__(self) -> int:
        return len(self._buffers[0]) + sum(part[0].size for part in self._parts)

    def path_code(self, path: str) -> int:
        """The code of ``path``, interning it on first sight."""
        code = self._paths.get(path)
        if code is None:
            code = self._paths[path] = len(self._paths)
        return code

    def append(
        self, op: IOOp, t_start: float, t_end: float, fs: LustreFileSystem | None
    ) -> None:
        """Append ``op`` executed over ``[t_start, t_end]``.

        ``fs`` is the filesystem holding ``op.path``, ``None`` when the
        path lies outside every mount (what observers were handed).
        """
        flags = (
            (COLLECTIVE if op.collective else 0)
            | (NONBLOCKING if op.nonblocking else 0)
            | (0 if op.mem_aligned else MEM_NOT_ALIGNED)
        )
        if fs is not None:
            flags |= IN_FS
            self.fs = fs
        row = (
            KIND_CODE[op.kind],
            API_CODE[op.api],
            flags,
            op.rank,
            self.path_code(op.path),
            op.offset,
            op.size,
            t_start,
            t_end,
        )
        for push, value in zip(self._appends, row):
            push(value)

    def build(self) -> OpTable:
        """Every row added so far, as a table."""
        self._flush()
        if len(self._parts) > 1:
            self._parts[:] = [tuple(np.concatenate(c) for c in zip(*self._parts))]
        if self._parts:
            columns = dict(zip(_COLUMNS, self._parts[0]))
        else:
            columns = {
                name: np.empty(0, dtype=code) for name, code in zip(_COLUMNS, _TYPECODES)
            }
        return OpTable(tuple(self._paths), self.fs, columns)
