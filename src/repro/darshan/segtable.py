"""Columnar DXT segment storage (structure-of-arrays).

Real DXT tooling (the DXT-explorer lineage) operates on per-segment
*tables*, not per-segment objects: at the segment counts DXT produces
(every data operation of every rank), per-object Python iteration is the
bottleneck long before the analysis itself is.  This module provides that
representation:

* :class:`SegmentTable` — one numpy array per field (``rank``, ``offset``,
  ``length``, ``start``, ``end``) plus interned code columns for the
  string-valued fields (``module`` / ``path`` / ``operation``), each code
  indexing a shared string dictionary.  The table is also a
  ``Sequence[DxtSegment]``, so consumers that want per-segment objects
  (tests, text rendering, debugging) still get them — lazily.
* :class:`SegmentTableBuilder` — chunked column buffers with O(1)
  amortized ``append`` and no per-operation object allocation, for
  callers that build a table row by row or column by column (the DXT
  text parser, :meth:`SegmentTable.from_segments`).

The vectorized temporal kernels in :mod:`repro.darshan.dxt` consume the
columns directly; everything else can keep treating the table as the old
``list[DxtSegment]``.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

__all__ = [
    "DxtSegment",
    "SegmentTable",
    "SegmentTableBuilder",
    "as_table",
    "OPERATIONS",
    "NO_OST",
]

# The operation dictionary is closed (DXT segments are data ops only), so
# every table shares it and the codes are stable across processes.
OPERATIONS: tuple[str, ...] = ("read", "write")
READ_CODE = 0
WRITE_CODE = 1
_OP_CODES = {"read": READ_CODE}

# The ``ost`` column's "unattributed" code: segments from parsed text
# traces or from paths outside the simulated mount carry no server id,
# exactly like real DXT segments captured on a non-Lustre filesystem.
NO_OST = -1

_CHUNK = 65536


@dataclass(frozen=True, slots=True)
class DxtSegment:
    """One traced I/O operation (a DXT_POSIX / DXT_MPIIO segment).

    ``ost`` is the serving-OST attribution (real Lustre DXT records the
    OST list per segment); ``None`` when the trace carries no server info.
    """

    module: str  # 'X_POSIX' | 'X_MPIIO' | 'X_STDIO'
    rank: int
    path: str
    operation: str  # 'read' | 'write'
    offset: int
    length: int
    start_time: float
    end_time: float
    ost: int | None = None

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


def _dictionary_bytes(*dictionaries: Sequence[str]) -> bytes:
    """Stable encoding of the string dictionaries for content digests.

    Shared by every digest over segment data (the table digest and, via
    :func:`repro.darshan.dxt.dxt_digest`, the service-cache key): entries
    joined by ``|`` within a dictionary, dictionaries separated by NUL.
    """
    return "\x00".join("|".join(d) for d in dictionaries).encode("utf-8", "surrogatepass")


class SegmentTable(Sequence):
    """Immutable structure-of-arrays segment store.

    Columns (all 1-D, equal length): ``module_code`` (uint8 into
    ``modules``), ``rank`` (int64), ``path_code`` (int32 into ``paths``),
    ``op_code`` (uint8 into :data:`OPERATIONS`), ``offset`` / ``length``
    (int64), ``start`` / ``end`` (float64), ``ost`` (int32 OST id, with
    :data:`NO_OST` marking unattributed segments).  Dictionary codes are
    assigned in first-appearance order, so grouped reductions over codes
    see files and modules in the same order the old per-object sweeps did.
    """

    __slots__ = (
        "modules",
        "paths",
        "module_code",
        "path_code",
        "op_code",
        "rank",
        "offset",
        "length",
        "start",
        "end",
        "ost",
    )

    operations = OPERATIONS

    def __init__(
        self,
        *,
        modules: tuple[str, ...],
        paths: tuple[str, ...],
        module_code: np.ndarray,
        path_code: np.ndarray,
        op_code: np.ndarray,
        rank: np.ndarray,
        offset: np.ndarray,
        length: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        ost: np.ndarray,
    ) -> None:
        self.modules = modules
        self.paths = paths
        self.module_code = module_code
        self.path_code = path_code
        self.op_code = op_code
        self.rank = rank
        self.offset = offset
        self.length = length
        self.start = start
        self.end = end
        self.ost = ost

    # -- construction -------------------------------------------------------

    @classmethod
    def empty(cls) -> "SegmentTable":
        return cls(
            modules=(),
            paths=(),
            module_code=np.empty(0, dtype=np.uint8),
            path_code=np.empty(0, dtype=np.int32),
            op_code=np.empty(0, dtype=np.uint8),
            rank=np.empty(0, dtype=np.int64),
            offset=np.empty(0, dtype=np.int64),
            length=np.empty(0, dtype=np.int64),
            start=np.empty(0, dtype=np.float64),
            end=np.empty(0, dtype=np.float64),
            ost=np.empty(0, dtype=np.int32),
        )

    @classmethod
    def from_segments(cls, segments) -> "SegmentTable":
        """Build a table from an iterable of :class:`DxtSegment`."""
        builder = SegmentTableBuilder()
        for seg in segments:
            builder.append(
                seg.module,
                seg.rank,
                seg.path,
                seg.operation,
                seg.offset,
                seg.length,
                seg.start_time,
                seg.end_time,
                seg.ost,
            )
        return builder.build()

    # -- Sequence[DxtSegment] view ------------------------------------------

    def __len__(self) -> int:
        return int(self.rank.size)

    def __getitem__(self, index: int | slice) -> "DxtSegment | SegmentTable":
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        i = int(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(index)
        ost = int(self.ost[i])
        return DxtSegment(
            module=self.modules[int(self.module_code[i])],
            rank=int(self.rank[i]),
            path=self.paths[int(self.path_code[i])],
            operation=OPERATIONS[int(self.op_code[i])],
            offset=int(self.offset[i]),
            length=int(self.length[i]),
            start_time=float(self.start[i]),
            end_time=float(self.end[i]),
            ost=None if ost == NO_OST else ost,
        )

    def __iter__(self) -> "Iterator[DxtSegment]":
        # Materialize the columns once; much faster than per-index __getitem__.
        modules, paths = self.modules, self.paths
        rows = zip(
            self.module_code.tolist(),
            self.rank.tolist(),
            self.path_code.tolist(),
            self.op_code.tolist(),
            self.offset.tolist(),
            self.length.tolist(),
            self.start.tolist(),
            self.end.tolist(),
            self.ost.tolist(),
        )
        for m, rank, p, o, offset, length, start, end, ost in rows:
            yield DxtSegment(
                module=modules[m],
                rank=rank,
                path=paths[p],
                operation=OPERATIONS[o],
                offset=offset,
                length=length,
                start_time=start,
                end_time=end,
                ost=None if ost == NO_OST else ost,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SegmentTable(n={len(self)}, modules={len(self.modules)}, "
            f"paths={len(self.paths)})"
        )

    # -- columnar operations -------------------------------------------------

    @property
    def durations(self) -> np.ndarray:
        return self.end - self.start

    def take(self, selector) -> "SegmentTable":
        """Row subset (boolean mask or index array), sharing dictionaries."""
        return SegmentTable(
            modules=self.modules,
            paths=self.paths,
            module_code=self.module_code[selector],
            path_code=self.path_code[selector],
            op_code=self.op_code[selector],
            rank=self.rank[selector],
            offset=self.offset[selector],
            length=self.length[selector],
            start=self.start[selector],
            end=self.end[selector],
            ost=self.ost[selector],
        )

    def without_ost(self) -> "SegmentTable":
        """The same timeline with server attribution removed.

        Models a pre-attribution trace (legacy exports, non-Lustre
        deployments): every row keeps its timing but carries
        :data:`NO_OST`.  Tests and benchmarks use it to isolate what the
        ost column alone contributes.
        """
        return SegmentTable(
            modules=self.modules,
            paths=self.paths,
            module_code=self.module_code,
            path_code=self.path_code,
            op_code=self.op_code,
            rank=self.rank,
            offset=self.offset,
            length=self.length,
            start=self.start,
            end=self.end,
            ost=np.full(len(self), NO_OST, dtype=np.int32),
        )

    def digest(self) -> str:
        """Stable content digest, hashing the column buffers directly."""
        h = hashlib.sha256()
        for column in (
            self.module_code,
            self.rank,
            self.path_code,
            self.op_code,
            self.offset,
            self.length,
            self.start,
            self.end,
            self.ost,
        ):
            h.update(np.ascontiguousarray(column).tobytes())
        h.update(_dictionary_bytes(self.modules, self.paths, OPERATIONS))
        return h.hexdigest()


class SegmentTableBuilder:
    """Incremental, chunk-buffered :class:`SegmentTable` construction.

    ``append`` writes scalars into preallocated numpy chunks (no
    per-segment object, no list-of-tuples) and interns the string fields
    into the growing dictionaries — O(1) amortized per operation, which is
    what keeps the always-on collector's overhead flat as traces grow.
    """

    __slots__ = ("_chunk", "_full", "_cur", "_fill", "_modules", "_paths", "_count")

    _COLUMNS = (
        "module_code",
        "rank",
        "path_code",
        "op_code",
        "offset",
        "length",
        "start",
        "end",
        "ost",
    )
    _DTYPES = (
        np.uint8,
        np.int64,
        np.int32,
        np.uint8,
        np.int64,
        np.int64,
        np.float64,
        np.float64,
        np.int32,
    )

    def __init__(self, chunk: int = _CHUNK) -> None:
        if chunk <= 0:
            raise ValueError("chunk must be positive")
        self._chunk = chunk
        self._full: list[tuple[np.ndarray, ...]] = []
        self._cur = self._new_chunk()
        self._fill = 0
        self._modules: dict[str, int] = {}
        self._paths: dict[str, int] = {}
        self._count = 0

    def _new_chunk(self) -> tuple[np.ndarray, ...]:
        return tuple(np.empty(self._chunk, dtype=dt) for dt in self._DTYPES)

    def __len__(self) -> int:
        return self._count

    def append(
        self,
        module: str,
        rank: int,
        path: str,
        operation: str,
        offset: int,
        length: int,
        start: float,
        end: float,
        ost: int | None = None,
    ) -> None:
        modules = self._modules
        mcode = modules.get(module)
        if mcode is None:
            mcode = modules[module] = len(modules)
        paths = self._paths
        pcode = paths.get(path)
        if pcode is None:
            pcode = paths[path] = len(paths)
        i = self._fill
        cur = self._cur
        cur[0][i] = mcode
        cur[1][i] = rank
        cur[2][i] = pcode
        cur[3][i] = READ_CODE if operation == "read" else WRITE_CODE
        cur[4][i] = offset
        cur[5][i] = length
        cur[6][i] = start
        cur[7][i] = end
        cur[8][i] = NO_OST if ost is None else ost
        self._fill = i + 1
        self._count += 1
        if self._fill == self._chunk:
            self._full.append(cur)
            self._cur = self._new_chunk()
            self._fill = 0

    def extend(
        self,
        module: Sequence[str],
        rank: Sequence[int],
        path: Sequence[str],
        operation: Sequence[str],
        offset: Sequence[int],
        length: Sequence[int],
        start: Sequence[float],
        end: Sequence[float],
        ost: Sequence[int],
    ) -> None:
        """Append whole columns at once (``ost`` uses :data:`NO_OST`).

        Equivalent to one :meth:`append` per row: strings are interned in
        first-appearance order, and the rows follow any appended before.
        """
        n = len(rank)
        if self._fill:
            self._full.append(tuple(col[: self._fill] for col in self._cur))
            self._cur = self._new_chunk()
            self._fill = 0
        columns = (
            _intern(module, self._modules),
            rank,
            _intern(path, self._paths),
            list(map(_OP_CODES.get, operation, repeat(WRITE_CODE))),
            offset,
            length,
            start,
            end,
            ost,
        )
        self._full.append(
            tuple(np.asarray(col, dtype=dt) for col, dt in zip(columns, self._DTYPES))
        )
        self._count += n

    def build(self) -> SegmentTable:
        """Concatenate the chunks into an immutable table (copies once)."""
        parts = [*self._full, tuple(col[: self._fill] for col in self._cur)]
        columns = {
            name: np.concatenate([p[j] for p in parts])
            for j, name in enumerate(self._COLUMNS)
        }
        return SegmentTable(
            modules=tuple(self._modules),
            paths=tuple(self._paths),
            **columns,
        )


def _intern(values: Sequence[str], dictionary: dict[str, int]) -> list[int]:
    """Codes of ``values`` in ``dictionary``, adding new ones first-seen."""
    for value in dict.fromkeys(values):
        dictionary.setdefault(value, len(dictionary))
    return list(map(dictionary.__getitem__, values))


def group_bounds(inverse: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grouping scaffold for grouped reductions over a code column.

    Given per-row group indices (e.g. the ``inverse`` of ``np.unique``),
    returns ``(order, firsts, counts)``: a stable sort order bringing each
    group's rows together, the offset of each group's first row in that
    order, and each group's size.  ``reduceat`` over ``column[order]`` at
    ``firsts`` then computes per-group reductions.
    """
    order = np.argsort(inverse, kind="stable")
    counts = np.bincount(inverse)
    firsts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return order, firsts, counts


def as_table(segments) -> SegmentTable:
    """Coerce any accepted segment container to a :class:`SegmentTable`.

    Accepts a table (returned as-is), ``None`` / empty (empty table), or
    any iterable of :class:`DxtSegment` — the compatibility path for
    callers still holding the PR 3 list representation.
    """
    if isinstance(segments, SegmentTable):
        return segments
    if not segments:
        return SegmentTable.empty()
    return SegmentTable.from_segments(segments)
