"""Columnar counter storage: one records x counters matrix per module.

The counter-side twin of :class:`~repro.darshan.segtable.SegmentTable`.
darshan-parser output holds one line per (record, counter); a
:class:`CounterTable` holds the same content as, per module,

* an ``int64`` and a ``float64`` matrix (records x counters) with a
  presence mask each, columns in first-seen order;
* per-record columns: ``rank``, ``path``, ``mount`` and ``fs_type``
  (strings interned, so a path shared by POSIX, MPIIO and LUSTRE records
  is one object), plus ``seq``, the record's first-seen position in the
  whole log, which orders :attr:`~repro.darshan.log.DarshanLog.records`.

A record whose counters do not follow column order (text with
reordered counter lines) keeps its order in an ``order`` matrix, so the
per-record dicts built from the table are equal to the ones the text
describes, order included.  The table is immutable.  Per-record
:class:`~repro.darshan.records.DarshanRecord` rows are built from it
only when a consumer asks (:meth:`CounterTable.rows`), and those rows
are read-only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Sequence

import numpy as np

from repro.darshan.records import DarshanRecord

__all__ = ["CounterColumns", "ModuleCounters", "CounterTable", "TextMemo"]

class CounterColumns:
    """One kind of counter (integer or floating point) of one module.

    ``values`` and ``present`` are records x ``len(names)``; an absent
    counter reads 0 in ``values``.  ``order`` is ``None`` when every
    record lists its counters in column order, else a matrix of each
    counter's position within its record (smaller first).  Integer
    values that do not fit ``int64`` switch ``values`` to ``object``.
    """

    __slots__ = ("names", "values", "present", "order", "index", "dense", "_columns")

    def __init__(
        self,
        names: tuple[str, ...],
        values: np.ndarray,
        present: np.ndarray,
        order: np.ndarray | None = None,
    ) -> None:
        self.names = names
        self.values = values
        self.present = present
        self.order = order
        self.index = {name: j for j, name in enumerate(names)}
        # Every record has every counter, in column order (the usual case).
        self.dense = order is None and bool(present.all())
        self._columns: dict[tuple, tuple] | None = None  # column(), made on first use

    def row_dicts(self) -> list[dict]:
        """Every record's ``{name: value}`` in the record's own order."""
        names = self.names
        rows = self.values.tolist()
        if self.dense:
            return [dict(zip(names, row)) for row in rows]
        present = self.present.tolist()
        order = self.order.tolist() if self.order is not None else None
        out = []
        for r, (row, mask) in enumerate(zip(rows, present)):
            cols = [j for j, here in enumerate(mask) if here]
            if order is not None:
                cols.sort(key=order[r].__getitem__)
            out.append({names[j]: row[j] for j in cols})
        return out

    def iter_row_items(self) -> Iterator[list[tuple[str, int | float]]]:
        """Each record's ``(name, value)`` pairs, one record at a time."""
        names = self.names
        for r in range(self.values.shape[0]):
            row = self.values[r].tolist()
            if self.dense:
                yield list(zip(names, row))
                continue
            cols = np.flatnonzero(self.present[r])
            if self.order is not None:
                cols = cols[np.argsort(self.order[r, cols], kind="stable")]
            yield [(names[j], row[j]) for j in cols.tolist()]

    def column(self, name: str, default: int | float = 0) -> tuple:
        """Every record's value of ``name``, in record order.

        A record without the counter reads ``default``, as
        ``record.counters.get(name, default)`` does; values are the Python
        objects the rows would hold.  The columns are immutable, so each
        tuple is built once and kept.
        """
        columns = self._columns
        if columns is None:
            columns = self._columns = {}
        key = (name, type(default), default)
        values = columns.get(key)
        if values is None:
            j = self.index.get(name)
            if j is None:
                values = (default,) * len(self.values)
            else:
                found = self.values[:, j].tolist()
                if not self.dense:
                    absent = ~self.present[:, j]
                    for r in absent.nonzero()[0].tolist():
                        found[r] = default
                values = tuple(found)
            columns[key] = values
        return values

    def contributions(self, name: str) -> tuple[np.ndarray | slice, list] | None:
        """``(rows, values)`` of the records that define ``name``."""
        j = self.index.get(name)
        if j is None:
            return None
        if self.dense:
            return slice(None), self.values[:, j].tolist()
        rows = self.present[:, j].nonzero()[0]
        return rows, self.values[rows, j].tolist()


def build_columns(
    names: Sequence[str],
    n_rows: int,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    pos: np.ndarray,
) -> CounterColumns:
    """Scatter ``(row, col, value)`` entries, listed in text order, into columns.

    ``pos`` is each entry's position in its source (strictly increasing).
    A repeated ``(row, col)`` keeps its first position and its last value,
    as assigning into a dict does.
    """
    n_cols = len(names)
    out = np.zeros((n_rows, n_cols), dtype=values.dtype)
    present = np.zeros((n_rows, n_cols), dtype=bool)
    if rows.size:
        present[rows, cols] = True
        if int(np.count_nonzero(present)) != rows.size:
            # Repeated counters: the last value wins, the first position stays.
            flat = rows * n_cols + cols
            _, last = np.unique(flat[::-1], return_index=True)
            keep_last = flat.size - 1 - last
            out[rows[keep_last], cols[keep_last]] = values[keep_last]
            _, first = np.unique(flat, return_index=True)
            first.sort()
            rows, cols, pos = rows[first], cols[first], pos[first]
        else:
            out[rows, cols] = values
    order = None
    if rows.size > 1:
        r, c = rows, cols
        if not (r[1:] >= r[:-1]).all():
            by_row = np.argsort(rows, kind="stable")
            r, c = rows[by_row], cols[by_row]
        if not ((r[1:] != r[:-1]) | (c[1:] > c[:-1])).all():
            order = np.full((n_rows, n_cols), -1, dtype=np.int64)
            order[rows, cols] = pos
    return CounterColumns(tuple(names), out, present, order)


def int_array(values: list) -> np.ndarray:
    """``values`` as ``int64``; as ``object`` (values kept as given) otherwise.

    Counters are Python ints; one too big for ``int64``, or a value of
    another type in a hand-built record, keeps the whole column exact.
    """
    array = np.array(values)
    if array.dtype == np.int64 or not values:
        return array.astype(np.int64, copy=False)
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _columns_from_dicts(dicts: list[dict], dtype: type) -> CounterColumns:
    """Columns for per-record dicts, in one array call when they share keys."""
    keys = tuple(dicts[0]) if dicts else ()
    if all(tuple(d) == keys for d in dicts):
        flat = [v for d in dicts for v in d.values()]
        values = np.array(flat, dtype=np.float64) if dtype is float else int_array(flat)
        values = values.reshape(len(dicts), len(keys))
        return CounterColumns(keys, values, np.ones(values.shape, dtype=bool))
    index: dict[str, int] = {}
    rows: list[int] = []
    cols: list[int] = []
    flat_values: list = []
    for r, d in enumerate(dicts):
        rows.extend([r] * len(d))
        cols.extend(index.setdefault(name, len(index)) for name in d)
        flat_values.extend(d.values())
    array = np.array(flat_values, dtype=np.float64) if dtype is float else int_array(flat_values)
    return build_columns(
        tuple(index),
        len(dicts),
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        array,
        np.arange(len(rows), dtype=np.int64),
    )


@dataclass(frozen=True, slots=True)
class ModuleCounters:
    """All records of one module, as columns (see the module docstring)."""

    module: str
    seq: np.ndarray
    rank: np.ndarray
    path: tuple[str, ...]
    mount: tuple[str, ...]
    fs_type: tuple[str, ...]
    ints: CounterColumns
    floats: CounterColumns

    def __len__(self) -> int:
        return len(self.path)

    def iter_rows(self) -> Iterator[tuple[int, str, str, str, list, list]]:
        """``(rank, path, mount, fs_type, int items, float items)`` per record."""
        return zip(
            self.rank.tolist(),
            self.path,
            self.mount,
            self.fs_type,
            self.ints.iter_row_items(),
            self.floats.iter_row_items(),
        )


@dataclass(frozen=True, slots=True)
class TextMemo:
    """The sha256 of a log's counter text, kept by the parser that read it.

    ``header`` is the header chunk the text began with: the memo holds
    only while the log's header still renders to it.
    """

    header: str
    sha256: "hashlib._Hash"


class _Row(DarshanRecord):
    """A read-only record built from a :class:`CounterTable`."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"the records of a DarshanLog are read-only (set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"the records of a DarshanLog are read-only (delete {name!r})")


_SLOTS = {name: getattr(DarshanRecord, name) for name in DarshanRecord.__slots__}


def _row(
    module: str, path: str, rank: int, counters: dict, fcounters: dict, mount: str, fs_type: str
) -> _Row:
    row = object.__new__(_Row)
    slots = _SLOTS
    slots["module"].__set__(row, module)
    slots["path"].__set__(row, path)
    slots["rank"].__set__(row, rank)
    slots["counters"].__set__(row, MappingProxyType(counters))
    slots["fcounters"].__set__(row, MappingProxyType(fcounters))
    slots["mount_point"].__set__(row, mount)
    slots["fs_type"].__set__(row, fs_type)
    return row


class CounterTable:
    """Immutable per-module counter columns of one log.

    ``modules`` lists each module's :class:`ModuleCounters` in the order
    modules were first seen.  ``memo`` is set only by the parser, when
    the text it read is byte-for-byte what
    :func:`~repro.darshan.writer.iter_darshan_text` would write for the
    parsed log; the content digest then reuses its hash.
    """

    __slots__ = ("modules", "memo", "_by_name", "_totals")

    def __init__(self, modules: Sequence[ModuleCounters] = (), memo: TextMemo | None = None):
        self.modules = tuple(m for m in modules if len(m))
        self.memo = memo
        self._by_name = {m.module: m for m in self.modules}
        self._totals: dict[str, float] = {}  # total() per counter; the table is immutable

    @classmethod
    def from_records(cls, records: Sequence[DarshanRecord]) -> "CounterTable":
        """The table holding ``records`` (values copied; order kept)."""
        groups: dict[str, list[tuple[int, DarshanRecord]]] = {}
        for seq, rec in enumerate(records):
            groups.setdefault(rec.module, []).append((seq, rec))
        modules = []
        for module, members in groups.items():
            recs = [rec for _, rec in members]
            modules.append(
                ModuleCounters(
                    module=module,
                    seq=np.array([seq for seq, _ in members], dtype=np.int64),
                    rank=int_array([rec.rank for rec in recs]),
                    path=tuple(rec.path for rec in recs),
                    mount=tuple(rec.mount_point for rec in recs),
                    fs_type=tuple(rec.fs_type for rec in recs),
                    ints=_columns_from_dicts([rec.counters for rec in recs], int),
                    floats=_columns_from_dicts([rec.fcounters for rec in recs], float),
                )
            )
        return cls(modules)

    def __len__(self) -> int:
        return sum(len(m) for m in self.modules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = ", ".join(f"{m.module}={len(m)}" for m in self.modules)
        return f"CounterTable({sizes})"

    def module(self, name: str) -> ModuleCounters | None:
        """The columns of module ``name`` (``None`` if it has no records)."""
        return self._by_name.get(name)

    def rows(self) -> tuple[tuple[DarshanRecord, ...], dict[str, tuple[DarshanRecord, ...]]]:
        """Read-only records: all in first-seen order, and per module."""
        per_module: dict[str, tuple[DarshanRecord, ...]] = {}
        tagged: list[tuple[int, DarshanRecord]] = []
        for m in self.modules:
            module = m.module
            columns = zip(
                m.rank.tolist(),
                m.path,
                m.mount,
                m.fs_type,
                m.ints.row_dicts(),
                m.floats.row_dicts(),
            )
            rows = tuple(
                _row(module, path, rank, counters, fcounters, mount, fs_type)
                for rank, path, mount, fs_type, counters, fcounters in columns
            )
            per_module[module] = rows
            tagged.extend(zip(m.seq.tolist(), rows))
        if len(self.modules) > 1:
            tagged.sort(key=lambda item: item[0])
        return tuple(rec for _, rec in tagged), per_module

    def files(self) -> list[str]:
        """Distinct paths in first-seen record order."""
        if len(self.modules) == 1:
            return list(dict.fromkeys(self.modules[0].path))
        seq = np.concatenate([m.seq for m in self.modules])
        paths = [p for m in self.modules for p in m.path]
        return list(dict.fromkeys(paths[i] for i in np.argsort(seq, kind="stable").tolist()))

    def total(self, counter: str) -> float:
        """Sum of ``counter`` over the records that define it.

        Equal to summing ``record.get(counter, 0)`` over the records in
        first-seen order with Python's ``sum``: integers add exactly and
        floats left to right, so a report that prints the sum keeps
        every digit.
        """
        total = self._totals.get(counter)
        if total is None:
            total = self._totals[counter] = self._sum(counter)
        return total

    def _sum(self, counter: str) -> float:
        parts: list[tuple[np.ndarray, int, list]] = []
        for m in self.modules:
            for kind, columns in ((0, m.ints), (1, m.floats)):
                found = columns.contributions(counter)
                if found is not None and found[1]:
                    parts.append((m.seq[found[0]], kind, found[1]))
        if not parts:
            return 0.0
        if len(parts) == 1:
            return float(sum(parts[0][2]))
        seq = np.concatenate([p[0] for p in parts])
        kind = np.concatenate([np.full(len(p[2]), p[1], dtype=np.int8) for p in parts])
        values = [v for p in parts for v in p[2]]
        order = np.lexsort((kind, seq))
        # A record holding the counter as both kinds contributes its integer.
        first = np.ones(order.size, dtype=bool)
        first[1:] = seq[order][1:] != seq[order][:-1]
        return float(sum(values[i] for i in order[first].tolist()))
