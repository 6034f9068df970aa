"""Parse darshan-parser text output back into a :class:`DarshanLog`.

Round-trips the output of :func:`repro.darshan.writer.render_darshan_text`
and tolerates the benign variations real darshan-parser output exhibits
(extra comment lines, blank lines, unknown modules are kept verbatim).
When the text embeds a DXT section (``render_darshan_text(...,
include_dxt=True)``), the segment table is restored onto
``DarshanLog.dxt_segments`` instead of being dropped to ``None``.

Two failure postures:

* **strict** (the default, unchanged) — the first malformed record line
  raises :class:`DarshanParseError`; right for trusted, freshly-rendered
  text where damage means a bug;
* **lenient** (``lenient=True``) — malformed record/DXT lines are
  *skipped and counted* into a :class:`ParseReport` instead of raising,
  so a truncated or partially-garbled trace still yields every record
  that survived.  Missing or malformed required header fields raise even
  in lenient mode: with no job header there is no log to speak of.

The counter section is read in bulk, straight into a
:class:`~repro.darshan.countertable.CounterTable`, one bounded block of
lines at a time.  numpy finds the line and tab positions of the UTF-8
bytes (by one reshape when every line of the block has seven tabs),
groups consecutive lines that share a record's head and tail into runs,
interns counter names by their 8-byte words, masked to each name's
length, and converts values: a one-digit value, most of a trace's, is
its byte less ``"0"``, other plain decimals are read as right-aligned
byte windows.  Fields that are not plain ASCII decimals (``+5``,
``1_000``, ``1e3``) go through Python's ``int()``/``float()`` one by
one, so the accepted grammar and every error message are those of a
line-by-line reading that splits lines like ``str.splitlines``.  When
the text is exactly what the writer emits for the parsed log, the table
keeps the sha256 of those bytes and
:func:`~repro.core.service.trace_digest` reuses it.

Use :func:`parse_darshan_text_with_report` when you need the
:class:`ParseReport`; :func:`parse_darshan_text` keeps the original
log-only signature.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from repro.darshan.counters import NONNEGATIVE_COUNTERS
from repro.darshan.countertable import (
    CounterTable,
    ModuleCounters,
    TextMemo,
    build_columns,
    int_array,
)
from repro.darshan.log import MODULE_ORDER, DarshanLog, JobHeader, ascii_time
from repro.darshan.records import record_id_for
from repro.darshan.writer import render_header, section_header

__all__ = [
    "parse_darshan_text",
    "parse_darshan_text_with_report",
    "DarshanParseError",
    "ParseReport",
    "SkippedLine",
]


class DarshanParseError(ValueError):
    """Raised when the text is not recognizable darshan-parser output."""


@dataclass(frozen=True)
class SkippedLine:
    """One malformed line the lenient parser dropped."""

    lineno: int  # 1-based, in the full input text
    text: str
    reason: str


@dataclass(frozen=True)
class ParseReport:
    """What the parser saw: volume parsed and damage skipped."""

    total_lines: int
    record_lines: int  # counter records successfully parsed
    dxt_lines: int  # DXT segment lines successfully parsed
    skipped: tuple[SkippedLine, ...] = ()

    @property
    def skipped_count(self) -> int:
        return len(self.skipped)

    @property
    def clean(self) -> bool:
        return not self.skipped


_T = TypeVar("_T")

_HEADER_RE = re.compile(r"^# ([a-z_ ]+): (.*)$")
_MOUNT_RE = re.compile(r"^# mount entry:\t(\S+)\t(\S+)$")
_DXT_MARKER = "# DXT trace"
# A rank is a process number, or -1 for a shared record; a line with a
# lower one is rejected like one whose rank does not parse.
_RANK_BELOW_SHARED = "rank {} is below -1, the shared-record rank"
# A record's rank must also be below the job's process count, or every
# line of the record is rejected.
_RANK_PAST_NPROCS = "rank {} is not below the job's nprocs ({})"
# Byte, operation and size-bin counts (NONNEGATIVE_COUNTERS) are never negative.
_NEGATIVE_COUNT = "{} is {}, but a byte, operation or size-bin count is never negative"
# Line boundaries of str.splitlines(); the scanner itself splits on "\n".
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_ASCII_BREAK_BYTES = frozenset(ord(c) for c in _LINE_BREAKS if c < "\x80") - {10}
_WIDE_BREAKS = ("\x85", "\u2028", "\u2029")
# Characters per scanned block (about 8k lines): bounds the block's bytes
# and per-line temporaries.
_BLOCK_CHARS = 1 << 20
# Widest value converted with numpy: a sign and 18 digits, which int64 holds.
_VALUE_WIDTH = 19
_MAX_INT_DIGITS = 18
# Floats converted with numpy carry at most 15 digits, so the digits are an
# exact int64 and one division by a power of ten rounds like float().
_MAX_FLOAT_DIGITS = 15
_NAME_WIDTH = 32
_POW10 = 10 ** np.arange(_MAX_INT_DIGITS + 1, dtype=np.int64)
_POW10F = 10.0 ** np.arange(_VALUE_WIDTH + 1)
# Canonical "%.6f" text round-trips below 1e8 (spacing of doubles << 1e-6).
_CANONICAL_FLOAT_DIGITS = 14
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# The control bytes of a record line, seven tabs and its newline, as one word.
_RECORD_CONTROLS = int.from_bytes(b"\t" * 7 + b"\n", "little")
_HASH_MIX = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5],
    dtype=np.uint64,
)


def _prefix_masks(n_words: int) -> np.ndarray:
    """Row ``k`` keeps the first ``k`` bytes of ``n_words`` little-endian words."""
    keep = np.arange(8 * n_words) < np.arange(8 * n_words + 1)[:, None]
    return (keep * np.uint8(255)).view(np.uint64)


# Per name width in words: the mask of a name of each length.
_NAME_MASKS = {n: _prefix_masks(n) for n in range(1, _NAME_WIDTH // 8 + 1)}


# What a line is, by its first byte.  A line opening with whitespace, a
# control or a non-ASCII byte is a record line unless str.strip() blanks it;
# a first byte of "\n" is an empty line.
_UNSURE, _RECORD, _COMMENT, _EMPTY = 0, 1, 2, 3
_FIRST_BYTE = np.full(256, _UNSURE, dtype=np.uint8)
_FIRST_BYTE[33:128] = _RECORD
_FIRST_BYTE[ord("#")] = _COMMENT
_FIRST_BYTE[ord("\n")] = _EMPTY


class _Rescan(Exception):
    """The text has line breaks other than "\\n": normalize and start over."""


class _Module:
    """Accumulates one module's records and counter entries."""

    __slots__ = ("name", "order", "seq", "rank", "path", "mount", "fs_type", "names", "parts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.order = MODULE_ORDER.index(name) if name in MODULE_ORDER else -1
        self.seq: list[int] = []
        self.rank: list[int] = []
        self.path: list[str] = []
        self.mount: list[str] = []
        self.fs_type: list[str] = []
        # Per kind (0 int, 1 float): counter name -> column, and the
        # (rows, cols, values, line positions) blocks in text order.
        self.names: tuple[dict[str, int], dict[str, int]] = ({}, {})
        self.parts: tuple[list, list] = ([], [])

    def counters(self) -> ModuleCounters:
        n_rows = len(self.path)
        halves = []
        for kind in (0, 1):
            parts = self.parts[kind]
            names = tuple(self.names[kind])
            if parts:
                rows, cols, values, pos = map(np.concatenate, zip(*parts))
            else:
                rows = cols = pos = np.empty(0, dtype=np.int64)
                values = np.empty(0, dtype=np.float64 if kind else np.int64)
            halves.append(build_columns(names, n_rows, rows, cols, values, pos))
        return ModuleCounters(
            module=self.name,
            seq=np.array(self.seq, dtype=np.int64),
            rank=int_array(self.rank),
            path=tuple(self.path),
            mount=tuple(self.mount),
            fs_type=tuple(self.fs_type),
            ints=halves[0],
            floats=halves[1],
        )


class _CounterScan:
    """One pass over the counter section: everything before the DXT marker.

    The text is read in blocks of whole lines; each block is encoded to
    UTF-8 on its own, so no copy of the whole text is held.  While the
    bytes read are exactly what the writer emits for what has been
    parsed, ``canonical`` stays true, ``digest`` hashes them and the
    ``layout`` items (comment lines, empty lines, record runs) record
    what the final check compares against the writer's layout.
    """

    def __init__(self, text: str, lenient: bool) -> None:
        self.text = text
        self.lenient = lenient
        self.canonical = True
        self.digest = hashlib.sha256()
        self.end = len(text)  # where the counter section stops (the DXT marker)
        self.header_fields: dict[str, str] = {}
        self.mounts: list[tuple[str, str]] = []
        self.skipped: list[SkippedLine] = []
        self.record_lines = 0
        self.n_lines = 0
        self.module_list: list[_Module] = []
        self.module_index: dict[str, int] = {}
        self.records: dict[tuple[str, str], tuple[int, int]] = {}
        self.strings: dict[str, str] = {}
        # (first line, last line, item) in text order, for the layout check.
        self.line_items: list[tuple[int, int, tuple]] = []
        self.run_items: list[list] = []
        # (record, last line, head, tail) of the last run read.
        self.previous_run: tuple | None = None
        self.last_line: tuple[int, int, int, int] | None = None  # (module, row, kind, col)
        # The block being read.
        self.data = b""
        self.full = np.empty(0, dtype=np.uint8)

    def _decode(self, start: int, end: int) -> str:
        return self.data[start:end].decode("utf-8", "surrogatepass")

    def _windows(self, width: int) -> np.ndarray:
        """Read-only view of the block: row ``i`` is the ``width`` bytes from ``i``."""
        shape = (max(len(self.data) - width + 1, 0), width)
        return np.ndarray(shape, np.uint8, self.data, 0, (1, 1))

    def dxt_text(self) -> str | None:
        """The text from the DXT marker line on, if there is one."""
        return None if self.end == len(self.text) else self.text[self.end :]

    # -- reading the text in blocks -------------------------------------------

    def scan(self) -> None:
        text = self.text
        size = len(text)
        c0 = 0
        while c0 < self.end:
            c1 = size
            if size - c0 > _BLOCK_CHARS:
                c1 = text.rfind("\n", c0, c0 + _BLOCK_CHARS) + 1
                if c1 <= c0:
                    c1 = text.find("\n", c0 + _BLOCK_CHARS) + 1 or size
            self._block(text[c0:c1], c0, c1 == size)
            c0 = c1

    def table(self, header: JobHeader) -> CounterTable:
        memo = None
        if self.canonical:
            chunk = render_header(header)
            if self._layout_is_canonical(chunk):
                memo = TextMemo(chunk, self.digest)
        return CounterTable([m.counters() for m in self.module_list], memo)

    # -- one block of whole lines -----------------------------------------------

    def _block(self, chunk: str, c0: int, last: bool) -> None:
        try:
            data = chunk.encode("utf-8")
        except UnicodeEncodeError:  # lone surrogates: the writer could not emit them
            data = chunk.encode("utf-8", "surrogatepass")
            self.canonical = False
        self.data = data
        full = self.full = np.frombuffer(data, dtype=np.uint8)
        ctl = (full < 32).nonzero()[0]
        kinds = full[ctl]
        unterminated = last and data[-1] != 10
        n = ctl.size // 8
        grid = None
        if (
            n
            and not unterminated
            and ctl.size == 8 * n
            and (kinds.view("<u8") == _RECORD_CONTROLS).all()
        ):
            # Every line has seven tabs and its newline: one row of the grid.
            grid = ctl.reshape(n, 8)
            ends = grid[:, 7]
        else:
            is_nl = kinds == 10
            is_tab = kinds == 9
            ends = ctl[is_nl]
            tabs = ctl[is_tab]
            if ctl.size != ends.size + tabs.size:
                odd = ctl[~(is_nl | is_tab)]
                if not _ASCII_BREAK_BYTES.isdisjoint(np.unique(full[odd]).tolist()):
                    raise _Rescan
            if unterminated:
                ends = np.append(ends, len(data))
        starts = np.empty(ends.size, dtype=np.int64)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        category = _FIRST_BYTE[full[starts]]
        line0 = self.n_lines
        stop = len(data)
        for i in (category == _COMMENT).nonzero()[0].tolist():
            line = self._decode(int(starts[i]), int(ends[i]))
            if line.startswith(_DXT_MARKER):
                # The counter section ends here; the rest is the DXT section.
                stop = int(starts[i])
                self.end = c0 + (stop if chunk.isascii() else len(self._decode(0, stop)))
                starts, ends, category = starts[:i], ends[:i], category[:i]
                break
            self._comment(line)
            if self.canonical:
                self.line_items.append((line0 + i, line0 + i, ("#", line)))
        if unterminated and stop == len(data):
            self.canonical = False  # the writer ends every line with "\n"
        self.n_lines += ends.size
        for i in (category == _UNSURE).nonzero()[0].tolist():
            if self._decode(int(starts[i]), int(ends[i])).strip():
                category[i] = _RECORD
                self.canonical = False
        if self.canonical:
            self.line_items.extend(
                (line0 + i, line0 + i, ("",)) for i in (category == _EMPTY).nonzero()[0].tolist()
            )
        rec = (category == _RECORD).nonzero()[0]
        errors: list[tuple[int, str, str]] = []  # (line, strict message, lenient reason)
        if grid is not None:
            good, t = rec, grid[rec, :7]
        else:
            tlo = np.searchsorted(tabs, starts[rec])
            ntab = np.searchsorted(tabs, ends[rec]) - tlo
            wrong = ntab != 7
            for i, k in zip(rec[wrong].tolist(), ntab[wrong].tolist()):
                message = f"line {line0 + i + 1}: expected 8 tab-separated fields, got {k + 1}"
                errors.append((i, message, message))
            good = rec[~wrong]
            t = tabs[tlo[~wrong][:, None] + np.arange(7)]
        if good.size:
            self._records(good, starts[good], ends[good], t, line0, errors)
        if errors:
            self.canonical = False
            errors.sort()
            if not self.lenient:
                raise DarshanParseError(errors[0][1])
            for i, _, reason in errors:
                text = self._decode(int(starts[i]), int(ends[i]))
                self.skipped.append(SkippedLine(lineno=line0 + i + 1, text=text, reason=reason))
        if self.canonical:
            self.digest.update(memoryview(data)[:stop])

    def _comment(self, line: str) -> None:
        m = _MOUNT_RE.match(line)
        if m:
            self.mounts.append((m.group(1), m.group(2)))
            return
        m = _HEADER_RE.match(line)
        if m:
            self.header_fields[m.group(1).strip()] = m.group(2).strip()

    # -- record lines with exactly eight fields -----------------------------------

    def _records(
        self,
        idx: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        t: np.ndarray,
        line0: int,
        errors: list[tuple[int, str, str]],
    ) -> None:
        """Fold the well-formed lines ``idx`` (block line numbers) into modules."""
        kind, values, value_error, spelled_canonically = self._values(t[:, 3] + 1, t[:, 4])
        negative = (values[0] < 0).nonzero()[0]
        if negative.size:
            value_error = self._negative_counts(negative, kind, values[0], t, value_error)
        value_ok = np.array([e is None for e in value_error]) if value_error else None
        run_start, run_stop = self._runs(idx, starts, ends, t)
        has_ok = (
            np.ones(run_start.size, dtype=bool)
            if value_ok is None
            else np.add.reduceat(value_ok, run_start) > 0
        )
        run_module: list[int] = []
        run_row: list[int] = []
        rank_errors: dict[int, str] = {}
        data, records, strings, modules = self.data, self.records, self.strings, self.module_list
        run_items, canonical, previous = self.run_items, self.canonical, self.previous_run
        for j, (s, e, first, last, (t0, t1, t2, _, t4, t5, t6), live) in enumerate(
            zip(
                starts[run_start].tolist(),
                ends[run_start].tolist(),
                (idx[run_start] + line0).tolist(),
                (idx[run_stop - 1] + line0).tolist(),
                t[run_start].tolist(),
                has_ok.tolist(),
            )
        ):
            rank_s = data[t0 + 1 : t1].decode("utf-8", "surrogatepass")
            try:
                rank = int(rank_s)
                if rank < -1:
                    raise ValueError(_RANK_BELOW_SHARED.format(rank))
            except ValueError as exc:
                rank_errors[j] = str(exc)
                live = False
            if not live:
                run_module.append(-1)
                run_row.append(-1)
                continue
            module = data[s:t0].decode("utf-8", "surrogatepass")
            path = data[t4 + 1 : t5].decode("utf-8", "surrogatepass")
            path = strings.setdefault(path, path)
            found = records.get((module, path))
            if found is None:
                mi = self.module_index.get(module)
                if mi is None:
                    mi = self.module_index[module] = len(modules)
                    modules.append(_Module(module))
                mod = modules[mi]
                found = records[(module, path)] = (mi, len(mod.path))
                mod.seq.append(len(records) - 1)
                mod.rank.append(rank)
                mod.path.append(path)
                mount = data[t5 + 1 : t6].decode("utf-8", "surrogatepass")
                fs_type = data[t6 + 1 : e].decode("utf-8", "surrogatepass")
                mod.mount.append(strings.setdefault(mount, mount))
                mod.fs_type.append(strings.setdefault(fs_type, fs_type))
                if canonical:
                    canonical = (
                        mod.order >= 0
                        and str(rank) == rank_s
                        and data[t1 + 1 : t2] == str(record_id_for(path)).encode()
                    )
                    run_items.append([first, last, ("r", mod.order, found[1])])
            elif canonical:
                # A record's own lines, continued across a block edge, keep
                # the text canonical; a record met again elsewhere does not.
                canonical = (
                    previous is not None
                    and previous[0] == found
                    and previous[1] + 1 == first
                    and previous[2] == data[s : t2 + 1]
                    and previous[3] == data[t4:e]
                )
                run_items[-1][1] = last
            if canonical:
                previous = (found, last, data[s : t2 + 1], data[t4:e])
            run_module.append(found[0])
            run_row.append(found[1])
        self.canonical, self.previous_run = canonical, previous

        lengths = run_stop - run_start
        line_module = np.repeat(np.array(run_module, dtype=np.int64), lengths)
        ok = line_module >= 0
        if value_ok is not None:
            ok &= value_ok
            for j in (~value_ok).nonzero()[0].tolist():
                lineno = line0 + int(idx[j]) + 1
                errors.append((int(idx[j]), f"line {lineno}: {value_error[j]}", value_error[j]))
        for r, message in rank_errors.items():
            for j in range(int(run_start[r]), int(run_stop[r])):
                if value_ok is None or value_ok[j]:
                    i = int(idx[j])
                    errors.append((i, f"line {line0 + i + 1}: {message}", message))
        keep = ok.nonzero()[0]
        self.record_lines += int(keep.size)
        if not keep.size:
            return
        if self.canonical and not spelled_canonically[keep].all():
            self.canonical = False
        mods = line_module[keep]
        rows = np.repeat(np.array(run_row, dtype=np.int64), lengths)[keep]
        kinds = kind[keep]
        cols = self._columns(mods, kinds, t[keep, 2] + 1, t[keep, 3])
        if self.canonical:
            self._check_order(mods, rows, kinds, cols)
        pos = idx[keep] + line0
        group = mods * 2 + kinds
        for g in np.unique(group).tolist():
            sel = (group == g).nonzero()[0]
            self.module_list[g // 2].parts[g % 2].append(
                (rows[sel], cols[sel], values[g % 2][keep[sel]], pos[sel])
            )

    def _negative_counts(
        self, negative: np.ndarray, kind: np.ndarray, ints: np.ndarray, t: np.ndarray, errors: list
    ) -> list:
        """``errors`` with each negative byte, operation or size-bin count as its line's error.

        ``negative`` holds the lines whose integer column is below 0; only
        their counter names are read.
        """
        found = list(errors) if errors else [None] * kind.size
        for j in negative.tolist():
            if kind[j] or found[j] is not None:
                continue  # a float, or a value that did not convert
            name = self._decode(int(t[j, 2]) + 1, int(t[j, 3]))
            if name in NONNEGATIVE_COUNTERS:
                found[j] = _NEGATIVE_COUNT.format(name, ints[j])
        return found if any(e is not None for e in found) else errors

    def reject_ranks_past(self, nprocs: int) -> None:
        """Reject every record whose rank is not below the job's ``nprocs``.

        The header's ``nprocs`` is known once the section is read, so this
        runs after :meth:`scan`; a module whose highest rank is below it,
        as in any well-formed text, costs one ``max``.  Strict parsing
        raises at the first line of such a record; lenient parsing drops
        the records and skips and counts their lines.
        """
        dropped: list[tuple[int, int]] = []  # (line, rank)
        for mod in self.module_list:
            if not mod.rank or max(mod.rank) < nprocs:
                continue
            bad = [rank >= nprocs for rank in mod.rank]
            past = np.array(bad)
            new_row = np.cumsum(~past) - 1
            for parts in mod.parts:
                for i, (rows, cols, values, pos) in enumerate(parts):
                    hit = past[rows]
                    lines = zip(pos[hit].tolist(), rows[hit].tolist())
                    dropped.extend((line, mod.rank[row]) for line, row in lines)
                    keep = ~hit
                    parts[i] = (new_row[rows[keep]], cols[keep], values[keep], pos[keep])
            for column in ("seq", "rank", "path", "mount", "fs_type"):
                kept = [v for v, b in zip(getattr(mod, column), bad) if not b]
                setattr(mod, column, kept)
        if not dropped:
            return
        dropped.sort()
        if not self.lenient:
            line, rank = dropped[0]
            raise DarshanParseError(f"line {line + 1}: {_RANK_PAST_NPROCS.format(rank, nprocs)}")
        self.canonical = False
        self.record_lines -= len(dropped)
        text_lines = self.text.split("\n")
        for line, rank in dropped:
            reason = _RANK_PAST_NPROCS.format(rank, nprocs)
            self.skipped.append(SkippedLine(lineno=line + 1, text=text_lines[line], reason=reason))
        self.skipped.sort(key=lambda skip: skip.lineno)

    def _check_order(
        self, mods: np.ndarray, rows: np.ndarray, kinds: np.ndarray, cols: np.ndarray
    ) -> None:
        """Within a record: integers before floats, each kind in column order."""
        if self.last_line is not None:
            m, r, k, c = self.last_line
            mods = np.concatenate([[m], mods])
            rows = np.concatenate([[r], rows])
            kinds = np.concatenate([[k], kinds])
            cols = np.concatenate([[c], cols])
        same = (mods[1:] == mods[:-1]) & (rows[1:] == rows[:-1])
        forward = (kinds[1:] > kinds[:-1]) | ((kinds[1:] == kinds[:-1]) & (cols[1:] > cols[:-1]))
        if not (forward | ~same).all():
            self.canonical = False
        self.last_line = (int(mods[-1]), int(rows[-1]), int(kinds[-1]), int(cols[-1]))

    # -- bulk conversion ---------------------------------------------------------

    def _values(
        self, vs: np.ndarray, ve: np.ndarray
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], list, np.ndarray]:
        """Kind (0 int, 1 float), values per kind, errors, canonical spelling.

        A one-digit value, most of a trace's, is its byte less ``"0"``;
        other plain ASCII decimals convert with numpy (:meth:`_decimals`);
        anything else goes through ``int()``/``float()`` as the
        line-by-line reading would.  ``errors`` is empty when every value
        converted, else one entry (``None`` or the error message) per line.
        """
        n = vs.size
        digit = self.full[vs] - np.uint8(48)  # bytes below "0" wrap past 9
        plain = (ve - vs == 1) & (digit < 10)
        ints = digit.astype(np.int64)
        floats = ints.astype(np.float64)
        is_float = np.zeros(n, dtype=bool)
        canonical = plain.copy()
        rest = (~plain).nonzero()[0]
        if rest.size:
            got = self._decimals(vs[rest], ve[rest])
            plain[rest], is_float[rest], ints[rest], floats[rest], canonical[rest] = got
        kind = is_float.astype(np.int64)
        slow = (~plain).nonzero()[0]
        if not slow.size:
            return kind, (ints, floats), [], canonical
        int_values: np.ndarray = ints
        errors: list = [None] * n
        big: dict[int, int] = {}
        for j in slow.tolist():
            text = self._decode(int(vs[j]), int(ve[j]))
            float_kind = "." in text or "e" in text or "E" in text
            kind[j] = float_kind
            try:
                value = float(text) if float_kind else int(text)
            except ValueError as exc:
                errors[j] = str(exc)
                continue
            if float_kind:
                floats[j] = value
                canonical[j] = f"{value:.6f}" == text
            else:
                canonical[j] = str(value) == text
                if _INT64_MIN <= value <= _INT64_MAX:
                    ints[j] = value
                else:
                    big[j] = value
        if big:
            int_values = ints.astype(object)
            for j, value in big.items():
                int_values[j] = value
        if all(e is None for e in errors):
            errors = []
        return kind, (int_values, floats), errors, canonical

    def _decimals(self, vs: np.ndarray, ve: np.ndarray) -> tuple[np.ndarray, ...]:
        """Plain, is-float, int, float and canonical columns of the values ``[vs, ve)``.

        Each value is read as a right-aligned window of bytes; values that
        are not plain ASCII decimals are left to the caller.
        """
        full = self.full
        n = vs.size
        vlen = ve - vs
        width = int(min(max(int(vlen.max()), 1), _VALUE_WIDTH))
        fast = (vlen > 0) & (vlen <= width) & (ve >= width)
        if full.size >= width:
            window = self._windows(width)[np.where(fast, ve - width, 0)]
        else:
            window = np.zeros((n, width), dtype=np.uint8)
            fast[:] = False
        col = np.arange(width)
        lead = np.clip(width - vlen, 0, width - 1)  # column of each value's first byte
        rows = np.arange(n)
        minus = (window[rows, lead] == 45) & (vlen > 1)
        first_digit = np.minimum(lead + minus, width - 1)
        # The sign and the left padding read as '0'.
        window = np.where(col < first_digit[:, None], np.uint8(48), window)
        digit = (window - 48) < 10
        dot = window == 46
        ndot = dot.sum(axis=1)
        nother = width - digit.sum(axis=1) - ndot
        is_float = ndot > 0
        dot_col = np.where(is_float, np.argmax(dot, axis=1), width)
        frac_digits = width - 1 - dot_col
        ndigit = width - first_digit - ndot
        float_ok = (ndot == 1) & (dot_col > first_digit) & (frac_digits > 0)
        float_ok &= ndigit <= _MAX_FLOAT_DIGITS
        plain = fast & (nother == 0) & np.where(is_float, float_ok, ndigit <= _MAX_INT_DIGITS)
        whole = np.where(digit, window - 48, 0) @ _POW10[width - 1 - col]
        low = whole % _POW10[np.maximum(frac_digits, 0)]
        number = np.where(is_float, (whole - low) // 10 + low, whole)
        ints = np.where(minus, -number, number)
        floats = number / _POW10F[np.maximum(frac_digits, 0)]
        floats = np.where(minus, -floats, floats)
        int_part = np.where(is_float, dot_col - first_digit, ndigit)
        leading_zero = (window[rows, first_digit] == 48) & (int_part > 1)
        canonical_float = (frac_digits == 6) & (ndigit <= _CANONICAL_FLOAT_DIGITS)
        canonical_int = ~(minus & (number == 0))
        canonical = plain & ~leading_zero & np.where(is_float, canonical_float, canonical_int)
        return plain, is_float, ints, floats, canonical

    def _runs(
        self, idx: np.ndarray, starts: np.ndarray, ends: np.ndarray, t: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Runs of consecutive lines sharing head (module, rank, id) and tail.

        Returned as (first line, one past the last line) index arrays.
        Candidates come from field lengths and sampled bytes; each is then
        checked exactly (every line boundary inside a run is the tail, a
        newline and the head), and one that fails becomes single lines.
        """
        full, data = self.full, self.data
        n = idx.size
        head_end, tail_start = t[:, 2] + 1, t[:, 4]
        new = np.ones(n, dtype=bool)
        if n > 1 and full.size >= 8:
            windows = self._windows(8)
            new[1:] = (
                (idx[1:] != idx[:-1] + 1)
                | (head_end[1:] - starts[1:] != head_end[:-1] - starts[:-1])
                | (ends[1:] - tail_start[1:] != ends[:-1] - tail_start[:-1])
            )
            # The last 8 digits of the record id tell neighbouring records apart.
            sample = windows[np.maximum(head_end - 9, 0)].view(np.uint64).ravel()
            new[1:] |= sample[1:] != sample[:-1]
        bounds = new.nonzero()[0]
        stops = np.append(bounds[1:], n)
        long = (stops - bounds > 1).nonzero()[0]
        if not long.size:
            return bounds, stops
        split: list[int] = []
        for a, b in zip(bounds[long].tolist(), stops[long].tolist()):
            s, e0, e1 = int(starts[a]), int(ends[a]), int(ends[b - 1])
            head = data[s : int(head_end[a])]
            tail = data[int(tail_start[a]) : e0]
            joined = data.count(tail + b"\n" + head, e0 - len(tail), e1) == b - a - 1
            if not (joined and data.endswith(tail, e0, e1)):
                split.extend(range(a + 1, b))
        if split:
            bounds = np.union1d(bounds, split)
            stops = np.append(bounds[1:], n)
        return bounds, stops

    def _columns(
        self, mods: np.ndarray, kinds: np.ndarray, ns: np.ndarray, ne: np.ndarray
    ) -> np.ndarray:
        """Column index of each line's counter, assigning new names first-seen.

        Names up to 32 bytes are keyed by their words, zeroed past the
        name by a mask picked by its length, the length and the (module,
        kind); the key is hashed, grouped, and every line is then checked
        against its group's first line.
        """
        full = self.full
        n = mods.size
        nlen = ne - ns
        bulk = (nlen <= _NAME_WIDTH) & (ns + _NAME_WIDTH <= full.size)
        group = np.empty(n, dtype=np.int64)
        first_lines: list[int] = []  # the first line of each group
        if bulk.any():
            sel = bulk.nonzero()[0]
            n_words = min(_NAME_WIDTH // 8, -(-int(nlen[sel].max()) // 8) or 1)
            window = self._windows(8 * n_words)[ns[sel]]
            words = window.view(np.uint64) & _NAME_MASKS[n_words][nlen[sel]]
            tag = (mods[sel] * 2 + kinds[sel]) << 8 | nlen[sel]
            key = words @ _HASH_MIX[:n_words] ^ tag.astype(np.uint64)
            first, inverse = _first_seen_groups(key)
            exact = (words == words[first[inverse]]).all() and (tag == tag[first[inverse]]).all()
            if not exact:  # a hash collision: group by the bytes themselves
                exact_key = np.column_stack([words, tag.astype(np.uint64)])
                first, inverse = _first_seen_groups(exact_key)
            group[sel] = inverse
            first_lines = sel[first].tolist()
        for j in (~bulk).nonzero()[0].tolist():
            group[j] = len(first_lines)
            first_lines.append(j)
        col_of = [0] * len(first_lines)
        picks = np.array(first_lines, dtype=np.int64)
        data, modules = self.data, self.module_list
        firsts = zip(
            first_lines,
            range(len(first_lines)),
            mods[picks].tolist(),
            kinds[picks].tolist(),
            ns[picks].tolist(),
            ne[picks].tolist(),
        )
        for _, g, m, k, a, b in sorted(firsts):
            table = modules[m].names[k]
            col_of[g] = table.setdefault(data[a:b].decode("utf-8", "surrogatepass"), len(table))
        return np.array(col_of, dtype=np.int64)[group]

    # -- the canonical layout ------------------------------------------------------

    def _layout_is_canonical(self, header: str) -> bool:
        """Whether the lines read are the writer's: header, then each module's section."""
        expected = _line_items(header)
        for mod in sorted(self.module_list, key=lambda m: m.order):
            expected.extend(_line_items(section_header(mod.name)))
            expected.extend(("r", mod.order, row) for row in range(len(mod.path)))
            expected.append(("",))
        items = sorted(self.line_items + [tuple(item) for item in self.run_items])
        next_line = 0
        for first, last, _ in items:
            if first != next_line:
                return False
            next_line = last + 1
        return next_line == self.n_lines and [item for _, _, item in items] == expected


def _line_items(chunk: str) -> list[tuple]:
    """Layout items of rendered lines: ``("#", line)`` per comment, ``("",)`` per empty."""
    return [("#", line) if line else ("",) for line in chunk.split("\n")[:-1]]


def _first_seen_groups(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal keys (rows, for a 2-D key): (first index of each group, group of each).

    Groups are numbered in order of first appearance.
    """
    if key.ndim == 1:
        order = np.argsort(key)
        sorted_key = key[order]
        new = np.empty(key.size, dtype=bool)
        new[:1] = True
        new[1:] = sorted_key[1:] != sorted_key[:-1]
        inverse = np.empty(key.size, dtype=np.int64)
        inverse[order] = np.cumsum(new) - 1
        n_groups = int(new.sum())
    else:
        _, inverse = np.unique(key, axis=0, return_inverse=True)
        inverse = inverse.ravel()
        n_groups = int(inverse.max()) + 1
    first = np.full(n_groups, key.shape[0], dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(key.shape[0]))
    renumber = np.empty(n_groups, dtype=np.int64)
    by_appearance = np.argsort(first)
    renumber[by_appearance] = np.arange(n_groups)
    return first[by_appearance], renumber[inverse]


def _scan_counters(text: str, lenient: bool) -> _CounterScan:
    """Scan the counter section, normalizing rare line breaks first."""
    if not text.isascii() and any(c in text for c in _WIDE_BREAKS):
        return _normalized_scan(text, lenient)
    scan = _CounterScan(text, lenient)
    try:
        scan.scan()
    except _Rescan:
        return _normalized_scan(text, lenient)
    return scan


def _normalized_scan(text: str, lenient: bool) -> _CounterScan:
    lines = text.splitlines()
    scan = _CounterScan("\n".join(lines) + "\n" if lines else "", lenient)
    scan.canonical = False
    scan.scan()
    return scan


def _header_value(
    fields: dict[str, str],
    name: str,
    convert: Callable[[str], _T],
    valid: Callable[[_T], bool] = lambda value: True,
) -> _T:
    """Convert one required header field, naming it if the value is malformed."""
    try:
        value = convert(fields[name])
    except ValueError:
        value = None
    if value is None or not valid(value):
        raise DarshanParseError(f"header field {name!r}: invalid value {fields[name]!r}")
    return value


def _renders(seconds: int) -> bool:
    """Whether the writer can render ``seconds`` as the header's UTC date."""
    try:
        ascii_time(seconds)
    except (OverflowError, OSError, ValueError):
        return False
    return True


def parse_darshan_text_with_report(
    text: str, *, lenient: bool = False
) -> tuple[DarshanLog, ParseReport]:
    """Parse darshan-parser text; returns the log plus a :class:`ParseReport`."""
    scan = _scan_counters(text, lenient)
    skipped = scan.skipped

    header_fields = scan.header_fields
    required = ("exe", "uid", "jobid", "start_time", "end_time", "nprocs", "run time")
    missing = [k for k in required if k not in header_fields]
    if missing:
        # Even lenient parsing needs a job header to anchor the log.
        raise DarshanParseError(f"missing header fields: {missing}")
    header = JobHeader(
        exe=header_fields["exe"],
        uid=_header_value(header_fields, "uid", int),
        jobid=_header_value(header_fields, "jobid", int),
        nprocs=_header_value(header_fields, "nprocs", int, lambda n: n > 0),
        start_time=_header_value(header_fields, "start_time", int, _renders),
        end_time=_header_value(header_fields, "end_time", int),
        run_time=_header_value(header_fields, "run time", float, lambda t: not t < 0),
        log_version=header_fields.get("darshan log version", "3.41"),
        mounts=scan.mounts,
    )
    scan.reject_ranks_past(header.nprocs)

    dxt_segments = None
    dxt_lines = 0
    total_lines = scan.n_lines
    dxt_text = scan.dxt_text()
    if dxt_text is not None:
        from repro.darshan.dxt import parse_dxt_lines

        lines = dxt_text.splitlines()
        total_lines += len(lines)
        dxt_skipped: list[tuple[int, str, str]] = []
        try:
            table = parse_dxt_lines(
                lines, lenient=lenient, skipped=dxt_skipped if lenient else None
            )
        except DarshanParseError:
            raise
        except ValueError as exc:
            raise DarshanParseError(str(exc)) from exc
        for sub_lineno, sub_text, reason in dxt_skipped:
            skipped.append(
                SkippedLine(lineno=scan.n_lines + sub_lineno, text=sub_text, reason=reason)
            )
        dxt_lines = len(table)
        dxt_segments = table if len(table) else None

    log = DarshanLog(header, dxt_segments=dxt_segments, counter_table=scan.table(header))
    report = ParseReport(
        total_lines=total_lines,
        record_lines=scan.record_lines,
        dxt_lines=dxt_lines,
        skipped=tuple(skipped),
    )
    return log, report


def parse_darshan_text(text: str, *, lenient: bool = False) -> DarshanLog:
    """Parse darshan-parser text into a structured log.

    ``lenient=True`` skips-and-counts malformed lines instead of raising;
    use :func:`parse_darshan_text_with_report` to see what was skipped.
    """
    log, _report = parse_darshan_text_with_report(text, lenient=lenient)
    return log
