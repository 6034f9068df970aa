"""Darshan eXtended Tracing (DXT) — the paper's future-work extension.

The paper works from standard Darshan counters and "leave[s] working with
Darshan DXT traces as future work" (§II-A).  This module implements that
extension: per-operation event records (file, rank, operation, offset,
length, start/end time — the fields DXT captures) taken from the data
rows of the runtime's executed-op table, the same table the counter
instrumentation reduces, a ``darshan-dxt-parser``-style text rendering
(and its inverse), and the temporal analysis a DXT-aware IOAgent summary
category can feed the LLM.

Segments are stored columnar (:class:`~repro.darshan.segtable.
SegmentTable`, one numpy array per field) and every kernel here is a
vectorized array sweep — per-rank reductions via ``np.bincount`` on rank
codes, concurrency via a sorted event-delta prefix sum, idle analysis via
sorted interval arrays and ``np.maximum.accumulate``, file skew via
grouped reductions on path codes.  The scalar per-object reference
implementations these were validated against live in the test suite
(``tests/dxt_reference.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.darshan.segtable import (
    NO_OST,
    READ_CODE,
    DxtSegment,
    SegmentTable,
    SegmentTableBuilder,
    as_table,
    group_bounds,
)
from repro.llm.facts import Fact
from repro.sim.filesystem import LustreFileSystem
from repro.sim.ops import API, IOOp, OpKind
from repro.sim.optable import APIS, IN_FS, KIND_CODE, OpTable, OpTableBuilder

__all__ = [
    "DxtSegment",
    "SegmentTable",
    "DxtCollector",
    "collect_segments",
    "render_dxt_text",
    "parse_dxt_text",
    "parse_dxt_lines",
    "dxt_digest",
    "dxt_timeline_facts",
    "app_level_segments",
    "dxt_temporal_facts",
    "cached_temporal_facts",
]


_MODULE_TAG = {API.POSIX: "X_POSIX", API.MPIIO: "X_MPIIO", API.STDIO: "X_STDIO"}
_DATA_KINDS = frozenset({OpKind.READ, OpKind.WRITE})

DXT_TEXT_HEADER = "# DXT trace (module, rank, wt/rd, segment, offset, length, start, end, ost)"

# Darshan's own per-record segment limit, as the collector's default cap.
DEFAULT_MAX_SEGMENTS = 1_000_000


def collect_segments(
    ops: OpTable, max_segments: int = DEFAULT_MAX_SEGMENTS
) -> tuple[SegmentTable, int]:
    """The DXT segments of an executed-op table, and how many were dropped.

    A segment is a data row (READ or WRITE), in execution order, up to
    ``max_segments``; ``dropped`` counts the data rows past the cap.
    Module and path codes are assigned in first-seen order.  A row on
    the table's filesystem is stamped with the OST storing the stripe
    that holds its first byte (``LustreFileSystem.serving_ost``), worked
    out for all rows at once from each file's layout; other rows stay
    unattributed.
    """
    rows = ops.data_rows()
    dropped = max(0, rows.size - max_segments)
    rows = rows[:max_segments]
    module_code, apis = _first_seen(ops.api[rows])
    path_code, codes = _first_seen(ops.path[rows])
    paths = tuple(ops.paths[code] for code in codes.tolist())
    offset = ops.offset[rows]
    ost = np.full(rows.size, NO_OST, dtype=np.int32)
    fs = ops.fs
    attributed = (ops.flags[rows] & IN_FS) != 0
    if fs is not None and attributed.any():
        # Per path: stripe size, width and where its OST ids start in one
        # list; a path outside the mount serves from NO_OST.
        served = set(path_code[attributed].tolist())
        layouts = [
            fs.layout_for(p) if i in served and fs.contains(p) else None
            for i, p in enumerate(paths)
        ]
        stripe = np.array([lay.stripe_size if lay else 1 for lay in layouts], dtype=np.int64)
        width = np.array([lay.stripe_width if lay else 1 for lay in layouts], dtype=np.int64)
        ost_ids = [lay.ost_ids if lay else (NO_OST,) for lay in layouts]
        first = np.cumsum([0] + [len(ids) for ids in ost_ids[:-1]])
        flat = np.array([o for ids in ost_ids for o in ids], dtype=np.int32)
        p = path_code[attributed]
        ost[attributed] = flat[first[p] + (offset[attributed] // stripe[p]) % width[p]]
    table = SegmentTable(
        modules=tuple(_MODULE_TAG[APIS[a]] for a in apis.tolist()),
        paths=paths,
        module_code=module_code.astype(np.uint8),
        path_code=path_code.astype(np.int32),
        op_code=(ops.kind[rows] == KIND_CODE[OpKind.WRITE]).astype(np.uint8),
        rank=ops.rank[rows].astype(np.int64),
        offset=offset,
        length=ops.size[rows],
        start=ops.start[rows],
        end=ops.end[rows],
        ost=ost,
    )
    return table, dropped


def _first_seen(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Renumber ``codes`` 0.. in first-seen order; also the codes in that order."""
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    renumber = np.empty(distinct.size, dtype=np.int64)
    renumber[by_first] = np.arange(distinct.size)
    return renumber[inverse.ravel()], distinct[by_first]


class DxtCollector:
    """Per-operation segments, as a hand-driven observer of single ops.

    Unlike the counter instrumentation, DXT keeps *every* data operation,
    which is why real deployments leave it off by default (the overhead
    the paper mentions).  A simulated run's segments come from its
    executed-op table (:func:`collect_segments`); this class takes ops
    one at a time through :meth:`on_op`, appends each as one row of the
    same kind of table, and reduces the rows the same way.
    ``max_segments`` bounds memory like Darshan's own per-record segment
    limit; excess operations are counted in ``dropped`` but not stored.
    """

    def __init__(self, max_segments: int = DEFAULT_MAX_SEGMENTS) -> None:
        if max_segments <= 0:
            raise ValueError("max_segments must be positive")
        self.max_segments = max_segments
        self._rows = OpTableBuilder()
        self._table: SegmentTable | None = None
        self.dropped = 0

    def on_op(self, op: IOOp, t_start: float, t_end: float, fs: LustreFileSystem | None) -> None:
        """Append one data op; metadata ops are not DXT segments.

        When the filesystem serving the path is known, the segment is
        stamped with its serving OST id (the server-attribution column,
        like real Lustre DXT's per-segment OST list); otherwise the
        segment stays unattributed, as in parsed text traces.
        """
        if op.kind not in _DATA_KINDS:
            return
        if len(self._rows) >= self.max_segments:
            self.dropped += 1
            return
        self._rows.append(op, t_start, t_end, fs)

    @property
    def segments(self) -> SegmentTable:
        """The collected segments as a columnar table (memoized per count)."""
        if self._table is None or len(self._table) != len(self._rows):
            self._table, _ = collect_segments(self._rows.build(), self.max_segments)
        return self._table

    def by_rank(self) -> dict[int, list[DxtSegment]]:
        """Segments grouped per rank, preserving issue order."""
        out: dict[int, list[DxtSegment]] = {}
        for seg in self.segments:
            out.setdefault(seg.rank, []).append(seg)
        return out


# ---------------------------------------------------------------------------
# Text serialization (darshan-dxt-parser format) and content digest
# ---------------------------------------------------------------------------


def render_dxt_text(segments) -> str:
    """Render segments in darshan-dxt-parser's tabular format."""
    table = as_table(segments)
    lines = [DXT_TEXT_HEADER]
    if len(table):
        # Per-stream segment index = cumulative count within each
        # (module, rank, path) stream, in issue order — computed as a
        # grouped running count instead of a per-row dict sweep.
        stacked = np.stack(
            [table.module_code.astype(np.int64), table.rank, table.path_code.astype(np.int64)]
        )
        _, inverse = np.unique(stacked, axis=1, return_inverse=True)
        inverse = inverse.ravel()
        order, firsts, counts = group_bounds(inverse)
        within = np.empty(inverse.size, dtype=np.int64)
        within[order] = np.arange(inverse.size) - np.repeat(firsts, counts)
        indices = within.tolist()
        modules, paths, operations = table.modules, table.paths, table.operations
        rows = zip(
            table.module_code.tolist(),
            table.rank.tolist(),
            table.op_code.tolist(),
            table.offset.tolist(),
            table.length.tolist(),
            table.start.tolist(),
            table.end.tolist(),
            table.ost.tolist(),
            table.path_code.tolist(),
        )
        for i, (m, rank, o, offset, length, start, end, ost, p) in enumerate(rows):
            ost_token = "-" if ost == NO_OST else str(ost)
            lines.append(
                f"{modules[m]:8s} {rank:5d} {operations[o]:5s} {indices[i]:7d} "
                f"{offset:12d} {length:10d} {start:10.4f} {end:10.4f} {ost_token:>4s}"
                f"  {paths[p]}"
            )
    return "\n".join(lines) + "\n"


def parse_dxt_text(
    text: str,
    *,
    lenient: bool = False,
    skipped: list[tuple[int, str, str]] | None = None,
) -> SegmentTable:
    """Parse :func:`render_dxt_text` output back into a segment table.

    The inverse of the text rendering, so exported traces keep the
    temporal channel.  Start/end times are quantized to the rendering's
    1e-4 s resolution; integer fields round-trip exactly, including the
    server-attribution ``ost`` column (``-`` marks an unattributed
    segment).  Nine-field lines — the pre-ost export format — still parse,
    degrading to an unattributed table.  Comment and blank lines are
    skipped, matching the counter-text parser's tolerance.

    ``lenient=True`` skips malformed segment lines (truncated, garbled,
    unparseable numbers, a rank below 0) instead of raising; each drop is
    appended to ``skipped`` (when given) as ``(lineno, line, reason)`` so
    callers can fold them into a :class:`~repro.darshan.parser.ParseReport`.
    """
    return parse_dxt_lines(text.splitlines(), lenient=lenient, skipped=skipped)


def _converted(tokens: Sequence[str], convert, errors: dict[int, str], few: bool = False) -> list:
    """``convert`` over a column; a failing row gets ``None`` and an error.

    Only a row's first error is kept: columns are converted in the order
    a segment's fields are read.  A column of ``few`` distinct tokens
    (rank, ost) converts each distinct token once.
    """
    try:
        if few:
            distinct = dict.fromkeys(tokens)
            for token in distinct:
                distinct[token] = convert(token)
            return list(map(distinct.__getitem__, tokens))
        return list(map(convert, tokens))
    except ValueError:
        values: list = []
        for i, token in enumerate(tokens):
            try:
                values.append(convert(token))
            except ValueError as exc:
                values.append(None)
                errors.setdefault(i, str(exc))
        return values


def _ost(token: str) -> int:
    return NO_OST if token == "-" else int(token)


# A segment is one process's operation: unlike a counter record, it has
# no shared rank (-1), so any rank below 0 is rejected.
_NEGATIVE_SEGMENT_RANK = "rank {} is below 0; a DXT segment belongs to one process"


def _segment_rank(token: str) -> int:
    rank = int(token)
    if rank < 0:
        raise ValueError(_NEGATIVE_SEGMENT_RANK.format(rank))
    return rank


def _split_segment(line: str) -> list[str]:
    """The ten fields of a segment line (a legacy nine-field line gets ``-``)."""
    parts = line.split(None, 9)
    if len(parts) == 9 or (len(parts) == 10 and not (parts[8] == "-" or parts[8].isdigit())):
        # A legacy (pre-ost) export line: either exactly 9 fields, or
        # more because its path contains whitespace — re-split with
        # the path last and mark the segment unattributed.
        legacy = line.split(None, 8)
        parts = legacy[:8] + ["-"] + legacy[8:]
    return parts


def parse_dxt_lines(
    lines: list[str],
    *,
    lenient: bool = False,
    skipped: list[tuple[int, str, str]] | None = None,
) -> SegmentTable:
    """:func:`parse_dxt_text` over the text's ``splitlines()``.

    Each line is split once; the fields are then checked and converted a
    whole column at a time and handed to the table builder in bulk.
    """
    stripped = list(map(str.strip, lines))
    kept = [i for i, line in enumerate(stripped) if line and line[0] != "#"]
    if not kept:
        return SegmentTable.empty()
    texts = [stripped[i] for i in kept]
    rows = [line.split(None, 9) for line in texts]
    errors: dict[int, str] = {}
    fields = list(zip(*rows)) if set(map(len, rows)) == {10} else []
    if not fields or not all(t == "-" or t.isdigit() for t in set(fields[8])):
        # Legacy lines, or lines of the wrong width: one at a time.
        rows = list(map(_split_segment, texts))
        for i, row in enumerate(rows):
            if len(row) != 10:
                errors[i] = (
                    f"DXT line {kept[i] + 1}: expected 9 or 10 whitespace-separated "
                    f"fields, got {len(row)}"
                )
                rows[i] = ["", "0", "read", "0", "0", "0", "0", "0", "-", ""]
        fields = list(zip(*rows))
    module, rank, operation, _index, offset, length, start, end, ost, path = fields
    if not set(operation) <= {"read", "write"}:
        for i, op in enumerate(operation):
            if op not in ("read", "write"):
                errors.setdefault(
                    i, f"DXT line {kept[i] + 1}: unknown operation {op!r} (expected read/write)"
                )
    columns = [
        _converted(tokens, convert, errors, few)
        for tokens, convert, few in (
            (rank, _segment_rank, True),
            (offset, int, False),
            (length, int, False),
            (start, float, False),
            (end, float, False),
            (ost, _ost, True),
        )
    ]
    if errors:
        if not lenient:
            raise ValueError(errors[min(errors)])
        if skipped is not None:
            skipped.extend((kept[i] + 1, texts[i], errors[i]) for i in sorted(errors))
        good = [i for i in range(len(rows)) if i not in errors]

        def pick(column: Sequence) -> list:
            return [column[i] for i in good]

        module, path, operation = pick(module), pick(path), pick(operation)
        columns = [pick(column) for column in columns]
    builder = SegmentTableBuilder()
    builder.extend(module, columns[0], path, operation, *columns[1:])
    return builder.build()


def dxt_digest(segments) -> str:
    """Fast stable content digest of a segment table.

    Hot path of the service cache (every request digests the trace), so
    the table's column buffers are hashed directly plus the compact
    string dictionaries — no per-segment iteration, no text rendering.
    """
    return as_table(segments).digest()


# ---------------------------------------------------------------------------
# Timeline analysis (phases and bursts)
# ---------------------------------------------------------------------------


def dxt_timeline_facts(
    segments,
    n_bins: int = 20,
    burst_threshold: float = 3.0,
) -> list[Fact]:
    """Timeline analysis: I/O phases and bursts, as LLM-ready facts.

    Bins the run into ``n_bins`` equal time slices, finds slices whose
    traffic exceeds ``burst_threshold``x the mean (checkpoint-style
    bursts), and reports the read->write phase structure — the kind of
    temporal insight counter-only Darshan cannot provide.
    """
    table = as_table(segments)
    if not len(table):
        return []
    starts = table.start
    t0 = float(starts.min())
    t1 = float(table.end.max())
    span = max(t1 - t0, 1e-9)
    lengths = table.length.astype(np.float64)
    bins = np.minimum(((starts - t0) / span * n_bins).astype(int), n_bins - 1)
    traffic = np.bincount(bins, weights=lengths, minlength=n_bins)
    mean_traffic = traffic.mean()
    n_bursts = (
        int(np.count_nonzero(traffic > burst_threshold * mean_traffic)) if mean_traffic > 0 else 0
    )

    # Phase signature: midpoint of read traffic vs write traffic.  Proper
    # boolean masks with explicit empty guards: a op kind with segments
    # but zero bytes still counts as present (and an empty selection can
    # never reach np.mean, which would yield NaN).
    read_mask = table.op_code == READ_CODE
    has_reads = bool(read_mask.any())
    has_writes = bool((~read_mask).any())
    read_mid = float(starts[read_mask].mean()) if has_reads else t0
    write_mid = float(starts[~read_mask].mean()) if has_writes else t0
    phase = "read-then-write" if read_mid < write_mid else "write-then-read"
    if not (has_reads and has_writes):
        phase = "read-only" if has_reads else "write-only"

    return [
        Fact(
            "dxt_timeline",
            {
                "n_segments": len(table),
                "span_s": float(span),
                "n_bursts": n_bursts,
                "peak_to_mean": float(traffic.max() / mean_traffic) if mean_traffic else 0.0,
                "phase": phase,
            },
        )
    ]


# ---------------------------------------------------------------------------
# Temporal evidence extraction (the channel counters cannot provide)
# ---------------------------------------------------------------------------


def _app_level_mask(table: SegmentTable) -> np.ndarray:
    """Row mask selecting segments at the interface the application called."""
    module_codes = {name: code for code, name in enumerate(table.modules)}
    posix = module_codes.get("X_POSIX")
    mpiio = module_codes.get("X_MPIIO")
    if posix is None or mpiio is None:
        return np.ones(len(table), dtype=bool)
    mpiio_paths = np.unique(table.path_code[table.module_code == mpiio])
    lowered = (table.module_code == posix) & np.isin(table.path_code, mpiio_paths)
    return ~lowered


def app_level_segments(segments) -> SegmentTable:
    """Segments at the interface the application called.

    MPI-IO operations lower to POSIX transfers (independent 1:1, collectives
    through aggregators), so a file with X_MPIIO segments also carries
    X_POSIX ones that describe ROMIO's work, not the application's.  Rank
    analysis over the raw stream would mistake collective-buffering
    aggregators for stragglers; dropping lowered POSIX segments sees through
    them, the same way counter-level rank analysis prefers MPIIO records.
    """
    table = as_table(segments)
    mask = _app_level_mask(table)
    if mask.all():
        return table
    return table.take(mask)


class _SortedEvents:
    """One time-sorted (start, +1) / (end, -1) event array for a table.

    The concurrency and idle kernels both need the table's events in time
    order; sharing one sort removes the double lexsort the PR 4 ROADMAP
    flagged.  The stable argsort over ``[starts..., ends...]`` places
    starts before ends at equal timestamps, so the running ``cumsum`` of
    ``deltas`` is a true non-negative in-flight count and busy windows
    never split at touching boundaries.  Quantities that depend on the
    *other* tie order (the scalar reference's peak-in-flight counts ends
    first) are recovered at distinct-time run boundaries, where the order
    of equal-time events cannot matter.
    """

    __slots__ = ("t", "deltas", "row")

    def __init__(self, table: SegmentTable) -> None:
        n = len(table)
        times = np.concatenate([table.start, table.end])
        order = np.argsort(times, kind="stable")
        self.t = times[order]
        self.deltas = np.where(order < n, 1, -1).astype(np.int64)
        self.row = np.where(order < n, order, order - n)

    def subset(self, row_mask: np.ndarray) -> "_SortedEvents":
        """Events of a row subset, still sorted (a filtered sorted array
        stays sorted, with the same within-tie ordering)."""
        keep = row_mask[self.row]
        sub = _SortedEvents.__new__(_SortedEvents)
        sub.t = self.t[keep]
        sub.deltas = self.deltas[keep]
        sub.row = self.row[keep]
        return sub

    def run_ends(self) -> np.ndarray:
        """Mask of the last event at each distinct timestamp."""
        mask = np.empty(self.t.size, dtype=bool)
        if mask.size:
            mask[:-1] = self.t[1:] > self.t[:-1]
            mask[-1] = True
        return mask

    def busy_windows(self) -> tuple[np.ndarray, np.ndarray]:
        """Disjoint merged busy intervals, from the shared event sort.

        Equivalent to the classic interval-merge sweep: a window opens at
        a start event seen while nothing is in flight and closes when the
        in-flight count returns to zero.  Touching intervals never reach
        zero in between (starts sort first at ties), so they fuse exactly
        like the merge sweep fuses them.
        """
        inflight = np.cumsum(self.deltas)
        opened = np.concatenate([[0], inflight[:-1]]) == 0
        opens = (self.deltas > 0) & opened
        closes = inflight == 0
        return self.t[opens], self.t[closes]


def _merged_intervals(start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge (start, end) interval arrays into disjoint busy windows.

    Sort by (start, end), carry the running maximum end forward, and cut a
    new window wherever the next start exceeds it — the vectorized
    formulation of the classic merge sweep.
    """
    order = np.lexsort((end, start))
    s = start[order]
    e = end[order]
    running_end = np.maximum.accumulate(e)
    window_starts = np.empty(s.size, dtype=bool)
    window_starts[0] = True
    window_starts[1:] = s[1:] > running_end[:-1]
    firsts = np.flatnonzero(window_starts)
    lasts = np.concatenate([firsts[1:] - 1, [s.size - 1]])
    return s[firsts], running_end[lasts]


def _busy_coverage(busy_start: np.ndarray, busy_end: np.ndarray, t) -> np.ndarray:
    """Total busy time before ``t``, for disjoint sorted busy intervals."""
    t = np.asarray(t, dtype=np.float64)
    prefix = np.concatenate([[0.0], np.cumsum(busy_end - busy_start)])
    idx = np.searchsorted(busy_start, t, side="right")
    # Interval idx-1 starts at or before t; trim the part extending past t.
    prev = np.maximum(idx - 1, 0)
    overshoot = np.where(idx > 0, np.maximum(busy_end[prev] - np.maximum(t, busy_start[prev]), 0.0), 0.0)
    return prefix[idx] - overshoot


def _rank_groups(table: SegmentTable) -> tuple[np.ndarray, np.ndarray]:
    """(sorted unique ranks, per-segment group index)."""
    ranks, inverse = np.unique(table.rank, return_inverse=True)
    return ranks, inverse.ravel()


def _rank_skew_fact(app: SegmentTable) -> Fact | None:
    """Per-rank time skew: who occupies the longest I/O window, and why.

    Three ratios versus the median active rank: wall-clock span (first
    start to last end), busy I/O time, and byte volume.  A straggler shows
    span or time skew with the byte ratio pinned near 1.0 — the imbalance
    counters cannot see.
    """
    ranks, inverse = _rank_groups(app)
    if ranks.size < 4:
        return None
    times = np.bincount(inverse, weights=app.durations)
    volumes = np.bincount(inverse, weights=app.length.astype(np.float64))
    order, firsts, _counts = group_bounds(inverse)
    spans = (
        np.maximum.reduceat(app.end[order], firsts)
        - np.minimum.reduceat(app.start[order], firsts)
    )
    slowest = int(np.argmax(spans))
    med_span = float(np.median(spans))
    med_time = float(np.median(times))
    med_vol = float(np.median(volumes))
    if med_span <= 0 or med_time <= 0 or med_vol <= 0:
        return None
    return Fact(
        "dxt_rank_skew",
        {
            "slowest_rank": int(ranks[slowest]),
            "span_skew": float(spans[slowest] / med_span),
            "time_skew": float(times[slowest] / med_time),
            "bytes_ratio": float(volumes[slowest] / med_vol),
            "nprocs": int(ranks.size),
        },
    )


def _concurrency_fact(app: SegmentTable, events: _SortedEvents) -> Fact | None:
    """Mean/peak operations in flight while any I/O is outstanding.

    With N ranks doing independent I/O the mean sits near N; a mean near
    1.0 across many active ranks means the accesses are serialized — the
    lock-convoy signature no counter records.  One event-delta prefix sum
    over the shared sorted event array.
    """
    active_ranks = int(np.unique(app.rank).size)
    if active_ranks < 4:
        return None
    t = events.t
    inflight = np.cumsum(events.deltas)
    dt = np.diff(t)
    during = inflight[:-1]
    active = during > 0
    busy_time = float(dt[active].sum())
    if busy_time <= 0:
        return None
    weighted = float((during[active] * dt[active]).sum())
    # The scalar sweep sorts ends before starts at ties, so its peak is
    # the count settled between distinct timestamps — read the prefix sum
    # at run boundaries, where equal-time ordering cannot matter.
    peak = inflight[events.run_ends()].max(initial=0)
    return Fact(
        "dxt_concurrency",
        {
            "mean_inflight": float(weighted / busy_time),
            "peak_inflight": int(peak),
            "active_ranks": active_ranks,
        },
    )


def _idle_fact(raw: SegmentTable, events: _SortedEvents) -> Fact | None:
    """Idle-gap structure of the I/O timeline.

    Global gaps (no operation in flight anywhere) catch interference-style
    stalls.  ``stalled_ranks`` counts ranks that spend >= 25% of the span
    waiting *while other ranks kept doing I/O* — which distinguishes a
    producer/consumer hand-off stall from a deliberate all-ranks compute
    phase (where nobody is busy, so the waiting does not count).  The
    global busy windows come from the event sort shared with the
    concurrency kernel.
    """
    if not len(raw):
        return None
    busy_start, busy_end = events.busy_windows()
    t0 = float(busy_start[0])
    t1 = float(busy_end[-1])
    span = t1 - t0
    if span <= 0:
        return None
    gap_lo = busy_end[:-1]
    gap_hi = busy_start[1:]
    significant = (gap_hi - gap_lo) > 0.02 * span
    gap_sizes = (gap_hi - gap_lo)[significant]
    idle = float(gap_sizes.sum())

    ranks, inverse = _rank_groups(raw)
    order, firsts, counts = group_bounds(inverse)
    bounds = np.concatenate([firsts, [inverse.size]])
    starts_sorted = raw.start[order]
    ends_sorted = raw.end[order]
    stalled = 0
    for g in range(ranks.size):
        lo, hi = bounds[g], bounds[g + 1]
        rank_start, rank_end = _merged_intervals(starts_sorted[lo:hi], ends_sorted[lo:hi])
        # Leading wait plus internal gaps; trailing idle (an early finisher)
        # is not a stall.
        wait_lo = np.concatenate([[t0], rank_end[:-1]])
        wait_hi = np.concatenate([[rank_start[0]], rank_start[1:]])
        covered = float(
            (
                _busy_coverage(busy_start, busy_end, wait_hi)
                - _busy_coverage(busy_start, busy_end, wait_lo)
            ).sum()
        )
        if covered >= 0.25 * span:
            stalled += 1
    return Fact(
        "dxt_idle",
        {
            "span_s": float(span),
            "idle_fraction": float(idle / span),
            "n_gaps": int(np.count_nonzero(significant)),
            "longest_gap_s": float(gap_sizes.max(initial=0.0)),
            "stalled_ranks": stalled,
        },
    )


def _file_skew_fact(app: SegmentTable) -> Fact | None:
    """Per-file effective throughput skew among comparably-accessed files.

    Files are bucketed by mean request size (throughput legitimately
    differs between a 4 KiB log stream and 1 MiB bulk data); within the
    dominant bucket, one file sustaining a fraction of its peers' rate
    points at the server(s) behind it — a slow or overloaded OST that byte
    counters, being perfectly balanced, never show.
    """
    if not len(app):
        return None
    n_paths = len(app.paths)
    counts = np.bincount(app.path_code, minlength=n_paths)
    nbytes = np.bincount(app.path_code, weights=app.length.astype(np.float64), minlength=n_paths)
    busy = np.bincount(app.path_code, weights=app.durations, minlength=n_paths)
    eligible = np.flatnonzero((counts >= 8) & (nbytes >= 1024 * 1024) & (busy > 0))
    if eligible.size == 0:
        return None
    buckets = np.log2(np.maximum(1.0, nbytes[eligible] / counts[eligible])).astype(np.int64)
    unique_buckets, bucket_of = np.unique(buckets, return_inverse=True)
    bucket_of = bucket_of.ravel()
    totals = np.bincount(bucket_of, weights=nbytes[eligible])
    # Ties on total bytes keep the bucket whose first eligible path was
    # touched earliest — the scalar sweep's dict-insertion-order max().
    tied = np.flatnonzero(totals == totals.max())
    first_seen = np.full(unique_buckets.size, bucket_of.size, dtype=np.int64)
    np.minimum.at(first_seen, bucket_of, np.arange(bucket_of.size))
    best = int(tied[np.argmin(first_seen[tied])])
    # Path codes follow first-touch order, so the group keeps the same
    # ordering (and argmin tie-breaking) as the per-file dict sweep.
    group = eligible[bucket_of == best]
    if group.size < 4:
        return None
    rates = nbytes[group] / busy[group] / (1024 * 1024)
    median = float(np.median(rates))
    slow = int(np.argmin(rates))
    slow_mbps = float(rates[slow])
    if slow_mbps <= 0:
        return None
    return Fact(
        "dxt_file_skew",
        {
            "n_files": int(group.size),
            "slow_path": app.paths[int(group[slow])],
            "slow_mbps": slow_mbps,
            "median_mbps": median,
            "ratio": float(median / slow_mbps),
        },
    )


# Per-OST eligibility: an OST participates in server attribution once it
# served at least this many requests / bytes of the dominant size bucket,
# and the facts only emit with at least 4 eligible OSTs (a "median" over
# fewer servers is not a population to stand out from).
_OST_MIN_OPS = 4
_OST_MIN_BYTES = 1024 * 1024
# Slow servers cluster at the bottom of the rate range: every OST within
# 25% of the slowest one's rate is part of the degraded set.
_OST_SLOW_BAND = 1.25


def _ost_facts(app: SegmentTable) -> list[Fact]:
    """Per-OST server attribution: service-time skew and slow-server rates.

    Uses the ``ost`` column stamped by the collector; segments without
    attribution (parsed text traces, paths off the mount) are ignored, so
    counter-only logs degrade to no server facts at all.  Rates compare
    only within the dominant request-size bucket — like the file-skew
    kernel — because a log stream's 4 KiB requests legitimately sustain
    less bandwidth per server than 1 MiB bulk transfers.

    Two facts: ``dxt_ost_skew`` (the busiest server's share of service
    time versus its share of bytes — a degraded server absorbs time
    without absorbing traffic) and ``dxt_ost_latency`` (the slow-server
    set: every OST whose effective rate sits within 25% of the slowest
    one's, against the median OST's rate).
    """
    attributed = app.take(app.ost != NO_OST)
    if not len(attributed):
        return []
    lengths = attributed.length.astype(np.float64)
    buckets = np.log2(np.maximum(1.0, lengths)).astype(np.int64)
    unique_buckets, bucket_of = np.unique(buckets, return_inverse=True)
    bucket_of = bucket_of.ravel()
    totals = np.bincount(bucket_of, weights=lengths)
    # Ties on total bytes keep the bucket touched earliest, matching the
    # scalar sweep's dict-insertion-order max().
    tied = np.flatnonzero(totals == totals.max())
    first_seen = np.full(unique_buckets.size, bucket_of.size, dtype=np.int64)
    np.minimum.at(first_seen, bucket_of, np.arange(bucket_of.size))
    best = int(tied[np.argmin(first_seen[tied])])
    sel = attributed.take(bucket_of == best)

    osts, inverse = np.unique(sel.ost, return_inverse=True)
    inverse = inverse.ravel()
    counts = np.bincount(inverse)
    nbytes = np.bincount(inverse, weights=sel.length.astype(np.float64))
    busy = np.bincount(inverse, weights=sel.durations)
    eligible = np.flatnonzero(
        (counts >= _OST_MIN_OPS) & (nbytes >= _OST_MIN_BYTES) & (busy > 0)
    )
    if eligible.size < 4:
        return []
    e_osts = osts[eligible]
    e_bytes = nbytes[eligible]
    e_busy = busy[eligible]

    time_share = e_busy / float(e_busy.sum())
    bytes_share = e_bytes / float(e_bytes.sum())
    hot = int(np.argmax(time_share))
    rates = e_bytes / e_busy / (1024 * 1024)
    median = float(np.median(rates))
    slow_mbps = float(rates.min())
    slow = np.flatnonzero(rates <= _OST_SLOW_BAND * slow_mbps)
    return [
        Fact(
            "dxt_ost_skew",
            {
                "n_osts": int(eligible.size),
                "hot_ost": int(e_osts[hot]),
                "time_share": float(time_share[hot]),
                "bytes_share": float(bytes_share[hot]),
                "skew": float(time_share[hot] / bytes_share[hot]),
            },
        ),
        Fact(
            "dxt_ost_latency",
            {
                "n_osts": int(eligible.size),
                "slow_osts": [int(o) for o in e_osts[slow]],
                "slow_mbps": slow_mbps,
                "median_mbps": median,
                "ratio": float(median / slow_mbps),
            },
        ),
    ]


def dxt_temporal_facts(segments, n_bins: int = 20) -> list[Fact]:
    """Every temporal fact the DXT channel supports, as LLM-ready facts.

    Combines the timeline/burst summary with per-rank time skew,
    concurrency (serialization), idle-gap structure, per-file throughput
    skew, and per-OST server attribution — the evidence grounding
    time-domain pathologies (stragglers, lock convoys, interference
    stalls, slow-OST hotspots, degraded servers) that aggregate counters
    are blind to.
    """
    table = as_table(segments)
    if not len(table):
        return []
    app_mask = _app_level_mask(table)
    app = table if app_mask.all() else table.take(app_mask)
    # One event sort serves both time-domain kernels; the concurrency
    # kernel reads the app-level subset of it (still sorted).
    events = _SortedEvents(table)
    app_events = events if app is table else events.subset(app_mask)
    facts = dxt_timeline_facts(table, n_bins=n_bins)
    for fact in (
        _rank_skew_fact(app),
        _concurrency_fact(app, app_events),
        # Idle analysis sees the raw stream: a collective-buffering
        # aggregator between its application-level calls is busy moving
        # its group's data (lowered POSIX segments), not stalled.
        _idle_fact(table, events),
        _file_skew_fact(app),
    ):
        if fact is not None:
            facts.append(fact)
    facts.extend(_ost_facts(app))
    return facts


def cached_temporal_facts(log) -> list[Fact]:
    """Temporal facts of a :class:`~repro.darshan.log.DarshanLog`, memoized.

    Several consumers extract the same facts from the same log — the
    ``temporal`` pipeline stage (once per diagnosing tool) and each of
    Drishti's DXT triggers — and the segment sweeps still sort the event
    arrays, so the result is computed once and parked on the log (segments
    are immutable after collection, like ``dxt_digest_cache``).
    """
    if not log.dxt_segments:
        return []
    if log.dxt_facts_cache is None:
        log.dxt_facts_cache = dxt_temporal_facts(log.dxt_segments)
    return list(log.dxt_facts_cache)
