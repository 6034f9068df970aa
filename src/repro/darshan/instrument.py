"""Darshan-like instrumentation of the simulated runtime.

Reduces a run's executed-op table (:class:`~repro.sim.optable.OpTable`)
to counters with the same semantics real Darshan uses:

* sequential vs. consecutive detection per record (``SEQ_*`` counts ops at
  an offset >= the previous end, ``CONSEC_*`` at exactly the previous end);
* read/write switch counting per record;
* request-size histograms in Darshan's ten bins;
* the four most common access sizes and strides per record;
* memory/file alignment checks;
* per-rank byte and time tallies folded into fastest/slowest/variance
  counters by the shared-file reduction;
* a LUSTRE record per file residing on a Lustre mount.

Every counter is an array kernel over the whole table.  Counts, sums and
timestamps group rows by record; SEQ, CONSEC, strides and read/write
switches compare each row with the one before it in its (record, rank)
stream, where a seek moves the position; time totals add each group's
values in execution order, so every float equals what adding op by op
gives.
"""

from __future__ import annotations

import numpy as np

from repro.darshan.counters import (
    LUSTRE_COUNTERS,
    MODULE_COUNTERS,
    MODULE_F_COUNTERS,
    N_ACCESS_SLOTS,
    N_STRIDE_SLOTS,
    SIZE_BIN_EDGES,
    SIZE_BIN_SUFFIXES,
)
from repro.darshan.countertable import CounterColumns, CounterTable, ModuleCounters
from repro.darshan.log import MODULE_ORDER, DarshanLog, JobHeader
from repro.sim.filesystem import LustreFileSystem
from repro.sim.ops import API, IOOp, OpKind
from repro.sim.optable import (
    COLLECTIVE,
    IN_FS,
    KIND_CODE,
    MEM_NOT_ALIGNED,
    NONBLOCKING,
    OpTable,
    OpTableBuilder,
)
from repro.sim.runtime import JobSpec

__all__ = ["DarshanInstrument"]

_OPEN = KIND_CODE[OpKind.OPEN]
_READ = KIND_CODE[OpKind.READ]
_WRITE = KIND_CODE[OpKind.WRITE]
_SEEK = KIND_CODE[OpKind.SEEK]
_STAT = KIND_CODE[OpKind.STAT]
_SYNC = KIND_CODE[OpKind.SYNC]
_CLOSE = KIND_CODE[OpKind.CLOSE]
_SYNC_COUNTER = {"POSIX": "POSIX_FSYNCS", "MPIIO": "MPIIO_SYNCS", "STDIO": "STDIO_FLUSHES"}
# (direction, volume word, kind code) of the two data directions.
_DIRECTIONS = (("READ", "READ", _READ), ("WRITE", "WRITTEN", _WRITE))
# Position of each API code's module in the log.
_MODULE_RANK = np.array([MODULE_ORDER.index(api.value) for api in API], dtype=np.int64)


class DarshanInstrument:
    """Build a :class:`DarshanLog` from the ops one job executed."""

    def __init__(self, spec: JobSpec, fs: LustreFileSystem) -> None:
        self._spec = spec
        self._fs = fs
        self._rows = OpTableBuilder()

    def on_op(self, op: IOOp, t_start: float, t_end: float, fs: LustreFileSystem | None) -> None:
        """Append one executed op, for callers that drive the instrument by hand.

        ``fs`` is the filesystem holding ``op.path`` (``None`` outside
        every mount).  :meth:`finalize` reduces the appended rows.
        """
        self._rows.append(op, t_start, t_end, fs)

    def finalize(self, run_time: float | None = None, ops: OpTable | None = None) -> DarshanLog:
        """Reduce ``ops`` (default: the rows given to :meth:`on_op`) to a log.

        Files touched by more than one rank collapse into a shared record
        (rank -1) with fastest/slowest/variance counters filled in, exactly
        like Darshan's shared-file reduction at MPI_Finalize.  ``run_time``
        defaults to the latest end of any op.
        """
        table = ops if ops is not None else self._rows.build()
        if run_time is None:
            run_time = max(0.0, float(table.end.max())) if len(table) else 0.0
        run_time = float(run_time)
        spec = self._spec
        header = JobHeader(
            exe=spec.exe,
            uid=spec.uid,
            jobid=spec.jobid,
            nprocs=spec.nprocs,
            start_time=spec.start_time,
            end_time=spec.start_time + int(round(run_time)),
            run_time=run_time,
            mounts=[(self._fs.mount_point, self._fs.fs_type)],
        )
        return DarshanLog(header, counter_table=_reduce(table))


def _reduce(table: OpTable) -> CounterTable:
    """The counters of every (module, path) record the ops in ``table`` touched."""
    if not len(table):
        return CounterTable()
    paths = table.paths
    # Number records in log order: by module, then by path.
    path_rank = np.empty(len(paths), dtype=np.int64)
    path_rank[sorted(range(len(paths)), key=paths.__getitem__)] = np.arange(len(paths))
    module = _MODULE_RANK[table.api]
    keys, first_row, record = np.unique(
        module * len(paths) + path_rank[table.path], return_index=True, return_inverse=True
    )
    record = record.ravel()
    key_module = keys // len(paths)
    modules = []
    for position, name in enumerate(MODULE_ORDER[:-1]):
        lo, hi = np.searchsorted(key_module, [position, position + 1])
        if lo < hi:
            rows = np.flatnonzero(module == position)
            if rows.size == len(table):
                rows = slice(None)  # one module: read the columns, don't copy them
            modules.append(
                _module_counters(name, table, rows, record[rows] - lo, first_row[lo:hi], lo)
            )
    lustre = _lustre_counters(table, first_row, keys.size)
    if lustre is not None:
        modules.append(lustre)
    return CounterTable(modules)


def _module_counters(
    module: str,
    table: OpTable,
    rows: np.ndarray | slice,
    rec: np.ndarray,
    first_row: np.ndarray,
    seq: int,
) -> ModuleCounters:
    """One module's records: ``rows`` of the table, ``rec`` their record (0..).

    ``first_row`` is each record's first row in the table, ``seq`` the
    position of its first record in the log.
    """
    n_rec = first_row.size
    kind = table.kind[rows]
    flags = table.flags[rows]
    rank = table.rank[rows]
    offset = table.offset[rows]
    size = table.size[rows]
    start = table.start[rows]
    end = table.end[rows]
    dt = end - start
    ints: dict[str, np.ndarray] = {}
    floats: dict[str, np.ndarray] = {}

    def count(mask: np.ndarray) -> np.ndarray:
        return np.bincount(rec[mask], minlength=n_rec)

    is_open = kind == _OPEN
    collective = (flags & COLLECTIVE) != 0
    nonblocking = (flags & NONBLOCKING) != 0
    if module == "MPIIO":
        ints["MPIIO_COLL_OPENS"] = count(is_open & collective)
        ints["MPIIO_INDEP_OPENS"] = count(is_open & ~collective)
    else:
        ints[f"{module}_OPENS"] = count(is_open)
        ints[f"{module}_SEEKS"] = count(kind == _SEEK)
    if module == "POSIX":
        ints["POSIX_STATS"] = count(kind == _STAT)
    ints[_SYNC_COUNTER[module]] = count(kind == _SYNC)
    is_close = kind == _CLOSE
    floats[f"{module}_F_OPEN_START_TIMESTAMP"] = _stamps(rec[is_open], start[is_open], n_rec, "min")
    floats[f"{module}_F_OPEN_END_TIMESTAMP"] = _stamps(rec[is_open], end[is_open], n_rec, "max")
    floats[f"{module}_F_CLOSE_END_TIMESTAMP"] = _stamps(rec[is_close], end[is_close], n_rec, "max")

    is_data = (kind == _READ) | (kind == _WRITE)
    for direction, volume, code in _DIRECTIONS:
        mask = kind == code
        if module == "MPIIO":
            ints[f"MPIIO_COLL_{direction}S"] = count(mask & collective)
            ints[f"MPIIO_NB_{direction}S"] = count(mask & ~collective & nonblocking)
            ints[f"MPIIO_INDEP_{direction}S"] = count(mask & ~collective & ~nonblocking)
        else:
            ints[f"{module}_{direction}S"] = count(mask)
        ints[f"{module}_BYTES_{volume}"] = _int_sums(rec[mask], size[mask], n_rec)
        if module != "MPIIO":
            extent = mask & (size > 0)
            last_byte = np.zeros(n_rec, dtype=np.int64)
            np.maximum.at(last_byte, rec[extent], offset[extent] + size[extent] - 1)
            ints[f"{module}_MAX_BYTE_{volume}"] = last_byte
        if module != "STDIO":
            agg = "_AGG" if module == "MPIIO" else ""
            n_bins = len(SIZE_BIN_SUFFIXES)
            bins = np.searchsorted(SIZE_BIN_EDGES, size[mask], side="right")
            histogram = np.bincount(rec[mask] * n_bins + bins, minlength=n_rec * n_bins)
            histogram = histogram.reshape(n_rec, n_bins)
            for j, suffix in enumerate(SIZE_BIN_SUFFIXES):
                ints[f"{module}_SIZE_{direction}{agg}_{suffix}"] = histogram[:, j]
        prefix = f"{module}_F_{direction}"
        floats[f"{prefix}_START_TIMESTAMP"] = _stamps(rec[mask], start[mask], n_rec, "min")
        floats[f"{prefix}_END_TIMESTAMP"] = _stamps(rec[mask], end[mask], n_rec, "max")
        floats[f"{prefix}_TIME"] = _ordered_sums(rec[mask], dt[mask], n_rec)
    floats[f"{module}_F_META_TIME"] = _ordered_sums(rec[~is_data], dt[~is_data], n_rec)

    if module != "STDIO":
        data = _by_stream(np.flatnonzero(is_data), rec, rank)
        switched = _follows(rec[data], rank[data]) & (kind[data][1:] != kind[data][:-1])
        ints[f"{module}_RW_SWITCHES"] = np.bincount(rec[data][1:][switched], minlength=n_rec)
        _shared_reduction(module, n_rec, rec, rank, dt, is_data, size, ints, floats)
    if module == "POSIX":
        _posix_patterns(table.fs, n_rec, rec, rank, kind, flags, offset, size, is_data, ints)

    rank_lo = np.full(n_rec, np.iinfo(rank.dtype).max, dtype=rank.dtype)
    rank_hi = np.full(n_rec, -1, dtype=rank.dtype)
    np.minimum.at(rank_lo, rec, rank)
    np.maximum.at(rank_hi, rec, rank)
    mount = ("/", "unknown")
    fs = table.fs
    if fs is not None:
        inside = (fs.mount_point, fs.fs_type)
        in_fs = (table.flags[first_row] & IN_FS) != 0
        mounts = [inside if here else mount for here in in_fs.tolist()]
    else:
        mounts = [mount] * n_rec
    names = MODULE_COUNTERS[module]
    fnames = MODULE_F_COUNTERS[module]
    zeros = np.zeros(n_rec, dtype=np.int64)
    fzeros = np.zeros(n_rec, dtype=np.float64)
    int_values = np.stack([ints.get(name, zeros) for name in names], axis=1)
    float_values = np.stack([floats.get(name, fzeros) for name in fnames], axis=1)
    return ModuleCounters(
        module=module,
        seq=np.arange(seq, seq + n_rec, dtype=np.int64),
        rank=np.where(rank_lo == rank_hi, rank_lo, -1).astype(np.int64),
        path=tuple(map(table.paths.__getitem__, table.path[first_row].tolist())),
        mount=tuple(m for m, _ in mounts),
        fs_type=tuple(t for _, t in mounts),
        ints=CounterColumns(names, int_values, np.ones(int_values.shape, bool)),
        floats=CounterColumns(fnames, float_values, np.ones(float_values.shape, bool)),
    )


def _shared_reduction(
    module: str,
    n_rec: int,
    rec: np.ndarray,
    rank: np.ndarray,
    dt: np.ndarray,
    is_data: np.ndarray,
    size: np.ndarray,
    ints: dict[str, np.ndarray],
    floats: dict[str, np.ndarray],
) -> None:
    """Fastest/slowest rank and variance counters of records with data ops.

    Over the ranks that moved data: bytes are those ranks' transfer
    sizes, times every op's duration on that rank (metadata included),
    added in execution order.  Ties go to the lowest rank.
    """
    n_ranks = int(rank.max()) + 1
    streams, stream = np.unique(rec.astype(np.int64) * n_ranks + rank, return_inverse=True)
    stream = stream.ravel()
    times = _ordered_sums(stream, dt, streams.size)
    moved = np.bincount(stream[is_data], minlength=streams.size) > 0
    volume = _int_sums(stream[is_data], size[is_data], streams.size)[moved].astype(np.float64)
    s_rec = streams[moved] // n_ranks
    if not s_rec.size:
        return
    s_rank = streams[moved] % n_ranks
    s_time = times[moved]
    for word, order in (
        ("FASTEST", np.lexsort((s_rank, s_time, s_rec))),
        ("SLOWEST", np.lexsort((s_rank, -s_time, s_rec))),
    ):
        # The first stream of each record in this order is its pick.
        pick = order[np.r_[True, s_rec[order][1:] != s_rec[order][:-1]]]
        recs = s_rec[pick]
        for name, values in (
            (f"{module}_{word}_RANK", s_rank),
            (f"{module}_{word}_RANK_BYTES", volume.astype(np.int64)),
        ):
            ints[name] = np.zeros(n_rec, dtype=np.int64)
            ints[name][recs] = values[pick]
        floats[f"{module}_F_{word}_RANK_TIME"] = np.zeros(n_rec)
        floats[f"{module}_F_{word}_RANK_TIME"][recs] = s_time[pick]
    var_time = np.zeros(n_rec)
    var_bytes = np.zeros(n_rec)
    per_rec = np.bincount(s_rec, minlength=n_rec)
    ends = np.cumsum(per_rec)
    for r in np.flatnonzero(per_rec > 1).tolist():
        ranks = slice(ends[r] - per_rec[r], ends[r])
        var_time[r] = s_time[ranks].var()
        var_bytes[r] = volume[ranks].var()
    floats[f"{module}_F_VARIANCE_RANK_TIME"] = var_time
    floats[f"{module}_F_VARIANCE_RANK_BYTES"] = var_bytes


def _posix_patterns(
    fs: LustreFileSystem | None,
    n_rec: int,
    rec: np.ndarray,
    rank: np.ndarray,
    kind: np.ndarray,
    flags: np.ndarray,
    offset: np.ndarray,
    size: np.ndarray,
    is_data: np.ndarray,
    ints: dict[str, np.ndarray],
) -> None:
    """SEQ/CONSEC, stride and access-size slots, alignment (POSIX only)."""
    # Each (record, rank) stream's transfers and seeks, in execution order.
    # A transfer leaves the position at its end, a seek at its offset.
    moves = _by_stream(np.flatnonzero(is_data | (kind == _SEEK)), rec, rank)
    m_rec = rec[moves]
    m_offset = offset[moves]
    position = np.where(is_data[moves], m_offset + size[moves], m_offset)
    counted = _follows(m_rec, rank[moves]) & is_data[moves][1:]
    after = m_offset[1:]
    reading = kind[moves][1:] == _READ
    for label, hit in (("SEQ", after >= position[:-1]), ("CONSEC", after == position[:-1])):
        for direction, mask in (("READ", reading), ("WRITE", ~reading)):
            ints[f"POSIX_{label}_{direction}S"] = np.bincount(
                m_rec[1:][counted & hit & mask], minlength=n_rec
            )
    strided = counted & (after != m_offset[:-1])
    data = np.flatnonzero(is_data)
    for stem, n_slots, slot_rec, values, first_seen in (
        (
            "STRIDE",
            N_STRIDE_SLOTS,
            m_rec[1:][strided],
            np.abs(after - m_offset[:-1])[strided],
            moves[1:][strided],
        ),
        ("ACCESS", N_ACCESS_SLOTS, rec[data], size[data], data),
    ):
        top, counts = _top_slots(slot_rec, values, first_seen, n_rec, n_slots)
        for i in range(n_slots):
            ints[f"POSIX_{stem}{i + 1}_{stem}"] = top[:, i]
            ints[f"POSIX_{stem}{i + 1}_COUNT"] = counts[:, i]

    ints["POSIX_MEM_NOT_ALIGNED"] = np.bincount(
        rec[is_data & ((flags & MEM_NOT_ALIGNED) != 0)], minlength=n_rec
    )
    in_fs = (flags & IN_FS) != 0
    if fs is not None:
        inside = is_data & in_fs
        ints["POSIX_FILE_ALIGNMENT"] = np.where(
            np.bincount(rec[inside], minlength=n_rec) > 0, fs.block_size, 0
        )
        ints["POSIX_FILE_NOT_ALIGNED"] = np.bincount(
            rec[inside & (offset % fs.block_size != 0)], minlength=n_rec
        )
    # Memory alignment as the filesystem of each record's last transfer reports it.
    last = np.full(n_rec, -1, dtype=np.int64)
    np.maximum.at(last, rec[data], data)
    moved = last >= 0
    memory = np.zeros(n_rec, dtype=np.int64)
    memory[moved] = np.where(in_fs[last[moved]], fs.memory_alignment if fs else 8, 8)
    ints["POSIX_MEM_ALIGNMENT"] = memory


def _lustre_counters(table: OpTable, first_row: np.ndarray, seq: int) -> ModuleCounters | None:
    """One LUSTRE record per path whose first touch in some module was on Lustre."""
    fs = table.fs
    if fs is None or fs.fs_type != "lustre":
        return None
    opened = first_row[(table.flags[first_row] & IN_FS) != 0]
    if not opened.size:
        return None
    paths = table.paths
    codes = sorted(set(table.path[opened].tolist()), key=paths.__getitem__)
    # The record's rank spans every module's ops on the path.
    rank_lo = np.full(len(paths), np.iinfo(table.rank.dtype).max, dtype=table.rank.dtype)
    rank_hi = np.full(len(paths), -1, dtype=table.rank.dtype)
    np.minimum.at(rank_lo, table.path, table.rank)
    np.maximum.at(rank_hi, table.path, table.rank)
    layouts = [fs.layout_for(paths[code]) for code in codes]
    width = max(layout.stripe_width for layout in layouts)
    names = LUSTRE_COUNTERS + tuple(f"LUSTRE_OST_ID_{i}" for i in range(width))
    values = np.zeros((len(codes), len(names)), dtype=np.int64)
    present = np.zeros(values.shape, dtype=bool)
    base = len(LUSTRE_COUNTERS)
    for row, layout in enumerate(layouts):
        values[row, :base] = (
            fs.num_osts,
            fs.num_mdts,
            layout.stripe_offset,
            layout.stripe_size,
            layout.stripe_width,
        )
        values[row, base : base + layout.stripe_width] = layout.ost_ids
        present[row, : base + layout.stripe_width] = True
    lo, hi = rank_lo[codes], rank_hi[codes]
    return ModuleCounters(
        module="LUSTRE",
        seq=np.arange(seq, seq + len(codes), dtype=np.int64),
        rank=np.where(lo == hi, lo, -1).astype(np.int64),
        path=tuple(paths[code] for code in codes),
        mount=(fs.mount_point,) * len(codes),
        fs_type=(fs.fs_type,) * len(codes),
        ints=CounterColumns(names, values, present),
        floats=CounterColumns((), np.zeros((len(codes), 0)), np.ones((len(codes), 0), bool)),
    )


# -- kernels -----------------------------------------------------------------


def _by_stream(rows: np.ndarray, rec: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """``rows`` ordered by (record, rank), execution order kept within each."""
    return rows[np.lexsort((rank[rows], rec[rows]))]


def _follows(rec: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """For stream-ordered rows: does row ``i + 1`` continue row ``i``'s stream?"""
    return (rec[1:] == rec[:-1]) & (rank[1:] == rank[:-1])


def _int_sums(groups: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """Exact ``int64`` totals of ``values`` per group."""
    out = np.zeros(n_groups, dtype=np.int64)
    np.add.at(out, groups, values)
    return out


def _stamps(groups: np.ndarray, values: np.ndarray, n_groups: int, how: str) -> np.ndarray:
    """Per-group ``min`` or ``max`` of ``values``; 0.0 for an empty group."""
    if how == "min":
        out = np.full(n_groups, np.inf)
        np.minimum.at(out, groups, values)
    else:
        out = np.full(n_groups, -np.inf)
        np.maximum.at(out, groups, values)
    out[np.bincount(groups, minlength=n_groups) == 0] = 0.0
    return out


def _ordered_sums(groups: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """Per-group totals of ``values``, each added left to right in row order.

    That is ``total += value`` op by op.  ``np.sum`` and
    ``np.add.reduceat`` add pairwise, so on a long group they differ in
    the last bits; ``np.cumsum`` adds in order.
    """
    totals = np.zeros(n_groups)
    counts = np.bincount(groups, minlength=n_groups)
    ends = np.cumsum(counts)
    ordered = values[np.argsort(groups, kind="stable")]
    single = counts == 1
    totals[single] = ordered[ends[single] - 1]
    for g in np.flatnonzero(counts > 1).tolist():
        totals[g] = np.cumsum(ordered[ends[g] - counts[g] : ends[g]])[-1]
    return totals


def _top_slots(
    rec: np.ndarray, values: np.ndarray, first_seen: np.ndarray, n_rec: int, n_slots: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each record's ``n_slots`` most frequent values and their counts.

    Ties go to the value seen first (lowest ``first_seen``), the order
    ``Counter.most_common`` keeps; unused slots read 0.
    """
    top = np.zeros((n_rec, n_slots), dtype=np.int64)
    counts = np.zeros((n_rec, n_slots), dtype=np.int64)
    if not rec.size:
        return top, counts
    order = np.lexsort((first_seen, values, rec))
    r, v, seen = rec[order], values[order], first_seen[order]
    heads = np.flatnonzero(np.r_[True, (r[1:] != r[:-1]) | (v[1:] != v[:-1])])
    n = np.diff(np.r_[heads, r.size])
    r, v, seen = r[heads], v[heads], seen[heads]
    order = np.lexsort((seen, -n, r))
    r, v, n = r[order], v[order], n[order]
    starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
    slot = np.arange(r.size) - np.repeat(starts, np.diff(np.r_[starts, r.size]))
    keep = slot < n_slots
    top[r[keep], slot[keep]] = v[keep]
    counts[r[keep], slot[keep]] = n[keep]
    return top, counts
