"""Scalar reference simulator: the per-op readings the bulk path must equal.

:class:`OracleRuntime` executes an op stream one op at a time and hands
every executed op, lowered POSIX ops and collective-buffering chunks
included, to its observers. :class:`OracleInstrument` and
:class:`OracleDxtCollector` are such observers: they fold each op into
Darshan counter state and a DXT segment as it happens. These are the
implementations that :class:`repro.sim.runtime.IORuntime` (a block pass
writing an :class:`~repro.sim.optable.OpTable`),
:meth:`repro.darshan.instrument.DarshanInstrument.finalize` and
:func:`repro.darshan.dxt.collect_segments` (array reductions of that
table) replaced.

The phase factories at the bottom are the generators
:mod:`repro.workloads.patterns` had before its phases built
:class:`~repro.sim.ops.OpBlock` s: one :class:`IOOp` at a time, in
loops. :func:`oracle_phase` maps a built-in phase to its generator by
the call that built it, and :func:`oracle_run_workload` generates
through them. Tests compare the two paths on generated op streams,
phase arguments and registered workloads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol

import numpy as np

from repro.darshan.counters import (
    MODULE_COUNTERS,
    MODULE_F_COUNTERS,
    N_ACCESS_SLOTS,
    N_STRIDE_SLOTS,
    SIZE_BIN_SUFFIXES,
    size_bin_index,
)
from repro.darshan.log import MODULE_ORDER, DarshanLog, JobHeader
from repro.darshan.records import DarshanRecord
from repro.darshan.segtable import SegmentTable, SegmentTableBuilder
from repro.sim.filesystem import LustreFileSystem
from repro.sim.ops import API, IOOp, OpKind
from repro.sim.optable import OpTableBuilder
from repro.sim.runtime import JobResult, JobSpec
from repro.sim.timing import PerfModel
from repro.util.rng import rng_for
from repro.workloads.base import PhaseFn, WorkloadContext
from repro.workloads.patterns import _API_MAP, _offsets_for_rank, _rank_paths

__all__ = [
    "OracleRuntime",
    "OracleInstrument",
    "OracleDxtCollector",
    "oracle_run",
    "oracle_run_workload",
    "oracle_phase",
    "SCALAR_PHASES",
]


class OpObserver(Protocol):
    """Anything that wants to see executed operations."""

    def on_op(self, op: IOOp, t_start: float, t_end: float, fs: LustreFileSystem | None) -> None:
        """Called after each executed op with its simulated time span."""


# Collective buffering: ranks per aggregator and the buffer size.
_CB_RANKS_PER_AGGREGATOR = 4
_CB_BUFFER_SIZE = 16 * 1024 * 1024


class OracleRuntime:
    """Executes an op stream one op at a time, notifying observers.

    ``JobResult.ops`` is the table of every notified op, in notification
    order, as :meth:`OpTableBuilder.append` writes them.
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
        self._observers: list[OpObserver] = []
        self._seen = OpTableBuilder()
        self._clock = np.zeros(spec.nprocs, dtype=np.float64)
        self._last_end: dict[tuple[int, str], int] = {}
        self._ost_bytes: dict[int, int] = {}
        self._bytes_read = 0
        self._bytes_written = 0
        self._ops = 0

    def add_observer(self, obs: OpObserver) -> None:
        """Register an observer; order of registration = order of callbacks."""
        self._observers.append(obs)

    def run(self, ops: Iterable[IOOp]) -> JobResult:
        """Execute the stream and return job-level aggregates."""
        for op in ops:
            self._execute(op)
        return JobResult(
            runtime=float(self._clock.max(initial=0.0)),
            ops_executed=self._ops,
            bytes_read=self._bytes_read,
            bytes_written=self._bytes_written,
            ost_bytes=dict(self._ost_bytes),
            rank_busy=self._clock.copy(),
            ops=self._seen.build(),
        )

    def _execute(self, op: IOOp) -> None:
        if op.rank >= self.spec.nprocs:
            raise ValueError(f"op rank {op.rank} out of range for nprocs={self.spec.nprocs}")
        if op.api is API.MPIIO and not self.spec.uses_mpi:
            raise ValueError(f"MPI-IO op in a job without MPI (uses_mpi=False): {op!r}")
        if op.kind is OpKind.COMPUTE:
            self._clock[op.rank] += op.duration
            return
        if op.kind is OpKind.BARRIER:
            self._clock[:] = self._clock.max(initial=0.0)
            return
        if op.collective:
            self._execute_collective(op)
            return
        t0 = float(self._clock[op.rank])
        dt = self._time_op(op)
        t1 = t0 + dt
        self._clock[op.rank] = t1
        self._notify(op, t0, t1)
        if op.api is API.MPIIO and op.kind in (OpKind.READ, OpKind.WRITE):
            # Independent MPI-IO lowers 1:1 to POSIX on the same rank.
            self._emit_lowered_posix(op, t0, t1)

    def _execute_collective(self, op: IOOp) -> None:
        t0 = float(self._clock[op.rank])
        dt = self.perf.collective_overhead + self._time_op(op)
        t1 = t0 + dt
        self._clock[op.rank] = t1
        self._notify(op, t0, t1)
        if op.kind not in (OpKind.READ, OpKind.WRITE):
            return
        if op.rank % _CB_RANKS_PER_AGGREGATOR == 0:
            group = min(_CB_RANKS_PER_AGGREGATOR, self.spec.nprocs - op.rank)
            total = op.size * group
            layout = self.fs.layout_for(op.path) if self.fs.contains(op.path) else None
            align = layout.stripe_size if layout else self.fs.block_size
            base = (op.offset // align) * align
            done = 0
            while done < total:
                chunk = min(_CB_BUFFER_SIZE, total - done)
                posix = IOOp(
                    kind=op.kind,
                    api=API.POSIX,
                    rank=op.rank,
                    path=op.path,
                    offset=base + done,
                    size=chunk,
                    mem_aligned=True,
                )
                pt0 = float(self._clock[op.rank])
                pdt = self._time_op(posix)
                pt1 = pt0 + pdt
                self._clock[op.rank] = pt1
                self._notify(posix, pt0, pt1)
                done += chunk

    def _emit_lowered_posix(self, op: IOOp, t0: float, t1: float) -> None:
        posix = IOOp(
            kind=op.kind,
            api=API.POSIX,
            rank=op.rank,
            path=op.path,
            offset=op.offset,
            size=op.size,
            mem_aligned=op.mem_aligned,
        )
        self._notify(posix, t0, t1)

    def _time_op(self, op: IOOp) -> float:
        if op.kind in (OpKind.READ, OpKind.WRITE):
            key = (op.rank, op.path)
            sequential = self._last_end.get(key, 0) == op.offset
            self._last_end[key] = op.end_offset
            osts_used = 1
            slowdown = 1.0
            if self.fs.contains(op.path):
                layout = self.fs.layout_for(op.path)
                per_ost = layout.bytes_per_ost(op.offset, op.size)
                osts_used = max(1, len(per_ost))
                slowdown = self.fs.ost_slowdown(per_ost)
                for ost, nbytes in per_ost.items():
                    self._ost_bytes[ost] = self._ost_bytes.get(ost, 0) + nbytes
                self.fs.record_extent(op.path, op.end_offset)
            if op.kind is OpKind.READ:
                self._bytes_read += op.size
            else:
                self._bytes_written += op.size
            self._ops += 1
            return self.perf.transfer_time(op.size, osts_used, sequential) * slowdown
        if op.kind is OpKind.SEEK:
            self._last_end[(op.rank, op.path)] = op.offset
        if op.kind is OpKind.OPEN and self.fs.contains(op.path):
            self.fs.layout_for(op.path)
        self._ops += 1
        if op.kind is OpKind.SYNC:
            return self.perf.sync_time()
        return self.perf.metadata_time()

    def _notify(self, op: IOOp, t0: float, t1: float) -> None:
        fs = self.fs if self.fs.contains(op.path) else None
        self._seen.append(op, t0, t1, fs)
        for obs in self._observers:
            obs.on_op(op, t0, t1, fs)


@dataclass(slots=True)
class _RecordState:
    """Mutable accumulation state for one (module, path) pair."""

    module: str
    path: str
    mount_point: str
    fs_type: str
    counters: Counter = field(default_factory=Counter)
    fcounters: dict[str, float] = field(default_factory=dict)
    ranks: set[int] = field(default_factory=set)
    rank_bytes: Counter = field(default_factory=Counter)
    rank_time: Counter = field(default_factory=Counter)
    last_end: dict[int, int] = field(default_factory=dict)
    last_offset: dict[int, int] = field(default_factory=dict)
    last_kind: dict[int, OpKind] = field(default_factory=dict)
    access_sizes: Counter = field(default_factory=Counter)
    strides: Counter = field(default_factory=Counter)

    def stamp(self, name: str, value: float, how: str) -> None:
        cur = self.fcounters.get(name)
        if cur is None:
            self.fcounters[name] = value
        elif how == "min":
            self.fcounters[name] = min(cur, value)
        else:
            self.fcounters[name] = max(cur, value)

    def add_time(self, name: str, dt: float) -> None:
        self.fcounters[name] = self.fcounters.get(name, 0.0) + dt


class OracleInstrument:
    """Fold each executed op into Darshan counter state; finalize to a log."""

    def __init__(self, spec: JobSpec, fs: LustreFileSystem) -> None:
        self._spec = spec
        self._fs = fs
        self._states: dict[tuple[str, str], _RecordState] = {}
        self._end_clock = 0.0

    def on_op(self, op: IOOp, t_start: float, t_end: float, fs: LustreFileSystem | None) -> None:
        module = op.api.value
        state = self._state_for(module, op.path, fs)
        state.ranks.add(op.rank)
        self._end_clock = max(self._end_clock, t_end)
        dt = t_end - t_start
        prefix = module

        if op.kind is OpKind.OPEN:
            if op.api is API.MPIIO:
                state.counters["MPIIO_COLL_OPENS" if op.collective else "MPIIO_INDEP_OPENS"] += 1
            else:
                state.counters[f"{prefix}_OPENS"] += 1
            state.stamp(f"{prefix}_F_OPEN_START_TIMESTAMP", t_start, "min")
            state.stamp(f"{prefix}_F_OPEN_END_TIMESTAMP", t_end, "max")
            state.add_time(f"{prefix}_F_META_TIME", dt)
            state.rank_time[op.rank] += dt
        elif op.kind in (OpKind.READ, OpKind.WRITE):
            self._on_data_op(state, op, t_start, t_end, fs)
        elif op.kind is OpKind.SEEK:
            if op.api is not API.MPIIO:
                state.counters[f"{prefix}_SEEKS"] += 1
            state.last_end[op.rank] = op.offset
            state.last_offset[op.rank] = op.offset
            state.add_time(f"{prefix}_F_META_TIME", dt)
            state.rank_time[op.rank] += dt
        elif op.kind is OpKind.STAT:
            if op.api is API.POSIX:
                state.counters["POSIX_STATS"] += 1
            state.add_time(f"{prefix}_F_META_TIME", dt)
            state.rank_time[op.rank] += dt
        elif op.kind is OpKind.SYNC:
            if op.api is API.POSIX:
                state.counters["POSIX_FSYNCS"] += 1
            elif op.api is API.MPIIO:
                state.counters["MPIIO_SYNCS"] += 1
            else:
                state.counters["STDIO_FLUSHES"] += 1
            state.add_time(f"{prefix}_F_META_TIME", dt)
            state.rank_time[op.rank] += dt
        elif op.kind is OpKind.CLOSE:
            state.stamp(f"{prefix}_F_CLOSE_END_TIMESTAMP", t_end, "max")
            state.add_time(f"{prefix}_F_META_TIME", dt)
            state.rank_time[op.rank] += dt

    def _on_data_op(
        self,
        state: _RecordState,
        op: IOOp,
        t_start: float,
        t_end: float,
        fs: LustreFileSystem | None,
    ) -> None:
        prefix = state.module
        reading = op.kind is OpKind.READ
        direction = "READ" if reading else "WRITE"
        dt = t_end - t_start

        if op.api is API.MPIIO:
            stem = "COLL" if op.collective else ("NB" if op.nonblocking else "INDEP")
            state.counters[f"MPIIO_{stem}_{direction}S"] += 1
        else:
            state.counters[f"{prefix}_{direction}S"] += 1

        state.counters[f"{prefix}_BYTES_{'READ' if reading else 'WRITTEN'}"] += op.size
        max_byte = f"{prefix}_MAX_BYTE_{'READ' if reading else 'WRITTEN'}"
        if op.size > 0 and prefix != "MPIIO":
            state.counters[max_byte] = max(state.counters[max_byte], op.end_offset - 1)

        if prefix in ("POSIX", "MPIIO"):
            suffix = SIZE_BIN_SUFFIXES[size_bin_index(op.size)]
            agg = "_AGG" if prefix == "MPIIO" else ""
            state.counters[f"{prefix}_SIZE_{direction}{agg}_{suffix}"] += 1

        if prefix == "POSIX":
            last_end = state.last_end.get(op.rank)
            if last_end is not None:
                if op.offset >= last_end:
                    state.counters[f"POSIX_SEQ_{direction}S"] += 1
                if op.offset == last_end:
                    state.counters[f"POSIX_CONSEC_{direction}S"] += 1
            last_off = state.last_offset.get(op.rank)
            if last_off is not None and op.offset != last_off:
                state.strides[abs(op.offset - last_off)] += 1
            state.last_end[op.rank] = op.end_offset
            state.last_offset[op.rank] = op.offset
            state.access_sizes[op.size] += 1

            if not op.mem_aligned:
                state.counters["POSIX_MEM_NOT_ALIGNED"] += 1
            if fs is not None:
                state.counters["POSIX_FILE_ALIGNMENT"] = fs.block_size
                if op.offset % fs.block_size != 0:
                    state.counters["POSIX_FILE_NOT_ALIGNED"] += 1
            state.counters["POSIX_MEM_ALIGNMENT"] = (
                fs.memory_alignment if fs is not None else 8
            )

        last_kind = state.last_kind.get(op.rank)
        if last_kind is not None and last_kind is not op.kind:
            state.counters[f"{prefix}_RW_SWITCHES"] += 1
        state.last_kind[op.rank] = op.kind

        state.add_time(f"{prefix}_F_{direction}_TIME", dt)
        state.stamp(f"{prefix}_F_{direction}_START_TIMESTAMP", t_start, "min")
        state.stamp(f"{prefix}_F_{direction}_END_TIMESTAMP", t_end, "max")
        state.rank_bytes[op.rank] += op.size
        state.rank_time[op.rank] += dt

    def _state_for(
        self, module: str, path: str, fs: LustreFileSystem | None
    ) -> _RecordState:
        key = (module, path)
        state = self._states.get(key)
        if state is None:
            mount, fs_type = ("/", "unknown")
            if fs is not None:
                mount, fs_type = fs.mount_point, fs.fs_type
            state = _RecordState(
                module=module, path=path, mount_point=mount, fs_type=fs_type
            )
            self._states[key] = state
            if fs is not None and fs.fs_type == "lustre" and module != "LUSTRE":
                lkey = ("LUSTRE", path)
                if lkey not in self._states:
                    layout = fs.layout_for(path)
                    lstate = _RecordState(
                        module="LUSTRE",
                        path=path,
                        mount_point=fs.mount_point,
                        fs_type=fs.fs_type,
                    )
                    lstate.counters["LUSTRE_OSTS"] = fs.num_osts
                    lstate.counters["LUSTRE_MDTS"] = fs.num_mdts
                    lstate.counters["LUSTRE_STRIPE_OFFSET"] = layout.stripe_offset
                    lstate.counters["LUSTRE_STRIPE_SIZE"] = layout.stripe_size
                    lstate.counters["LUSTRE_STRIPE_WIDTH"] = layout.stripe_width
                    for i, ost in enumerate(layout.ost_ids):
                        lstate.counters[f"LUSTRE_OST_ID_{i}"] = ost
                    self._states[lkey] = lstate
        return state

    def finalize(self, run_time: float | None = None) -> DarshanLog:
        spec = self._spec
        run_time = float(run_time if run_time is not None else self._end_clock)
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
        records: list[DarshanRecord] = []
        for (module, path), state in self._states.items():
            rank = next(iter(state.ranks)) if len(state.ranks) == 1 else -1
            if module == "LUSTRE":
                data_ranks: set[int] = set()
                for m in ("POSIX", "MPIIO", "STDIO"):
                    st = self._states.get((m, path))
                    if st is not None:
                        data_ranks |= st.ranks
                rank = next(iter(data_ranks)) if len(data_ranks) == 1 else -1
            counters = dict(state.counters)
            fcounters = dict(state.fcounters)
            if module in ("POSIX", "MPIIO") and state.rank_bytes:
                self._fill_shared_reduction(module, state, counters, fcounters)
            if module == "POSIX":
                self._fill_common_slots(state, counters)
            records.append(
                DarshanRecord(
                    module=module,
                    path=path,
                    rank=rank,
                    counters=self._canonicalize(module, counters),
                    fcounters=self._canonicalize_f(module, fcounters),
                    mount_point=state.mount_point,
                    fs_type=state.fs_type,
                )
            )
        records.sort(key=lambda r: (MODULE_ORDER.index(r.module), r.path))
        return DarshanLog(header=header, records=records)

    @staticmethod
    def _fill_shared_reduction(
        module: str,
        state: _RecordState,
        counters: dict[str, int],
        fcounters: dict[str, float],
    ) -> None:
        ranks = sorted(state.rank_bytes)
        byte_arr = np.array([state.rank_bytes[r] for r in ranks], dtype=np.float64)
        time_arr = np.array([state.rank_time.get(r, 0.0) for r in ranks], dtype=np.float64)
        fastest = int(np.argmin(time_arr))
        slowest = int(np.argmax(time_arr))
        counters[f"{module}_FASTEST_RANK"] = ranks[fastest]
        counters[f"{module}_FASTEST_RANK_BYTES"] = int(byte_arr[fastest])
        counters[f"{module}_SLOWEST_RANK"] = ranks[slowest]
        counters[f"{module}_SLOWEST_RANK_BYTES"] = int(byte_arr[slowest])
        fcounters[f"{module}_F_FASTEST_RANK_TIME"] = float(time_arr[fastest])
        fcounters[f"{module}_F_SLOWEST_RANK_TIME"] = float(time_arr[slowest])
        fcounters[f"{module}_F_VARIANCE_RANK_TIME"] = float(time_arr.var())
        fcounters[f"{module}_F_VARIANCE_RANK_BYTES"] = float(byte_arr.var())

    @staticmethod
    def _fill_common_slots(state: _RecordState, counters: dict[str, int]) -> None:
        for i, (size, count) in enumerate(state.access_sizes.most_common(N_ACCESS_SLOTS)):
            counters[f"POSIX_ACCESS{i + 1}_ACCESS"] = size
            counters[f"POSIX_ACCESS{i + 1}_COUNT"] = count
        for i, (stride, count) in enumerate(state.strides.most_common(N_STRIDE_SLOTS)):
            counters[f"POSIX_STRIDE{i + 1}_STRIDE"] = stride
            counters[f"POSIX_STRIDE{i + 1}_COUNT"] = count

    @staticmethod
    def _canonicalize(module: str, counters: dict[str, int]) -> dict[str, int]:
        out = {name: int(counters.get(name, 0)) for name in MODULE_COUNTERS[module]}
        if module == "LUSTRE":
            width = counters.get("LUSTRE_STRIPE_WIDTH", 0)
            for i in range(width):
                name = f"LUSTRE_OST_ID_{i}"
                out[name] = int(counters.get(name, 0))
        return out

    @staticmethod
    def _canonicalize_f(module: str, fcounters: dict[str, float]) -> dict[str, float]:
        return {name: float(fcounters.get(name, 0.0)) for name in MODULE_F_COUNTERS[module]}


_MODULE_TAG = {API.POSIX: "X_POSIX", API.MPIIO: "X_MPIIO", API.STDIO: "X_STDIO"}


class OracleDxtCollector:
    """One DXT segment per executed data op, up to ``max_segments``."""

    def __init__(self, max_segments: int = 1_000_000) -> None:
        self.max_segments = max_segments
        self._builder = SegmentTableBuilder()
        self.dropped = 0

    def on_op(self, op: IOOp, t_start: float, t_end: float, fs: LustreFileSystem | None) -> None:
        if op.kind not in (OpKind.READ, OpKind.WRITE):
            return
        if len(self._builder) >= self.max_segments:
            self.dropped += 1
            return
        self._builder.append(
            _MODULE_TAG[op.api],
            op.rank,
            op.path,
            "read" if op.kind is OpKind.READ else "write",
            op.offset,
            op.size,
            t_start,
            t_end,
            fs.serving_ost(op.path, op.offset) if fs is not None else None,
        )

    @property
    def segments(self) -> SegmentTable:
        return self._builder.build()


def oracle_run(
    spec: JobSpec,
    fs: LustreFileSystem,
    ops: Iterable[IOOp],
    perf: PerfModel | None = None,
    run_time: float | None = None,
    max_segments: int = 1_000_000,
) -> tuple[DarshanLog, OracleDxtCollector, JobResult]:
    """Run ``ops`` on the scalar path: the log, the DXT collector, the result."""
    runtime = OracleRuntime(spec, fs, perf)
    instrument = OracleInstrument(spec, fs)
    dxt = OracleDxtCollector(max_segments)
    runtime.add_observer(instrument)
    runtime.add_observer(dxt)
    result = runtime.run(ops)
    return instrument.finalize(run_time), dxt, result


def oracle_run_workload(workload, seed: int = 0) -> tuple[DarshanLog, JobResult]:
    """:func:`repro.workloads.base.run_workload` on the scalar path.

    Built-in phases generate through their scalar factories below.
    """
    fs = LustreFileSystem(
        num_osts=workload.num_osts,
        default_stripe_size=workload.default_stripe_size,
        default_stripe_width=workload.default_stripe_width,
        seed=seed,
        slow_osts=workload.slow_osts,
    )
    for path, override in workload.stripe_overrides.items():
        fs.set_stripe(path, *override)
    spec = JobSpec(
        exe=workload.exe,
        nprocs=workload.nprocs,
        jobid=workload.jobid,
        uses_mpi=workload.uses_mpi,
        start_time=1_700_000_000 + workload.jobid * 3600,
    )

    def ops() -> Iterable[IOOp]:
        for i, phase in enumerate(workload.phases):
            ctx = WorkloadContext(
                nprocs=workload.nprocs,
                fs=fs,
                rng=rng_for(seed, "workload", workload.name, "phase", i),
                phase_index=i,
            )
            yield from oracle_phase(phase)(ctx)

    runtime = OracleRuntime(spec, fs, perf=workload.perf)
    instrument = OracleInstrument(spec, fs)
    dxt = OracleDxtCollector()
    runtime.add_observer(instrument)
    runtime.add_observer(dxt)
    result = runtime.run(ops())
    log = instrument.finalize(result.runtime + workload.compute_seconds)
    log.dxt_segments = dxt.segments
    return log, result


# -- scalar phase factories ----------------------------------------------------


def oracle_phase(phase: PhaseFn) -> PhaseFn:
    """The scalar generator of a built-in phase; any other phase as it is.

    A built-in phase records the factory call that built it
    (``phase.built_by``); the factory of that name below is called with
    the same arguments.
    """
    built_by = getattr(phase, "built_by", None)
    if built_by is None:
        return phase
    name, args, kwargs = built_by
    return SCALAR_PHASES[name](*args, **kwargs)


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
    kind = OpKind.READ if direction == "read" else OpKind.WRITE
    api_enum = _API_MAP[api]

    def phase(ctx: WorkloadContext) -> Iterator[IOOp]:
        paths = _rank_paths(path, layout, ctx.nprocs)
        opened: set[tuple[int, str]] = set()
        per_rank_offsets = [
            _offsets_for_rank(r, ctx.nprocs, count_per_rank, xfer, layout, pattern, ctx.rng)
            for r in range(ctx.nprocs)
        ]
        for r in range(ctx.nprocs):
            if open_per_rank and (r, paths[r]) not in opened:
                opened.add((r, paths[r]))
                yield IOOp(
                    kind=OpKind.OPEN,
                    api=api_enum,
                    rank=r,
                    path=paths[r],
                    collective=collective,
                )
        # Interleave requests round-robin across ranks so the op stream
        # resembles a real parallel execution trace.
        for i in range(count_per_rank):
            for r in range(ctx.nprocs):
                yield IOOp(
                    kind=kind,
                    api=api_enum,
                    rank=r,
                    path=paths[r],
                    offset=int(per_rank_offsets[r][i]) + unaligned_shim,
                    size=xfer,
                    collective=collective,
                    mem_aligned=mem_aligned,
                )
        for r in range(ctx.nprocs):
            if fsync:
                yield IOOp(kind=OpKind.SYNC, api=api_enum, rank=r, path=paths[r])
            yield IOOp(kind=OpKind.CLOSE, api=api_enum, rank=r, path=paths[r])

    return phase


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
    api_enum = _API_MAP[api]

    def phase(ctx: WorkloadContext) -> Iterator[IOOp]:
        for r in range(ctx.nprocs):
            for i in range(files_per_rank):
                fpath = f"{directory}/rank{r:04d}/f{i:06d}"
                yield IOOp(kind=OpKind.OPEN, api=api_enum, rank=r, path=fpath)
                if with_stat:
                    yield IOOp(kind=OpKind.STAT, api=api_enum, rank=r, path=fpath)
                if data_bytes > 0:
                    yield IOOp(
                        kind=OpKind.WRITE,
                        api=api_enum,
                        rank=r,
                        path=fpath,
                        offset=0,
                        size=data_bytes,
                    )
                yield IOOp(kind=OpKind.CLOSE, api=api_enum, rank=r, path=fpath)

    return phase


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

    def phase(ctx: WorkloadContext) -> Iterator[IOOp]:
        ranks = range(nranks if nranks is not None else ctx.nprocs)
        reads_per_pass = max(1, region_bytes // xfer)
        for r in ranks:
            yield IOOp(kind=OpKind.OPEN, api=API.POSIX, rank=r, path=path)
        for _ in range(repeats):
            for i in range(reads_per_pass):
                for r in ranks:
                    yield IOOp(
                        kind=OpKind.READ,
                        api=API.POSIX,
                        rank=r,
                        path=path,
                        offset=i * xfer,
                        size=xfer,
                    )
        for r in ranks:
            yield IOOp(kind=OpKind.CLOSE, api=API.POSIX, rank=r, path=path)

    return phase


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
    api_enum = _API_MAP[api]

    def phase(ctx: WorkloadContext) -> Iterator[IOOp]:
        paths = _rank_paths(path, layout, ctx.nprocs)
        heavy_n = int(total_count * heavy_share)
        rest = total_count - heavy_n
        others = [r for r in range(ctx.nprocs) if r != heavy_rank] or [heavy_rank]
        counts = {r: 0 for r in range(ctx.nprocs)}
        counts[heavy_rank] = heavy_n
        for i in range(rest):
            counts[others[i % len(others)]] += 1
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.OPEN, api=api_enum, rank=r, path=paths[r])
        shared_offset = 0
        for r in range(ctx.nprocs):
            local_offset = 0
            for _ in range(counts[r]):
                offset = shared_offset if layout == "shared" else local_offset
                yield IOOp(
                    kind=OpKind.WRITE,
                    api=api_enum,
                    rank=r,
                    path=paths[r],
                    offset=offset,
                    size=xfer,
                )
                shared_offset += xfer
                local_offset += xfer
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.CLOSE, api=api_enum, rank=r, path=paths[r])

    return phase


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
    api_enum = _API_MAP[api]

    def phase(ctx: WorkloadContext) -> Iterator[IOOp]:
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.OPEN, api=api_enum, rank=r, path=path)
        for i in range(count_per_rank):
            for r in range(ctx.nprocs):
                yield IOOp(
                    kind=OpKind.WRITE,
                    api=api_enum,
                    rank=r,
                    path=path,
                    offset=(i * ctx.nprocs + r) * record_bytes,
                    size=record_bytes,
                )
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.CLOSE, api=api_enum, rank=r, path=path)

    return phase


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
    api_enum = _API_MAP[api]

    def phase(ctx: WorkloadContext) -> Iterator[IOOp]:
        for pass_no in range(1 + cycles):
            for r in range(ctx.nprocs):
                for i in range(files_per_rank):
                    fpath = f"{directory}/rank{r:04d}/f{i:06d}"
                    yield IOOp(kind=OpKind.OPEN, api=api_enum, rank=r, path=fpath)
                    if with_stat:
                        yield IOOp(kind=OpKind.STAT, api=api_enum, rank=r, path=fpath)
                    yield IOOp(kind=OpKind.CLOSE, api=api_enum, rank=r, path=fpath)

    return phase


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
    api_enum = _API_MAP[api]

    def phase(ctx: WorkloadContext) -> Iterator[IOOp]:
        seg = writes_per_burst * xfer
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.OPEN, api=api_enum, rank=r, path=path)
        for b in range(bursts):
            for i in range(writes_per_burst):
                for r in range(ctx.nprocs):
                    yield IOOp(
                        kind=OpKind.WRITE,
                        api=api_enum,
                        rank=r,
                        path=path,
                        offset=(b * ctx.nprocs + r) * seg + i * xfer,
                        size=xfer,
                    )
            for r in range(ctx.nprocs):
                if sync_each_burst:
                    yield IOOp(kind=OpKind.SYNC, api=api_enum, rank=r, path=path)
                if compute_seconds > 0 and b < bursts - 1:
                    yield IOOp(
                        kind=OpKind.COMPUTE,
                        api=api_enum,
                        rank=r,
                        duration=compute_seconds,
                    )
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.CLOSE, api=api_enum, rank=r, path=path)

    return phase


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
    api_enum = _API_MAP[api]

    def phase(ctx: WorkloadContext) -> Iterator[IOOp]:
        paths = _rank_paths(path, layout, ctx.nprocs)
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.OPEN, api=api_enum, rank=r, path=paths[r])
        for i in range(count_per_rank):
            for r in range(ctx.nprocs):
                offset = (
                    (i * ctx.nprocs + r) * record_bytes
                    if layout == "shared"
                    else i * record_bytes
                )
                yield IOOp(
                    kind=OpKind.READ,
                    api=api_enum,
                    rank=r,
                    path=paths[r],
                    offset=offset,
                    size=record_bytes,
                )
                yield IOOp(
                    kind=OpKind.WRITE,
                    api=api_enum,
                    rank=r,
                    path=paths[r],
                    offset=offset,
                    size=record_bytes,
                )
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.CLOSE, api=api_enum, rank=r, path=paths[r])

    return phase


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
    api_enum = _API_MAP[api]

    def phase(ctx: WorkloadContext) -> Iterator[IOOp]:
        paths = _rank_paths(path, layout, ctx.nprocs)
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.OPEN, api=api_enum, rank=r, path=paths[r])
        for i in range(count_per_rank):
            for r in range(ctx.nprocs):
                offset = (i * ctx.nprocs + r) * xfer if layout == "shared" else i * xfer
                yield IOOp(
                    kind=OpKind.WRITE,
                    api=api_enum,
                    rank=r,
                    path=paths[r],
                    offset=offset,
                    size=xfer,
                )
                yield IOOp(kind=OpKind.SYNC, api=api_enum, rank=r, path=paths[r])
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.CLOSE, api=api_enum, rank=r, path=paths[r])

    return phase


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
    api_enum = _API_MAP[api]

    def phase(ctx: WorkloadContext) -> Iterator[IOOp]:
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.OPEN, api=api_enum, rank=r, path=path)
        small = xfer // slow_factor
        for i in range(count_per_rank):
            for r in range(ctx.nprocs):
                base = (r * count_per_rank + i) * xfer
                if r == straggler_rank:
                    for j in range(slow_factor):
                        yield IOOp(
                            kind=OpKind.WRITE,
                            api=api_enum,
                            rank=r,
                            path=path,
                            offset=base + j * small,
                            size=small,
                        )
                else:
                    yield IOOp(
                        kind=OpKind.WRITE,
                        api=api_enum,
                        rank=r,
                        path=path,
                        offset=base,
                        size=xfer,
                    )
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.CLOSE, api=api_enum, rank=r, path=path)

    return phase


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
    api_enum = _API_MAP[api]

    def phase(ctx: WorkloadContext) -> Iterator[IOOp]:
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.OPEN, api=api_enum, rank=r, path=path)
        for i in range(count_per_rank):
            for r in range(ctx.nprocs):
                if r == straggler_rank:
                    yield IOOp(
                        kind=OpKind.COMPUTE, api=api_enum, rank=r, duration=stall_seconds
                    )
                yield IOOp(
                    kind=OpKind.WRITE,
                    api=api_enum,
                    rank=r,
                    path=path,
                    offset=(r * count_per_rank + i) * xfer,
                    size=xfer,
                )
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.CLOSE, api=api_enum, rank=r, path=path)

    return phase


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
    api_enum = _API_MAP[api]

    def phase(ctx: WorkloadContext) -> Iterator[IOOp]:
        from repro.sim.ops import barrier

        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.OPEN, api=api_enum, rank=r, path=path)
        for i in range(rounds):
            for r in range(ctx.nprocs):
                yield barrier()  # the lock handoff: wait for the holder
                yield IOOp(
                    kind=OpKind.WRITE,
                    api=api_enum,
                    rank=r,
                    path=path,
                    offset=(r * rounds + i) * xfer,
                    size=xfer,
                )
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.CLOSE, api=api_enum, rank=r, path=path)

    return phase


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
    api_enum = _API_MAP[api]

    def phase(ctx: WorkloadContext) -> Iterator[IOOp]:
        paths = _rank_paths(path, "fpp", ctx.nprocs)
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.OPEN, api=api_enum, rank=r, path=paths[r])
        offset = [0] * ctx.nprocs
        for window in range(stalls + 1):
            for _ in range(writes_per_window):
                for r in range(ctx.nprocs):
                    yield IOOp(
                        kind=OpKind.WRITE,
                        api=api_enum,
                        rank=r,
                        path=paths[r],
                        offset=offset[r],
                        size=xfer,
                    )
                    offset[r] += xfer
            if window < stalls:
                for r in range(ctx.nprocs):
                    yield IOOp(
                        kind=OpKind.COMPUTE, api=api_enum, rank=r, duration=stall_seconds
                    )
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.CLOSE, api=api_enum, rank=r, path=paths[r])

    return phase


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
    api_enum = _API_MAP[api]

    def phase(ctx: WorkloadContext) -> Iterator[IOOp]:
        from repro.sim.ops import barrier

        half = max(1, ctx.nprocs // 2)
        producers = range(half)
        consumers = range(half, ctx.nprocs)
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.OPEN, api=api_enum, rank=r, path=path)
        for round_no in range(rounds):
            for i in range(items_per_round):
                for r in producers:
                    yield IOOp(
                        kind=OpKind.WRITE,
                        api=api_enum,
                        rank=r,
                        path=path,
                        offset=((round_no * half + r) * items_per_round + i) * xfer,
                        size=xfer,
                    )
            yield barrier()  # consumers may not read before the data exists
            for i in range(items_per_round):
                for r in consumers:
                    yield IOOp(
                        kind=OpKind.READ,
                        api=api_enum,
                        rank=r,
                        path=path,
                        offset=((round_no * half + (r - half) % half) * items_per_round + i)
                        * xfer,
                        size=xfer,
                    )
            yield barrier()  # producers reuse the buffers next round
        for r in range(ctx.nprocs):
            yield IOOp(kind=OpKind.CLOSE, api=api_enum, rank=r, path=path)

    return phase


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
    kind = OpKind.READ if direction == "read" else OpKind.WRITE

    def phase(ctx: WorkloadContext) -> Iterator[IOOp]:
        use_ranks = list(ranks) if ranks is not None else list(range(ctx.nprocs))
        paths = _rank_paths(path, layout, ctx.nprocs)
        for r in use_ranks:
            yield IOOp(kind=OpKind.OPEN, api=API.STDIO, rank=r, path=paths[r])
            for i in range(count_per_rank):
                yield IOOp(
                    kind=OpKind.READ if kind is OpKind.READ else OpKind.WRITE,
                    api=API.STDIO,
                    rank=r,
                    path=paths[r],
                    offset=i * xfer,
                    size=xfer,
                )
            yield IOOp(kind=OpKind.SYNC, api=API.STDIO, rank=r, path=paths[r])
            yield IOOp(kind=OpKind.CLOSE, api=API.STDIO, rank=r, path=paths[r])

    return phase


SCALAR_PHASES = {
    factory.__name__: factory
    for factory in (
        data_phase,
        metadata_phase,
        repetitive_read_phase,
        imbalanced_write_phase,
        stdio_phase,
        false_sharing_phase,
        metadata_churn_phase,
        checkpoint_burst_phase,
        read_modify_write_phase,
        fsync_per_write_phase,
        straggler_phase,
        compute_straggler_phase,
        lock_convoy_phase,
        interference_stall_phase,
        producer_consumer_phase,
    )
}
