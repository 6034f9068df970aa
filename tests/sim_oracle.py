"""Scalar reference simulator: the per-op readings the bulk path must equal.

:class:`OracleRuntime` executes an op stream one op at a time and hands
every executed op, lowered POSIX ops and collective-buffering chunks
included, to its observers. :class:`OracleInstrument` and
:class:`OracleDxtCollector` are such observers: they fold each op into
Darshan counter state and a DXT segment as it happens. These are the
implementations that :class:`repro.sim.runtime.IORuntime` (one ordered
pass writing an :class:`~repro.sim.optable.OpTable`),
:meth:`repro.darshan.instrument.DarshanInstrument.finalize` and
:func:`repro.darshan.dxt.collect_segments` (array reductions of that
table) replaced. Tests compare the two on generated op streams and
registered workloads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Protocol

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

__all__ = [
    "OracleRuntime",
    "OracleInstrument",
    "OracleDxtCollector",
    "oracle_run",
    "oracle_run_workload",
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
    """:func:`repro.workloads.base.run_workload` on the scalar path."""
    from repro.workloads.base import WorkloadContext

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
            yield from phase(ctx)

    runtime = OracleRuntime(spec, fs, perf=workload.perf)
    instrument = OracleInstrument(spec, fs)
    dxt = OracleDxtCollector()
    runtime.add_observer(instrument)
    runtime.add_observer(dxt)
    result = runtime.run(ops())
    log = instrument.finalize(result.runtime + workload.compute_seconds)
    log.dxt_segments = dxt.segments
    return log, result
