"""Workload definition and execution harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol

import numpy as np

from repro.darshan.instrument import DarshanInstrument
from repro.darshan.log import DarshanLog
from repro.sim.filesystem import LustreFileSystem
from repro.sim.ops import IOOp, OpBlock
from repro.sim.runtime import IORuntime, JobResult, JobSpec
from repro.sim.timing import PerfModel
from repro.util.rng import rng_for
from repro.util.units import MiB

__all__ = ["Workload", "WorkloadContext", "PhaseFn", "run_workload"]


@dataclass(slots=True)
class WorkloadContext:
    """Everything a phase needs to emit its operation stream."""

    nprocs: int
    fs: LustreFileSystem
    rng: np.random.Generator
    phase_index: int = 0


class PhaseFn(Protocol):
    """A phase maps the context to an operation stream.

    The stream is one :class:`~repro.sim.ops.OpBlock` (every built-in
    phase returns one) or any iterable of :class:`~repro.sim.ops.IOOp`,
    which the runtime batches into a block on entry.
    """

    def __call__(self, ctx: WorkloadContext) -> OpBlock | Iterable[IOOp]: ...


@dataclass(frozen=True)
class Workload:
    """A reproducible application model.

    ``phases`` run in order; each phase sees a context with an independent
    RNG stream so reordering or resizing one phase never perturbs another.
    ``stripe_overrides`` maps paths to ``(stripe_size, stripe_width)`` or
    ``(stripe_size, stripe_width, stripe_offset)`` — the three-element form
    pins the starting OST, like ``lfs setstripe -i`` — and is applied
    before any I/O, like a job script running ``lfs setstripe``.
    ``uses_mpi=False`` models a multi-process application launched without
    MPI (TraceBench's *Multi-Process Without MPI* issue): such runs can
    never produce MPI-IO records; the runtime rejects an MPI-IO op from
    one with a ``ValueError``.  ``perf`` overrides the cluster
    performance constants (``None`` keeps the :class:`PerfModel` defaults);
    scenarios use it to model e.g. slow fsync commit latency.
    ``slow_osts`` marks degraded storage servers (OST id -> service-time
    multiplier): traffic counters stay balanced while the affected
    operations slow down, a purely temporal pathology.
    """

    name: str
    exe: str
    nprocs: int
    phases: tuple[PhaseFn, ...]
    uses_mpi: bool = True
    jobid: int = 1000
    num_osts: int = 64
    default_stripe_size: int = 1 * MiB
    default_stripe_width: int = 1
    stripe_overrides: dict[str, tuple] = field(default_factory=dict)
    compute_seconds: float = 0.0  # non-I/O runtime folded into the job clock
    perf: PerfModel | None = None
    slow_osts: dict[int, float] = field(default_factory=dict)

    def run(self, seed: int = 0) -> tuple[DarshanLog, JobResult]:
        """Execute the workload and return its Darshan log + aggregates."""
        return run_workload(self, seed)


def run_workload(workload: Workload, seed: int = 0) -> tuple[DarshanLog, JobResult]:
    """Build the filesystem/runtime stack, execute ``workload``, reduce its ops.

    The runtime writes every executed op into the result's op table
    (``JobResult.ops``), and both evidence channels are reduced from it:
    the Darshan counters, and the DXT segment table attached to the
    returned log (``log.dxt_segments``, a
    :class:`~repro.darshan.segtable.SegmentTable`) so downstream
    consumers can reason about the time domain.
    """
    from repro.darshan.dxt import collect_segments

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
        # Stagger start times so each trace has a distinct but stable epoch.
        start_time=1_700_000_000 + workload.jobid * 3600,
    )

    def ops() -> Iterable[IOOp | OpBlock]:
        for i, phase in enumerate(workload.phases):
            ctx = WorkloadContext(
                nprocs=workload.nprocs,
                fs=fs,
                rng=rng_for(seed, "workload", workload.name, "phase", i),
                phase_index=i,
            )
            stream = phase(ctx)
            if isinstance(stream, OpBlock):
                yield stream
            else:
                yield from stream

    result = IORuntime(spec, fs, perf=workload.perf).run(ops())
    run_time = result.runtime + workload.compute_seconds
    log = DarshanInstrument(spec, fs).finalize(run_time, result.ops)
    log.dxt_segments, _dropped = collect_segments(result.ops)
    return log, result
