"""Simulated HPC I/O substrate.

The paper's traces come from real machines (NERSC Lustre systems); this
package is the synthetic equivalent: a cluster of MPI ranks issuing typed
I/O operations (:mod:`repro.sim.ops`; one phase's ops travel as one
:class:`OpBlock` of numpy columns) against a Lustre-like parallel
filesystem (:mod:`repro.sim.filesystem`) through a runtime
(:mod:`repro.sim.runtime`) with a bandwidth/latency/contention timing model
(:mod:`repro.sim.timing`).  The runtime times whole blocks with array code
and writes every executed operation as one row of an executed-op table
(:mod:`repro.sim.optable`), which the Darshan instrumentation layer in
:mod:`repro.darshan` reduces to counters and DXT segments: it sees every
operation, as the real Darshan library sees every I/O call it interposes
on.
"""

from repro.sim.filesystem import LustreFileSystem, StripeLayout
from repro.sim.ops import API, IOOp, OpBlock, OpKind
from repro.sim.optable import OpTable
from repro.sim.runtime import IORuntime, JobResult, JobSpec
from repro.sim.timing import PerfModel

__all__ = [
    "API",
    "OpKind",
    "IOOp",
    "OpBlock",
    "OpTable",
    "StripeLayout",
    "LustreFileSystem",
    "PerfModel",
    "JobSpec",
    "JobResult",
    "IORuntime",
]
