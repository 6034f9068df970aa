"""I/O timing model.

A deliberately simple analytic model — per-operation latency plus
size/bandwidth transfer time with stripe-parallel transfers, a seek penalty
for non-sequential access, and an MDT service time for metadata ops.  The
goal is *plausible relative* timings (small ops dominated by latency, wide
stripes faster than width-1, metadata storms visible in F_META_TIME), not
absolute fidelity; Darshan diagnosis reasons about ratios and proportions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.units import MiB

__all__ = ["PerfModel"]


@dataclass(frozen=True, slots=True)
class PerfModel:
    """Cluster performance constants used to time operations.

    ``ost_bandwidth`` is per-OST streaming bandwidth; a transfer striped
    over *k* OSTs proceeds at ``k``× that rate (up to the extent actually
    covered).  ``op_latency`` is the fixed software/network cost of any
    data op; ``seek_penalty`` is added when an op is not sequential with
    the rank's previous op on the same file; ``mdt_latency`` is the cost
    of one metadata operation; ``collective_overhead`` is the
    synchronization cost of one collective round.
    """

    ost_bandwidth: float = 500.0 * MiB  # bytes/s per OST
    op_latency: float = 50e-6  # s
    seek_penalty: float = 2e-3  # s
    mdt_latency: float = 400e-6  # s
    collective_overhead: float = 1.5e-3  # s per collective round
    stdio_buffer: int = 4096  # stdio's user-space buffering granularity
    # fsync/flush commit latency; None means "same as any metadata op".
    # Real clusters sit well above that (a sync waits on device durability,
    # not just an MDT round-trip), which fsync-heavy scenarios model by
    # overriding this.
    sync_latency: float | None = None

    def transfer_time(self, size: int, osts_used: int, sequential: bool) -> float:
        """Seconds to move ``size`` bytes over ``osts_used`` parallel OSTs."""
        if size < 0:
            raise ValueError("size must be non-negative")
        lanes = max(1, osts_used)
        t = self.op_latency + size / (self.ost_bandwidth * lanes)
        if not sequential:
            t += self.seek_penalty
        return t

    def transfer_times(
        self, size: np.ndarray, osts_used: np.ndarray, sequential: np.ndarray
    ) -> np.ndarray:
        """:meth:`transfer_time` of many transfers at once.

        The same float operations in the same order, so every element
        equals the scalar method's result for that transfer.
        """
        t = self.op_latency + size / (self.ost_bandwidth * np.maximum(1, osts_used))
        return np.where(sequential, t, t + self.seek_penalty)

    def metadata_time(self) -> float:
        """Seconds for one metadata operation (open/stat/seek/close)."""
        return self.mdt_latency

    def sync_time(self) -> float:
        """Seconds for one sync/flush (falls back to the metadata cost)."""
        return self.mdt_latency if self.sync_latency is None else self.sync_latency
