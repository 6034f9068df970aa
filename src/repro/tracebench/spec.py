"""Trace specifications: workload + expert labels for all 40 traces.

The label sets were assigned per trace such that (a) every label is an
actual behaviour of the generating workload's operation stream, and (b)
the per-source counts sum exactly to paper Table III.  The invariant is
enforced by :func:`table3_counts` plus the test suite.

Importing this module registers every trace as a
:class:`~repro.workloads.scenarios.Scenario` tagged ``tracebench`` (plus
its source), which is how the suite build, harness, and CLI enumerate it;
``TRACE_SPECS`` remains the Table III ground-truth view of the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.issues import ISSUE_KEYS
from repro.util.lookup import RegistryLookupError
from repro.workloads.base import Workload
from repro.workloads.io500 import IO500_BUILDERS, IO500_CONFIGS
from repro.workloads.real_apps import REAL_APP_BUILDERS
from repro.workloads.scenarios import Scenario, register_scenario
from repro.workloads.simple_bench import SIMPLE_BENCH_BUILDERS

__all__ = [
    "TraceSpec",
    "TRACE_SPECS",
    "TraceIdNotFoundError",
    "table3_counts",
    "TABLE3_EXPECTED",
]

SOURCES = ("simple-bench", "io500", "real-applications")


class TraceIdNotFoundError(RegistryLookupError):
    """Raised for a TraceBench trace id that names no trace."""

    noun = "trace id"
    available_label = "available trace ids"


@dataclass(frozen=True, slots=True)
class TraceSpec:
    """One TraceBench entry: how to generate it and what experts labeled."""

    trace_id: str
    source: str
    builder: Callable[[], Workload]
    labels: frozenset[str]

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        unknown = self.labels - set(ISSUE_KEYS)
        if unknown:
            raise ValueError(f"unknown labels for {self.trace_id}: {sorted(unknown)}")


def _sb(trace_id: str, *labels: str) -> TraceSpec:
    return TraceSpec(trace_id, "simple-bench", SIMPLE_BENCH_BUILDERS[trace_id], frozenset(labels))


def _io(trace_id: str, *labels: str) -> TraceSpec:
    return TraceSpec(trace_id, "io500", IO500_BUILDERS[trace_id], frozenset(labels))


def _ra(trace_id: str, *labels: str) -> TraceSpec:
    return TraceSpec(trace_id, "real-applications", REAL_APP_BUILDERS[trace_id], frozenset(labels))


TRACE_SPECS: tuple[TraceSpec, ...] = (
    # ---------------- Simple-Bench (10 traces, 32 labels) ----------------
    _sb("sb01-small-writes", "small_write", "misaligned_write", "server_imbalance",
        "no_collective_write"),
    _sb("sb02-small-reads", "small_read", "misaligned_read", "server_imbalance",
        "no_collective_read"),
    _sb("sb03-misaligned-writes", "misaligned_write", "server_imbalance",
        "no_collective_write"),
    _sb("sb04-misaligned-reads", "misaligned_read", "server_imbalance",
        "no_collective_read"),
    _sb("sb05-metadata-storm", "high_metadata_load"),
    _sb("sb06-shared-file", "shared_file_access", "no_collective_read",
        "no_collective_write", "server_imbalance"),
    _sb("sb07-repetitive-read", "repetitive_read", "no_collective_read",
        "server_imbalance"),
    _sb("sb08-rank-imbalance", "rank_imbalance", "small_write", "no_collective_read",
        "no_collective_write", "server_imbalance"),
    _sb("sb09-stdio-write", "low_level_write", "no_collective_write"),
    _sb("sb10-stdio-read", "low_level_read", "no_collective_read", "small_read"),
    # ---------------- IO500 (21 traces, 110 labels) ----------------------
    _io("io500-01-posix-4k-fpp", "no_mpi", "small_read", "small_write",
        "server_imbalance"),
    _io("io500-02-posix-8k-shared", "no_mpi", "small_read", "small_write",
        "shared_file_access", "server_imbalance"),
    _io("io500-03-posix-hard-47008", "no_mpi", "small_read", "small_write",
        "misaligned_read", "misaligned_write", "shared_file_access", "server_imbalance"),
    _io("io500-04-posix-hard-10000", "no_mpi", "small_read", "small_write",
        "misaligned_read", "misaligned_write", "shared_file_access", "server_imbalance"),
    _io("io500-05-posix-hard-30000", "no_mpi", "small_read", "small_write",
        "misaligned_read", "misaligned_write", "shared_file_access", "server_imbalance"),
    _io("io500-06-posix-random-1m", "no_mpi", "misaligned_read", "misaligned_write",
        "random_read", "random_write", "shared_file_access", "server_imbalance"),
    _io("io500-07-posix-random-1m-8p", "no_mpi", "misaligned_read", "misaligned_write",
        "random_read", "random_write", "shared_file_access", "server_imbalance"),
    _io("io500-08-posix-random-1m-32p", "no_mpi", "misaligned_read", "misaligned_write",
        "random_read", "random_write", "shared_file_access", "server_imbalance"),
    _io("io500-09-posix-tuned-4m", "no_mpi"),
    _io("io500-10-posix-tuned-8m", "no_mpi"),
    _io("io500-11-posix-tuned-4m-32p", "no_mpi"),
    _io("io500-12-posix-tuned-16m", "no_mpi"),
    _io("io500-13-posix-mdtest", "no_mpi", "high_metadata_load"),
    _io("io500-14-mpiio-8k-shared", "no_collective_read", "no_collective_write",
        "small_read", "small_write", "shared_file_access", "server_imbalance"),
    _io("io500-15-mpiio-16k-shared", "no_collective_read", "no_collective_write",
        "small_read", "small_write", "shared_file_access", "server_imbalance"),
    _io("io500-16-mpiio-4k-shared", "no_collective_read", "no_collective_write",
        "small_read", "small_write", "shared_file_access", "server_imbalance"),
    _io("io500-17-mpiio-hard-47008", "no_collective_read", "no_collective_write",
        "small_read", "small_write", "misaligned_read", "misaligned_write",
        "shared_file_access", "server_imbalance"),
    _io("io500-18-mpiio-hard-23504", "no_collective_read", "no_collective_write",
        "small_read", "small_write", "misaligned_read", "misaligned_write",
        "shared_file_access", "server_imbalance"),
    _io("io500-19-mpiio-random-1m", "no_collective_read", "no_collective_write",
        "misaligned_read", "misaligned_write", "random_read", "random_write",
        "shared_file_access", "server_imbalance"),
    _io("io500-20-mpiio-random-1m-32p", "no_collective_read", "no_collective_write",
        "misaligned_read", "misaligned_write", "random_read", "random_write",
        "shared_file_access", "server_imbalance"),
    _io("io500-21-mpiio-mdtest", "no_collective_read", "no_collective_write",
        "high_metadata_load"),
    # ---------------- Real-Applications (9 traces, 40 labels) ------------
    _ra("ra01-amrex", "no_collective_write", "small_write", "misaligned_write",
        "server_imbalance"),
    _ra("ra02-e2e-original", "no_collective_write", "small_write", "misaligned_write",
        "shared_file_access", "rank_imbalance"),
    _ra("ra03-e2e-recollected", "shared_file_access", "misaligned_write",
        "no_collective_read"),
    _ra("ra04-openpmd-original", "no_collective_read", "small_read", "misaligned_read",
        "random_read", "shared_file_access"),
    _ra("ra05-openpmd-recollected", "no_collective_read", "misaligned_read"),
    _ra("ra06-hacc-io", "small_write", "random_write", "misaligned_write",
        "server_imbalance", "small_read"),
    _ra("ra07-montage", "high_metadata_load", "small_read", "small_write",
        "misaligned_read"),
    _ra("ra08-qmcpack", "high_metadata_load", "small_write", "small_read",
        "misaligned_write"),
    _ra("ra09-post-analysis", "no_collective_read", "small_read", "random_read",
        "random_write", "misaligned_read", "misaligned_write", "small_write",
        "shared_file_access"),
)

# Paper Table III: issue -> (SB, IO500, RA) counts.
TABLE3_EXPECTED: dict[str, tuple[int, int, int]] = {
    "high_metadata_load": (1, 2, 2),
    "misaligned_read": (2, 10, 4),
    "misaligned_write": (2, 10, 6),
    "random_write": (0, 5, 2),
    "random_read": (0, 5, 2),
    "shared_file_access": (1, 14, 4),
    "small_read": (2, 10, 5),
    "small_write": (2, 10, 6),
    "repetitive_read": (1, 0, 0),
    "server_imbalance": (7, 15, 2),
    "rank_imbalance": (1, 0, 1),
    "no_mpi": (0, 13, 0),
    "no_collective_read": (6, 8, 4),
    "no_collective_write": (5, 8, 2),
    "low_level_read": (1, 0, 0),
    "low_level_write": (1, 0, 0),
}


# The paper's own difficulty gradient: Simple-Bench traces are "the
# easiest to diagnose", IO500 models realistic mis-tunings, and the
# real-application traces are the multi-issue hard tier.
_SOURCE_DIFFICULTY = {
    "simple-bench": "easy",
    "io500": "medium",
    "real-applications": "hard",
}

_DESCRIPTIONS = {c.trace_id: c.description for c in IO500_CONFIGS}

for _spec in TRACE_SPECS:
    register_scenario(
        Scenario(
            name=_spec.trace_id,
            source=_spec.source,
            builder=_spec.builder,
            root_causes=_spec.labels,
            difficulty=_SOURCE_DIFFICULTY[_spec.source],
            tags=("tracebench", _spec.source),
            description=_DESCRIPTIONS.get(_spec.trace_id, ""),
        )
    )


def table3_counts() -> dict[str, tuple[int, int, int]]:
    """Label counts per (issue, source) actually present in TRACE_SPECS.

    Scoped to the paper's Table II/III vocabulary: extension issues (the
    time-domain keys) belong to the pathology tier, not to the 40-trace
    TraceBench reproduction this table describes.
    """
    out: dict[str, list[int]] = {key: [0, 0, 0] for key in TABLE3_EXPECTED}
    col = {"simple-bench": 0, "io500": 1, "real-applications": 2}
    for spec in TRACE_SPECS:
        for label in spec.labels:
            out[label][col[spec.source]] += 1
    return {key: tuple(v) for key, v in out.items()}
