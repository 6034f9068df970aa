"""Darshan counter declarations.

Counter names, ordering, and size-bin edges follow Darshan 3.4's
``darshan-parser`` output for the POSIX, MPIIO, STDIO, and LUSTRE modules
(the four modules the paper's pre-processor handles, Table I).  Only
counters that carry diagnostic signal for the paper's issue taxonomy are
included; the subset is documented here so the writer, parser, summaries,
and Drishti triggers all agree on one vocabulary.
"""

from __future__ import annotations

import bisect

__all__ = [
    "SIZE_BIN_EDGES",
    "SIZE_BIN_SUFFIXES",
    "SIZE_BIN_LABELS",
    "SMALL_SIZE_SUFFIXES",
    "size_bin_index",
    "size_counters",
    "POSIX_COUNTERS",
    "POSIX_F_COUNTERS",
    "MPIIO_COUNTERS",
    "MPIIO_F_COUNTERS",
    "STDIO_COUNTERS",
    "STDIO_F_COUNTERS",
    "LUSTRE_COUNTERS",
    "MODULE_COUNTERS",
    "MODULE_F_COUNTERS",
    "NONNEGATIVE_COUNTERS",
    "N_STRIDE_SLOTS",
    "N_ACCESS_SLOTS",
]

# Darshan's request-size histogram bins (upper-edge exclusive, bytes).
SIZE_BIN_EDGES: tuple[int, ...] = (
    100,
    1_024,
    10_240,
    102_400,
    1_048_576,
    4_194_304,
    10_485_760,
    104_857_600,
    1_073_741_824,
)
SIZE_BIN_SUFFIXES: tuple[str, ...] = (
    "0_100",
    "100_1K",
    "1K_10K",
    "10K_100K",
    "100K_1M",
    "1M_4M",
    "4M_10M",
    "10M_100M",
    "100M_1G",
    "1G_PLUS",
)
# Human-readable bin labels used by NL summaries ("0-100 bytes", ...).
SIZE_BIN_LABELS: tuple[str, ...] = (
    "0-100 bytes",
    "100 bytes-1 KiB",
    "1-10 KiB",
    "10-100 KiB",
    "100 KiB-1 MiB",
    "1-4 MiB",
    "4-10 MiB",
    "10-100 MiB",
    "100 MiB-1 GiB",
    "1 GiB+",
)

# Bins strictly below 1 MiB — Drishti's "small request" population.  One
# definition shared by the triggers and the tests so the tools and their
# counter-signature checks cannot drift apart.
SMALL_SIZE_SUFFIXES: tuple[str, ...] = SIZE_BIN_SUFFIXES[:5]

# Number of "common stride" / "common access size" slots Darshan keeps.
N_STRIDE_SLOTS = 4
N_ACCESS_SLOTS = 4


def size_bin_index(size: int) -> int:
    """Index of the Darshan size bin containing ``size`` bytes.

    >>> SIZE_BIN_SUFFIXES[size_bin_index(47008)]
    '10K_100K'
    >>> SIZE_BIN_SUFFIXES[size_bin_index(0)]
    '0_100'
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    return bisect.bisect_right(SIZE_BIN_EDGES, size)


def size_counters(prefix: str, direction: str, agg: bool = False) -> list[str]:
    """Counter names of a size histogram, e.g. ``POSIX_SIZE_READ_0_100``."""
    infix = f"SIZE_{direction}_AGG" if agg else f"SIZE_{direction}"
    return [f"{prefix}_{infix}_{suffix}" for suffix in SIZE_BIN_SUFFIXES]


def _slot_counters(prefix: str, stem: str, field: str, n: int) -> list[str]:
    return [f"{prefix}_{stem}{i}_{field}" for i in range(1, n + 1)]


# --------------------------------------------------------------------------
# POSIX module
# --------------------------------------------------------------------------

POSIX_COUNTERS: tuple[str, ...] = tuple(
    [
        "POSIX_OPENS",
        "POSIX_READS",
        "POSIX_WRITES",
        "POSIX_SEEKS",
        "POSIX_STATS",
        "POSIX_FSYNCS",
        "POSIX_RW_SWITCHES",
        "POSIX_SEQ_READS",
        "POSIX_SEQ_WRITES",
        "POSIX_CONSEC_READS",
        "POSIX_CONSEC_WRITES",
        "POSIX_BYTES_READ",
        "POSIX_BYTES_WRITTEN",
        "POSIX_MAX_BYTE_READ",
        "POSIX_MAX_BYTE_WRITTEN",
        "POSIX_MEM_ALIGNMENT",
        "POSIX_MEM_NOT_ALIGNED",
        "POSIX_FILE_ALIGNMENT",
        "POSIX_FILE_NOT_ALIGNED",
    ]
    + size_counters("POSIX", "READ")
    + size_counters("POSIX", "WRITE")
    + _slot_counters("POSIX", "STRIDE", "STRIDE", N_STRIDE_SLOTS)
    + _slot_counters("POSIX", "STRIDE", "COUNT", N_STRIDE_SLOTS)
    + _slot_counters("POSIX", "ACCESS", "ACCESS", N_ACCESS_SLOTS)
    + _slot_counters("POSIX", "ACCESS", "COUNT", N_ACCESS_SLOTS)
    + [
        "POSIX_FASTEST_RANK",
        "POSIX_FASTEST_RANK_BYTES",
        "POSIX_SLOWEST_RANK",
        "POSIX_SLOWEST_RANK_BYTES",
    ]
)

POSIX_F_COUNTERS: tuple[str, ...] = (
    "POSIX_F_OPEN_START_TIMESTAMP",
    "POSIX_F_READ_START_TIMESTAMP",
    "POSIX_F_WRITE_START_TIMESTAMP",
    "POSIX_F_OPEN_END_TIMESTAMP",
    "POSIX_F_READ_END_TIMESTAMP",
    "POSIX_F_WRITE_END_TIMESTAMP",
    "POSIX_F_CLOSE_END_TIMESTAMP",
    "POSIX_F_READ_TIME",
    "POSIX_F_WRITE_TIME",
    "POSIX_F_META_TIME",
    "POSIX_F_FASTEST_RANK_TIME",
    "POSIX_F_SLOWEST_RANK_TIME",
    "POSIX_F_VARIANCE_RANK_TIME",
    "POSIX_F_VARIANCE_RANK_BYTES",
)

# --------------------------------------------------------------------------
# MPI-IO module
# --------------------------------------------------------------------------

MPIIO_COUNTERS: tuple[str, ...] = tuple(
    [
        "MPIIO_INDEP_OPENS",
        "MPIIO_COLL_OPENS",
        "MPIIO_INDEP_READS",
        "MPIIO_INDEP_WRITES",
        "MPIIO_COLL_READS",
        "MPIIO_COLL_WRITES",
        "MPIIO_NB_READS",
        "MPIIO_NB_WRITES",
        "MPIIO_SYNCS",
        "MPIIO_HINTS",
        "MPIIO_VIEWS",
        "MPIIO_RW_SWITCHES",
        "MPIIO_BYTES_READ",
        "MPIIO_BYTES_WRITTEN",
    ]
    + size_counters("MPIIO", "READ", agg=True)
    + size_counters("MPIIO", "WRITE", agg=True)
    + [
        "MPIIO_FASTEST_RANK",
        "MPIIO_FASTEST_RANK_BYTES",
        "MPIIO_SLOWEST_RANK",
        "MPIIO_SLOWEST_RANK_BYTES",
    ]
)

MPIIO_F_COUNTERS: tuple[str, ...] = (
    "MPIIO_F_OPEN_START_TIMESTAMP",
    "MPIIO_F_READ_START_TIMESTAMP",
    "MPIIO_F_WRITE_START_TIMESTAMP",
    "MPIIO_F_OPEN_END_TIMESTAMP",
    "MPIIO_F_READ_END_TIMESTAMP",
    "MPIIO_F_WRITE_END_TIMESTAMP",
    "MPIIO_F_CLOSE_END_TIMESTAMP",
    "MPIIO_F_READ_TIME",
    "MPIIO_F_WRITE_TIME",
    "MPIIO_F_META_TIME",
    "MPIIO_F_FASTEST_RANK_TIME",
    "MPIIO_F_SLOWEST_RANK_TIME",
    "MPIIO_F_VARIANCE_RANK_TIME",
    "MPIIO_F_VARIANCE_RANK_BYTES",
)

# --------------------------------------------------------------------------
# STDIO module
# --------------------------------------------------------------------------

STDIO_COUNTERS: tuple[str, ...] = (
    "STDIO_OPENS",
    "STDIO_READS",
    "STDIO_WRITES",
    "STDIO_SEEKS",
    "STDIO_FLUSHES",
    "STDIO_BYTES_READ",
    "STDIO_BYTES_WRITTEN",
    "STDIO_MAX_BYTE_READ",
    "STDIO_MAX_BYTE_WRITTEN",
)

STDIO_F_COUNTERS: tuple[str, ...] = (
    "STDIO_F_OPEN_START_TIMESTAMP",
    "STDIO_F_READ_START_TIMESTAMP",
    "STDIO_F_WRITE_START_TIMESTAMP",
    "STDIO_F_OPEN_END_TIMESTAMP",
    "STDIO_F_READ_END_TIMESTAMP",
    "STDIO_F_WRITE_END_TIMESTAMP",
    "STDIO_F_CLOSE_END_TIMESTAMP",
    "STDIO_F_READ_TIME",
    "STDIO_F_WRITE_TIME",
    "STDIO_F_META_TIME",
)

# --------------------------------------------------------------------------
# LUSTRE module (fixed counters; LUSTRE_OST_ID_<k> entries are variable
# length and appended per record by the instrumentation/writer).
# --------------------------------------------------------------------------

LUSTRE_COUNTERS: tuple[str, ...] = (
    "LUSTRE_OSTS",
    "LUSTRE_MDTS",
    "LUSTRE_STRIPE_OFFSET",
    "LUSTRE_STRIPE_SIZE",
    "LUSTRE_STRIPE_WIDTH",
)

MODULE_COUNTERS: dict[str, tuple[str, ...]] = {
    "POSIX": POSIX_COUNTERS,
    "MPIIO": MPIIO_COUNTERS,
    "STDIO": STDIO_COUNTERS,
    "LUSTRE": LUSTRE_COUNTERS,
}

MODULE_F_COUNTERS: dict[str, tuple[str, ...]] = {
    "POSIX": POSIX_F_COUNTERS,
    "MPIIO": MPIIO_F_COUNTERS,
    "STDIO": STDIO_F_COUNTERS,
    "LUSTRE": (),
}

# Byte counts, operation counts (opens, reads, writes, seeks, stats, syncs,
# flushes, and their sequential/consecutive/independent/collective splits)
# and size-histogram bins: Darshan never records a negative value for
# these, so the parser rejects one.
_OP_COUNT_SUFFIXES = (
    "_OPENS",
    "_READS",
    "_WRITES",
    "_SEEKS",
    "_STATS",
    "_FSYNCS",
    "_SYNCS",
    "_FLUSHES",
)
NONNEGATIVE_COUNTERS: frozenset[str] = frozenset(
    name
    for module in ("POSIX", "MPIIO", "STDIO")
    for name in MODULE_COUNTERS[module]
    if name.endswith(("_BYTES_READ", "_BYTES_WRITTEN") + _OP_COUNT_SUFFIXES) or "_SIZE_" in name
)
