"""Darshan substrate: counters, records, logs, instrumentation, text I/O.

This package reproduces the parts of Darshan 3.x that the paper's pipeline
consumes: the POSIX / MPI-IO / STDIO / LUSTRE module counters (names, size
bins, stride/access tables, variance counters), per-file records with
shared-file reduction, the ``darshan-parser`` text serialization that plain
LLMs are fed, and a parser to read that text back.

The instrumentation layer (:class:`~repro.darshan.instrument.
DarshanInstrument`) sees every operation the simulated runtime executed,
as the real Darshan library sees every I/O call it interposes on: it
reduces the run's executed-op table (:mod:`repro.sim.optable`) to a
:class:`~repro.darshan.log.DarshanLog` with array kernels, and
:func:`~repro.darshan.dxt.collect_segments` takes the DXT segments from
the same table.
"""

from repro.darshan.counters import (
    LUSTRE_COUNTERS,
    MPIIO_COUNTERS,
    MPIIO_F_COUNTERS,
    POSIX_COUNTERS,
    POSIX_F_COUNTERS,
    SIZE_BIN_EDGES,
    SIZE_BIN_LABELS,
    SIZE_BIN_SUFFIXES,
    STDIO_COUNTERS,
    STDIO_F_COUNTERS,
    size_bin_index,
)
from repro.darshan.dxt import (
    DxtCollector,
    DxtSegment,
    collect_segments,
    parse_dxt_text,
    render_dxt_text,
)
from repro.darshan.instrument import DarshanInstrument
from repro.darshan.log import DarshanLog, JobHeader
from repro.darshan.parser import parse_darshan_text
from repro.darshan.records import DarshanRecord
from repro.darshan.segtable import SegmentTable, SegmentTableBuilder
from repro.darshan.writer import render_darshan_text

__all__ = [
    "SIZE_BIN_EDGES",
    "SIZE_BIN_SUFFIXES",
    "SIZE_BIN_LABELS",
    "size_bin_index",
    "POSIX_COUNTERS",
    "POSIX_F_COUNTERS",
    "MPIIO_COUNTERS",
    "MPIIO_F_COUNTERS",
    "STDIO_COUNTERS",
    "STDIO_F_COUNTERS",
    "LUSTRE_COUNTERS",
    "DarshanRecord",
    "JobHeader",
    "DarshanLog",
    "DarshanInstrument",
    "render_darshan_text",
    "parse_darshan_text",
    "DxtSegment",
    "DxtCollector",
    "collect_segments",
    "SegmentTable",
    "SegmentTableBuilder",
    "render_dxt_text",
    "parse_dxt_text",
]
