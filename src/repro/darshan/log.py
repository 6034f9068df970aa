"""The in-memory Darshan log: job header plus per-file module records."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.darshan.countertable import CounterTable
from repro.darshan.records import DarshanRecord

__all__ = ["JobHeader", "DarshanLog", "MODULE_ORDER"]

# Section order in darshan-parser output.  MPIIO deliberately sits after
# POSIX: the paper's preliminary study observes that plain LLMs miss the
# MPI-IO information "in the latter half of the Darshan trace" (§III).
MODULE_ORDER: tuple[str, ...] = ("POSIX", "MPIIO", "STDIO", "LUSTRE")


@dataclass(slots=True)
class JobHeader:
    """Job-level metadata from the darshan log header."""

    exe: str
    uid: int
    jobid: int
    nprocs: int
    start_time: int
    end_time: int
    run_time: float
    log_version: str = "3.41"
    mounts: list[tuple[str, str]] = field(default_factory=list)  # (mount point, fs type)

    def __post_init__(self) -> None:
        if self.nprocs <= 0:
            raise ValueError("nprocs must be positive")
        if self.run_time < 0:
            raise ValueError("run_time must be non-negative")

    @property
    def start_time_ascii(self) -> str:
        """Human-readable start time (UTC, reproducible across machines)."""
        return ascii_time(self.start_time)


def ascii_time(seconds: int) -> str:
    """A Unix time as the header's UTC date; raises for one the platform cannot take."""
    return time.strftime("%a %b %d %H:%M:%S %Y", time.gmtime(seconds))


class DarshanLog:
    """A parsed (or synthesized) Darshan log.

    The counters live in one :class:`~repro.darshan.countertable.
    CounterTable` (``counter_table``): per-module record x counter
    matrices, as the DXT channel lives in a ``SegmentTable``.
    ``DarshanLog(header, records=[...])`` builds that table from
    :class:`~repro.darshan.records.DarshanRecord` values (copying them);
    the parser hands its table over directly (``counter_table=``).
    :attr:`records` and :meth:`records_for` give read-only rows, built
    from the table once, on first use; :meth:`total` and
    :meth:`module_bytes` sum table columns without building any.  A
    diagnosis builds no rows (the summaries read columns): rows are for
    the Drishti triggers, the pre-processor's CSV tables, the test
    oracles and the examples.

    ``dxt_segments`` is the optional temporal evidence channel: per-operation
    DXT segments captured alongside the counters when the trace came from
    the simulated runtime.  It holds a columnar
    :class:`repro.darshan.segtable.SegmentTable` (which is also a lazy
    ``Sequence`` of :class:`~repro.darshan.segtable.DxtSegment` objects, so
    per-segment consumers keep working).  Logs parsed from
    ``darshan-parser`` text carry ``None`` here — exactly like a real
    deployment where DXT was not enabled — unless the text embedded a DXT
    section (``render_darshan_text(..., include_dxt=True)``); every
    consumer treats the channel as best-effort extra evidence, never a
    requirement.
    """

    __slots__ = (
        "header",
        "counter_table",
        "dxt_segments",
        "dxt_digest_cache",
        "dxt_facts_cache",
        "_rows",
    )

    def __init__(
        self,
        header: JobHeader,
        records: Sequence[DarshanRecord] = (),
        dxt_segments: object | None = None,
        *,
        counter_table: CounterTable | None = None,
    ) -> None:
        if counter_table is not None and records:
            raise ValueError("give records or a counter_table, not both")
        self.header = header
        self.counter_table = (
            counter_table if counter_table is not None else CounterTable.from_records(records)
        )
        self.dxt_segments = dxt_segments  # SegmentTable | list[DxtSegment] | None
        # Memoized derivations of dxt_segments (segments are never mutated
        # after collection): the content digest maintained by
        # repro.core.service.trace_digest, and the temporal fact list
        # maintained by repro.darshan.dxt.cached_temporal_facts.
        self.dxt_digest_cache: str | None = None
        self.dxt_facts_cache: list | None = None
        self._rows: tuple[tuple[DarshanRecord, ...], dict] | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DarshanLog(exe={self.header.exe!r}, {self.counter_table!r})"

    @property
    def has_dxt(self) -> bool:
        """Whether the temporal (DXT) evidence channel is available."""
        return bool(self.dxt_segments)

    def _materialized(self) -> tuple[tuple[DarshanRecord, ...], dict]:
        # Built once; two threads racing here build equal rows and one wins.
        rows = self._rows
        if rows is None:
            rows = self._rows = self.counter_table.rows()
        return rows

    @property
    def records(self) -> Sequence[DarshanRecord]:
        """Every record, read-only, in first-seen (file-touch) order."""
        return _RecordView(self)

    def modules(self) -> list[str]:
        """Module names present, in canonical section order."""
        table = self.counter_table
        return [m for m in MODULE_ORDER if table.module(m) is not None]

    def records_for(self, module: str) -> tuple[DarshanRecord, ...]:
        """All records of one module, in insertion (file-touch) order."""
        if self.counter_table.module(module) is None:
            return ()
        return self._materialized()[1][module]

    def files(self) -> list[str]:
        """Distinct file paths across all modules, insertion-ordered."""
        return self.counter_table.files()

    def total(self, counter: str) -> float:
        """Sum of ``counter`` over all records that define it."""
        return self.counter_table.total(counter)

    def module_bytes(self, module: str) -> tuple[int, int]:
        """(bytes_read, bytes_written) aggregated over one module."""
        prefix = module
        read = int(self.total(f"{prefix}_BYTES_READ"))
        written = int(self.total(f"{prefix}_BYTES_WRITTEN"))
        return read, written


class _RecordView(Sequence):
    """``DarshanLog.records``: rows built on first access to one of them.

    The length comes from the counter table, so ``len()`` and truth tests
    build no rows.
    """

    __slots__ = ("_log",)

    def __init__(self, log: DarshanLog) -> None:
        self._log = log

    def __len__(self) -> int:
        return len(self._log.counter_table)

    def __getitem__(self, index: Any) -> Any:
        return self._log._materialized()[0][index]

    def __iter__(self) -> Iterator[DarshanRecord]:
        return iter(self._log._materialized()[0])
