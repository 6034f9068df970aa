"""Module-based pre-processor (paper §IV-A, first stage).

Splits a Darshan log into one CSV table per module — "a set of CSV files,
with each file containing the counters and values from a single Darshan
module" — keeping every module's data intact regardless of total trace
length.  The CSVs are an intermediate artifact, written to disk on
request like the real tool's.  The summary extractors read the log's
records directly, so in a pipeline run the tables are a
:class:`ModuleTables` mapping that builds each one only when it is read.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from repro.darshan.log import DarshanLog

__all__ = ["ModuleTable", "ModuleTables", "split_modules", "write_module_csvs"]


@dataclass(frozen=True)
class ModuleTable:
    """Per-module tabular view: one row per (file, rank) record."""

    module: str
    columns: tuple[str, ...]  # counter names, in canonical order
    rows: tuple[dict, ...]  # each: {'file', 'rank', counter: value, ...}

    def to_csv(self) -> str:
        """Render as CSV (the pre-processor's on-disk artifact)."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(("file", "rank") + self.columns)
        for row in self.rows:
            writer.writerow(
                [row["file"], row["rank"]] + [row.get(col, 0) for col in self.columns]
            )
        return buf.getvalue()


def _module_table(log: DarshanLog, module: str) -> ModuleTable:
    records = log.records_for(module)
    # Union of counter names across records, preserving first-seen order
    # (records of one module share the canonical ordering; the union
    # accommodates variable-length LUSTRE_OST_ID_<k> columns).
    columns: dict[str, None] = {}
    for rec in records:
        for name in rec.counters:
            columns.setdefault(name, None)
        for name in rec.fcounters:
            columns.setdefault(name, None)
    rows = []
    for rec in records:
        row: dict = {"file": rec.path, "rank": rec.rank}
        row.update(rec.counters)
        row.update(rec.fcounters)
        rows.append(row)
    return ModuleTable(module=module, columns=tuple(columns), rows=tuple(rows))


class ModuleTables(Mapping[str, ModuleTable]):
    """Read-only :func:`split_modules` of a log, each table built when read.

    The keys (the modules present, in canonical order) come from the
    log's counter table, so iterating, ``len()`` and ``in`` build nothing;
    a table is built on its first lookup and kept.  Two threads racing on
    one module build equal tables and one wins.
    """

    def __init__(self, log: DarshanLog) -> None:
        self._log = log
        self._modules = tuple(log.modules())
        self._built: dict[str, ModuleTable] = {}

    def __getitem__(self, module: str) -> ModuleTable:
        table = self._built.get(module)
        if table is None:
            if module not in self._modules:
                raise KeyError(module)
            table = self._built.setdefault(module, _module_table(self._log, module))
        return table

    def __contains__(self, module: object) -> bool:
        return module in self._modules

    def __iter__(self) -> Iterator[str]:
        return iter(self._modules)

    def __len__(self) -> int:
        return len(self._modules)


def split_modules(log: DarshanLog) -> dict[str, ModuleTable]:
    """Split ``log`` into per-module tables, in canonical module order."""
    return dict(ModuleTables(log))


def write_module_csvs(log: DarshanLog, directory: str) -> list[str]:
    """Write one ``<module>.csv`` per module into ``directory``.

    Returns the written paths.  Mirrors the paper's pre-processor output
    layout; used by the quickstart example and the CLI-style workflows.
    """
    import os

    os.makedirs(directory, exist_ok=True)
    paths = []
    for module, table in split_modules(log).items():
        path = os.path.join(directory, f"{module.lower()}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(table.to_csv())
        paths.append(path)
    return paths
