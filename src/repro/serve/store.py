"""Persistent content-addressed result store.

The in-memory cache in :class:`~repro.core.service.DiagnosisService` dies
with the process; this store makes the same ``(trace digest, tool,
config)`` keying durable.  One entry is one canonical-JSON file under the
store root, named by the SHA-256 of the canonical key encoding, so any
process pointed at the same directory serves previously-diagnosed traces
with zero LLM calls.

Contracts:

* **atomic writes** — each writer writes the entry to a temporary
  sibling of its own and ``os.replace``-s it into place, so a concurrent
  reader (another worker, another process) sees either the whole record
  or nothing, and concurrent writers of one key never collide;
* **degraded reports are never persisted** — degradation is transient
  weather (faults, outages), not trace content; persisting one would
  serve a degraded answer to every later clean request for that digest.
  :meth:`ResultStore.put` enforces this (the service additionally never
  calls it for degraded reports);
* **corrupt entries are misses** — a torn/garbage file (killed writer,
  disk trouble) is treated as absent, never as an error on the read path.

A stored report's ``trace_id`` is the run name the service ran it under
(the trace-digest prefix), never a caller's label: the service relabels
the copy it hands each caller.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.core.report import DiagnosisReport

__all__ = ["ResultStore", "StoreKey", "report_to_dict", "report_from_dict"]

# (trace digest, tool name, config repr) — the service's cache key shape.
StoreKey = tuple[str, str, str]

_FORMAT_VERSION = 1


def report_to_dict(report: DiagnosisReport) -> dict[str, object]:
    """Serializable view of a report (inverse of :func:`report_from_dict`)."""
    return {
        "trace_id": report.trace_id,
        "model": report.model,
        "text": report.text,
        "n_fragments": report.n_fragments,
        "sources_retrieved": report.sources_retrieved,
        "sources_kept": report.sources_kept,
        "degraded": list(report.degraded),
    }


def report_from_dict(payload: dict[str, object]) -> DiagnosisReport:
    """Rebuild a report from :func:`report_to_dict` output."""
    return DiagnosisReport(
        trace_id=str(payload["trace_id"]),
        model=str(payload["model"]),
        text=str(payload["text"]),
        n_fragments=int(payload["n_fragments"]),  # type: ignore[arg-type]
        sources_retrieved=int(payload["sources_retrieved"]),  # type: ignore[arg-type]
        sources_kept=int(payload["sources_kept"]),  # type: ignore[arg-type]
        degraded=tuple(str(c) for c in payload["degraded"]),  # type: ignore[union-attr]
    )


def store_filename(key: StoreKey) -> str:
    """Content-addressed entry name: SHA-256 of the canonical key encoding."""
    digest, tool, config = key
    encoded = json.dumps([digest, tool, config], separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest() + ".json"


class ResultStore:
    """Durable ``key -> DiagnosisReport`` map under one directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: StoreKey) -> Path:
        return self.root / store_filename(key)

    def get(self, key: StoreKey) -> DiagnosisReport | None:
        """The stored report for ``key``, or None (corrupt entries miss)."""
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None  # torn write / disk damage: a miss, never an error
        try:
            if payload.get("version") != _FORMAT_VERSION or list(payload["key"]) != list(key):
                return None
            return report_from_dict(payload["report"])
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, key: StoreKey, report: DiagnosisReport) -> Path:
        """Persist ``report`` under ``key`` atomically; returns the entry path.

        Raises ``ValueError`` for a degraded report — the store only holds
        full-fidelity answers (see module docstring).
        """
        if report.degraded:
            raise ValueError(
                f"refusing to persist degraded report for {report.trace_id!r} "
                f"(lost channels: {', '.join(report.degraded)})"
            )
        payload = {
            "version": _FORMAT_VERSION,
            "key": list(key),
            "report": report_to_dict(report),
        }
        path = self.path_for(key)
        # A temp file of this writer's own: two writers of one key (threads
        # of one process included) must not rename each other's file away.
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=f"{path.stem}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def __contains__(self, key: StoreKey) -> bool:
        return self.get(key) is not None

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed
