"""Per-file, per-module Darshan records."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = ["DarshanRecord", "record_id_for"]


def record_id_for(path: str) -> int:
    """Stable 63-bit record id for a path (Darshan hashes the full path)."""
    digest = hashlib.blake2b(path.encode("utf-8", "surrogatepass"), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1  # keep it positive


@dataclass(slots=True)
class DarshanRecord:
    """Counters for one (module, file) pair.

    ``rank`` is the issuing rank for a file touched by a single rank, or
    ``-1`` for a shared record produced by Darshan's shared-file reduction.
    ``counters`` holds integer counters, ``fcounters`` floating-point ones;
    both are keyed by the canonical counter names in
    :mod:`repro.darshan.counters` (plus ``LUSTRE_OST_ID_<k>`` entries).

    The records of a :class:`~repro.darshan.log.DarshanLog` are read-only
    rows built from its counter table: setting an attribute or a counter
    raises.  A record built directly is an ordinary mutable value.
    """

    module: str
    path: str
    rank: int
    counters: dict[str, int] = field(default_factory=dict)
    fcounters: dict[str, float] = field(default_factory=dict)
    mount_point: str = "/"
    fs_type: str = "unknown"

    @property
    def record_id(self) -> int:
        """Darshan-style numeric record id derived from the path."""
        return record_id_for(self.path)

    @property
    def shared(self) -> bool:
        """True if this is a shared-file (rank-reduced) record."""
        return self.rank == -1

    def get(self, counter: str, default: int | float = 0) -> int | float:
        """Fetch a counter from either table, defaulting to ``default``."""
        if counter in self.counters:
            return self.counters[counter]
        return self.fcounters.get(counter, default)
