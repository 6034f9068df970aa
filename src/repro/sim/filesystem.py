"""Lustre-like parallel filesystem model.

Only the properties that shape Darshan counters and diagnoses are modelled:
stripe layout per file (size / width / starting OST / OST id list), block
alignment, OST and MDT population, and the mapping from a byte extent to
the set of OSTs that serve it.  This is what the LUSTRE Darshan module
records and what stripe-related diagnoses ("stripe width 1 limits
parallelism") reason about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import rng_for
from repro.util.units import MiB

__all__ = ["StripeLayout", "LustreFileSystem"]


@dataclass(frozen=True, slots=True)
class StripeLayout:
    """Striping of one file: ``stripe_width`` OSTs, round-robin chunks."""

    stripe_size: int
    stripe_width: int
    stripe_offset: int
    ost_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.stripe_size <= 0:
            raise ValueError("stripe_size must be positive")
        if self.stripe_width != len(self.ost_ids):
            raise ValueError("stripe_width must match the number of OSTs")

    def ost_for_offset(self, offset: int) -> int:
        """OST id that stores the stripe containing byte ``offset``."""
        return self.ost_ids[(offset // self.stripe_size) % self.stripe_width]

    def bytes_per_ost(self, offset: int, size: int) -> dict[int, int]:
        """Distribute the extent ``[offset, offset+size)`` over OSTs.

        Vectorized over the stripes the extent crosses; returns
        ``{ost_id: bytes}`` for the OSTs that receive any data.
        """
        if size <= 0:
            return {}
        first = offset // self.stripe_size
        last = (offset + size - 1) // self.stripe_size
        stripes = np.arange(first, last + 1)
        starts = np.maximum(stripes * self.stripe_size, offset)
        ends = np.minimum((stripes + 1) * self.stripe_size, offset + size)
        lengths = ends - starts
        osts = np.asarray(self.ost_ids)[stripes % self.stripe_width]
        out: dict[int, int] = {}
        for ost, length in zip(osts.tolist(), lengths.tolist()):
            out[ost] = out.get(ost, 0) + int(length)
        return out


class LustreFileSystem:
    """A mounted Lustre-like filesystem with per-file stripe layouts.

    Layouts are assigned lazily: the first touch of a path materializes a
    layout using the filesystem defaults (or a per-path override installed
    with :meth:`set_stripe`, mirroring ``lfs setstripe``).  OST selection is
    deterministic per (fs seed, path).
    """

    def __init__(
        self,
        mount_point: str = "/scratch",
        fs_type: str = "lustre",
        num_osts: int = 64,
        num_mdts: int = 1,
        default_stripe_size: int = 1 * MiB,
        default_stripe_width: int = 1,
        block_size: int = 4096,
        memory_alignment: int = 8,
        seed: int = 0,
        slow_osts: dict[int, float] | None = None,
    ) -> None:
        if num_osts <= 0:
            raise ValueError("num_osts must be positive")
        if default_stripe_width > num_osts:
            raise ValueError("default stripe width cannot exceed OST count")
        if slow_osts and any(f < 1.0 for f in slow_osts.values()):
            raise ValueError("slow_osts factors must be >= 1.0")
        self.mount_point = mount_point.rstrip("/") or "/"
        self.fs_type = fs_type
        self.num_osts = num_osts
        self.num_mdts = num_mdts
        self.default_stripe_size = default_stripe_size
        self.default_stripe_width = default_stripe_width
        self.block_size = block_size
        self.memory_alignment = memory_alignment
        # Degraded servers: OST id -> service-time multiplier (>= 1.0).
        # A slow OST serves the same bytes, just slower — traffic counters
        # stay perfectly balanced, which is what makes the resulting
        # hotspot invisible to counter-only diagnosis.
        self.slow_osts: dict[int, float] = dict(slow_osts or {})
        self._seed = seed
        self._overrides: dict[str, tuple[int, int, int | None]] = {}
        self._layouts: dict[str, StripeLayout] = {}
        self._file_sizes: dict[str, int] = {}

    # -- configuration -------------------------------------------------

    def set_stripe(
        self,
        path: str,
        stripe_size: int,
        stripe_width: int,
        stripe_offset: int | None = None,
    ) -> None:
        """Install an ``lfs setstripe``-style override for ``path``.

        Must be called before the file is first touched, as on real Lustre
        (striping cannot be changed on a non-empty file).  ``stripe_offset``
        pins the starting OST (``lfs setstripe -i``); ``None`` keeps the
        deterministic per-path pseudo-random placement.
        """
        if path in self._layouts:
            raise ValueError(f"cannot restripe already-materialized file {path!r}")
        if stripe_width > self.num_osts:
            raise ValueError("stripe width cannot exceed OST count")
        if stripe_offset is not None and not 0 <= stripe_offset < self.num_osts:
            raise ValueError("stripe offset must name a valid OST")
        self._overrides[path] = (int(stripe_size), int(stripe_width), stripe_offset)

    def serving_ost(self, path: str, offset: int) -> int | None:
        """OST id attributed to a transfer starting at ``offset`` of ``path``.

        The attribution rule of the DXT ``ost`` column: the OST storing the
        stripe that holds the transfer's first byte.  A multi-stripe
        transfer touches further OSTs too (``bytes_per_ost`` has the full
        map), but segment attribution keeps the O(1) leading-OST
        convention; workloads that need exact attribution issue
        stripe-aligned, stripe-sized requests.  ``None`` for paths outside
        the mount point — the column's "unattributed" value, matching
        parsed text traces that never carried server info.
        """
        if not self.contains(path):
            return None
        return self.layout_for(path).ost_for_offset(offset)

    def ost_slowdown(self, ost_ids) -> float:
        """Service-time multiplier for a transfer touching ``ost_ids``.

        A striped transfer completes when its slowest stripe does, so the
        worst touched OST's factor applies to the whole operation.
        """
        if not self.slow_osts:
            return 1.0
        return max((self.slow_osts.get(ost, 1.0) for ost in ost_ids), default=1.0)

    # -- layout / geometry ----------------------------------------------

    def contains(self, path: str) -> bool:
        """True if ``path`` lives under this filesystem's mount point."""
        mount = self.mount_point
        return path == mount or path.startswith(mount.rstrip("/") + "/")

    def layout_for(self, path: str) -> StripeLayout:
        """Materialize (or fetch) the stripe layout of ``path``."""
        layout = self._layouts.get(path)
        if layout is None:
            size, width, start = self._overrides.get(
                path, (self.default_stripe_size, self.default_stripe_width, None)
            )
            if start is None:
                rng = rng_for(self._seed, "layout", path)
                start = int(rng.integers(0, self.num_osts))
            ost_ids = tuple((start + i) % self.num_osts for i in range(width))
            layout = StripeLayout(
                stripe_size=size, stripe_width=width, stripe_offset=start, ost_ids=ost_ids
            )
            self._layouts[path] = layout
        return layout

    def record_extent(self, path: str, end_offset: int) -> None:
        """Grow the tracked file size to cover a written/read extent."""
        if end_offset > self._file_sizes.get(path, 0):
            self._file_sizes[path] = end_offset

    def file_size(self, path: str) -> int:
        """Current size of ``path`` as observed through the runtime."""
        return self._file_sizes.get(path, 0)

    def known_files(self) -> list[str]:
        """Paths with materialized layouts, in first-touch order."""
        return list(self._layouts)
