"""Shared utilities used by every subsystem of the IOAgent reproduction.

The helpers here are deliberately small and dependency-free (NumPy only):
seeded random-number streams (:mod:`repro.util.rng`), byte/unit formatting
(:mod:`repro.util.units`), text helpers (:mod:`repro.util.text`), and
distribution statistics (:mod:`repro.util.stats`).
"""

from repro.util.rng import derive_seed, rng_for
from repro.util.stats import gini, normalized_variance, weighted_percentile
from repro.util.units import format_bytes, format_count, format_duration, parse_bytes

__all__ = [
    "derive_seed",
    "rng_for",
    "format_bytes",
    "format_count",
    "format_duration",
    "parse_bytes",
    "gini",
    "normalized_variance",
    "weighted_percentile",
]
