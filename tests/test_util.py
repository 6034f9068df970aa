"""Unit tests for repro.util.*"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import derive_seed, rng_for
from repro.util.stats import gini, normalized_variance, weighted_percentile
from repro.util.text import sentence_split, simple_tokens
from repro.util.units import GiB, KiB, MiB, format_bytes, format_count, format_duration, parse_bytes


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_derive_seed_scope_sensitivity(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_scope_concatenation_is_not_ambiguous(self):
        assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")

    def test_rng_streams_independent(self):
        a = rng_for(0, "x").random(5)
        b = rng_for(0, "y").random(5)
        assert not np.allclose(a, b)

    def test_rng_reproducible(self):
        assert np.allclose(rng_for(3, "z").random(4), rng_for(3, "z").random(4))


class TestUnits:
    def test_format_bytes_scales(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(4 * MiB) == "4.00 MiB"
        assert format_bytes(2 * GiB) == "2.00 GiB"

    def test_parse_bytes_forms(self):
        assert parse_bytes("4M") == 4 * MiB
        assert parse_bytes("1 MiB") == MiB
        assert parse_bytes("47008") == 47008
        assert parse_bytes("2k") == 2 * KiB

    def test_parse_bytes_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_bytes("lots")
        with pytest.raises(ValueError):
            parse_bytes("12 parsecs")

    @given(st.integers(min_value=0, max_value=10**15))
    def test_format_count_has_separators(self, n):
        assert format_count(n) == f"{n:,}"

    def test_format_duration(self):
        assert format_duration(722.0) == "722.0 s"
        assert format_duration(0.0042) == "4.200 ms"


class TestStats:
    def test_gini_uniform_is_zero(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_gini_concentrated_is_high(self):
        assert gini([0, 0, 0, 100]) == pytest.approx(0.75)

    def test_gini_empty_and_zero(self):
        assert gini([]) == 0.0
        assert gini([0.0, 0.0]) == 0.0

    def test_gini_rejects_negative(self):
        with pytest.raises(ValueError):
            gini([-1, 2])

    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=50))
    def test_gini_bounds(self, values):
        g = gini(values)
        assert -1e-9 <= g <= 1.0

    def test_normalized_variance(self):
        assert normalized_variance([1, 1, 1]) == pytest.approx(0.0)
        assert normalized_variance([]) == 0.0
        assert normalized_variance([0, 2]) == pytest.approx(1.0)  # var=1, mean=1

    def test_weighted_percentile_median(self):
        v = np.array([1.0, 2.0, 3.0])
        w = np.array([1.0, 1.0, 1.0])
        assert 1.0 <= weighted_percentile(v, w, 50) <= 3.0

    def test_weighted_percentile_shape_mismatch(self):
        with pytest.raises(ValueError):
            weighted_percentile(np.array([1.0]), np.array([1.0, 2.0]), 50)


class TestText:
    def test_simple_tokens_keeps_numbers_and_paths(self):
        toks = simple_tokens("read 47008 bytes from /scratch/f.dat!")
        assert "47008" in toks and "/scratch/f.dat" in toks and "!" in toks

    def test_sentence_split(self):
        s = sentence_split("One sentence. Another one! A third? Done.")
        assert len(s) == 4
