"""Unit tests for the centralized quantile oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.oracle import (
    exact_quantile,
    insertion_rank_error,
    is_valid_quantile,
    quantile_rank,
    rank_error,
    rank_of_value,
)


class TestQuantileRank:
    def test_median_rank(self):
        assert quantile_rank(500, 0.5) == 250
        assert quantile_rank(501, 0.5) == 250

    def test_phi_zero_clamps_to_one(self):
        assert quantile_rank(100, 0.0) == 1

    def test_phi_one_is_maximum(self):
        assert quantile_rank(100, 1.0) == 100

    def test_quartiles(self):
        assert quantile_rank(100, 0.25) == 25
        assert quantile_rank(100, 0.75) == 75

    def test_rejects_bad_phi(self):
        with pytest.raises(ConfigurationError):
            quantile_rank(10, 1.5)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            quantile_rank(0, 0.5)


class TestExactQuantile:
    def test_simple(self):
        values = np.array([5, 1, 9, 3, 7])
        assert exact_quantile(values, 1) == 1
        assert exact_quantile(values, 3) == 5
        assert exact_quantile(values, 5) == 9

    def test_duplicates(self):
        values = np.array([3, 3, 3, 3, 103])
        # The paper's intro example: median 3 despite the outlier.
        assert exact_quantile(values, 3) == 3

    def test_matches_numpy_sort(self, rng):
        values = rng.integers(0, 100, size=57)
        ordered = np.sort(values)
        for k in (1, 10, 29, 57):
            assert exact_quantile(values, k) == ordered[k - 1]

    def test_rank_out_of_range(self):
        with pytest.raises(ConfigurationError):
            exact_quantile(np.array([1, 2]), 3)
        with pytest.raises(ConfigurationError):
            exact_quantile(np.array([1, 2]), 0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            exact_quantile(np.array([]), 1)


class TestRankOfValue:
    def test_counts(self):
        values = np.array([1, 2, 2, 3, 5])
        assert rank_of_value(values, 2) == (1, 2, 2)
        assert rank_of_value(values, 4) == (4, 0, 1)

    def test_counts_sum_to_total(self, rng):
        values = rng.integers(0, 20, size=40)
        for probe in range(-1, 22):
            less, equal, greater = rank_of_value(values, probe)
            assert less + equal + greater == 40


class TestIsValidQuantile:
    def test_valid_median(self):
        values = np.array([1, 2, 3, 4, 5])
        assert is_valid_quantile(values, 3, k=3)
        assert not is_valid_quantile(values, 2, k=3)

    def test_validity_matches_exact_quantile(self, rng):
        values = rng.integers(0, 30, size=25)
        for k in (1, 12, 25):
            truth = exact_quantile(values, k)
            for probe in range(0, 31):
                assert is_valid_quantile(values, probe, k) == (probe == truth)


class TestRankErrorMetrics:
    def test_absent_value_at_insertion_rank(self):
        """The one place the two metrics part: an absent value at k = l + 1.

        ``rank_error`` places an absent value between ranks ``l`` and
        ``l + 1`` and charges it one rank; ``insertion_rank_error`` scores
        it at the rank it would take if inserted, ``l + 1``, and charges
        nothing.  The fault study relies on the latter, the runners on the
        former, so neither may be folded into the other.
        """
        values = np.array([10, 20, 30, 40])
        less, equal, _ = rank_of_value(values, 25)
        assert (less, equal) == (2, 0)
        assert insertion_rank_error(values, 25, k=less + 1) == 0
        assert rank_error(values, 25, k=less + 1) == 1

    def test_metrics_agree_on_present_values(self, rng):
        values = rng.integers(0, 50, size=200)
        for value in np.unique(values)[:20].tolist():
            for k in (1, 50, 100, 200):
                assert insertion_rank_error(values, value, k) == rank_error(
                    values, value, k
                )
