"""Variety measures: frozen values, cross-checks, and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylemix.core import DistanceMatrix, FeatureCatalog, Metric, distance_matrix
from stylemix.errors import MalformedInputError
from stylemix.variety import (
    MONOTONICITY_TOLERANCE,
    VarietyMeasure,
    check_monotonicity,
    variety,
)

from conftest import brute_variety

# Hand-checked distance matrix used for the frozen values below.
FROZEN_D = DistanceMatrix(
    np.array(
        [
            [0.0, 4.0, 1.0, 7.0],
            [4.0, 0.0, 3.0, 2.0],
            [1.0, 3.0, 0.0, 5.0],
            [7.0, 2.0, 5.0, 0.0],
        ]
    )
)

# variety(measure, {0,1,2,3}, FROZEN_D), worked out by hand:
#   pair distances: 01=4, 02=1, 03=7, 12=3, 13=2, 23=5 (sum 22)
#   row sums: 0:12, 1:9, 2:9, 3:14
#   row minima: 0:1, 1:2, 2:1, 3:2
FROZEN_FULL_SET_VALUES = {
    VarietyMeasure.MAX_SUM_SUM: 22.0,
    VarietyMeasure.MAX_MIN: 1.0,
    VarietyMeasure.MAX_MIN_SUM: 9.0,
    VarietyMeasure.MAX_SUM_MIN: 6.0,
    VarietyMeasure.MAX_MEAN: 5.5,
}


def random_distance_matrix(rng: np.random.Generator, n: int) -> DistanceMatrix:
    half = np.triu(rng.random((n, n)) * 10.0, k=1)
    return DistanceMatrix(half + half.T)


@st.composite
def matrix_and_subset(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    d = random_distance_matrix(rng, n)
    size = draw(st.integers(min_value=1, max_value=n))
    subset = tuple(int(i) for i in rng.choice(n, size=size, replace=False))
    return d, subset


class TestFrozenValues:
    @pytest.mark.parametrize("measure", list(VarietyMeasure))
    def test_full_set(self, measure):
        assert variety(measure, (0, 1, 2, 3), FROZEN_D) == pytest.approx(
            FROZEN_FULL_SET_VALUES[measure], abs=1e-12
        )

    def test_pair_subset_all_measures_collapse(self):
        # On a two-element set: sum = min = minsum = summin = d, mean = d/2.
        d01 = FROZEN_D.entries[0, 1]
        assert variety(VarietyMeasure.MAX_SUM_SUM, (0, 1), FROZEN_D) == d01
        assert variety(VarietyMeasure.MAX_MIN, (0, 1), FROZEN_D) == d01
        assert variety(VarietyMeasure.MAX_MIN_SUM, (0, 1), FROZEN_D) == d01
        assert variety(VarietyMeasure.MAX_SUM_MIN, (0, 1), FROZEN_D) == 2 * d01
        assert variety(VarietyMeasure.MAX_MEAN, (0, 1), FROZEN_D) == d01 / 2

    @pytest.mark.parametrize("measure", list(VarietyMeasure))
    def test_singleton_scores_zero(self, measure):
        assert variety(measure, (2,), FROZEN_D) == 0.0

    def test_duplicate_indices_collapse(self):
        assert variety(VarietyMeasure.MAX_SUM_SUM, (1, 1, 3), FROZEN_D) == 2.0


class TestSubsetValidation:
    def test_empty_subset_rejected(self):
        with pytest.raises(MalformedInputError, match="variety is undefined for an empty subset"):
            variety(VarietyMeasure.MAX_MEAN, (), FROZEN_D)

    def test_out_of_range_rejected(self):
        with pytest.raises(MalformedInputError, match=r"index 4 outside \[0, 4\)"):
            variety(VarietyMeasure.MAX_MEAN, (0, 4), FROZEN_D)
        # A non-integer index is rejected, not truncated to one in range.
        for subset in ([0.9, 2.7], np.array([0.5, 1.5, 2.5]), (True, 2), ("1", 2)):
            with pytest.raises(MalformedInputError, match=r"index .+ is not an integer"):
                variety(VarietyMeasure.MAX_MEAN, subset, FROZEN_D)
        with pytest.raises(MalformedInputError, match=r"index 2\.9 is not an integer"):
            check_monotonicity(VarietyMeasure.MAX_MEAN, FROZEN_D, (0, 1), 2.9)
        for ints in (np.array([0, 2]), np.array([2, 0], dtype=np.uint8)):
            assert variety(VarietyMeasure.MAX_MEAN, ints, FROZEN_D) == variety(
                VarietyMeasure.MAX_MEAN, (0, 2), FROZEN_D
            )

    def test_negative_rejected(self):
        with pytest.raises(MalformedInputError, match=r"index -1 outside \[0, 4\)"):
            variety(VarietyMeasure.MAX_MEAN, (-1,), FROZEN_D)


class TestAgainstOracle:
    @given(matrix_and_subset())
    @settings(max_examples=200, deadline=None)
    def test_every_measure_matches_brute_force(self, case):
        d, subset = case
        for measure in VarietyMeasure:
            assert variety(measure, subset, d) == pytest.approx(
                brute_variety(measure, subset, d.entries), abs=1e-9
            )

    @given(matrix_and_subset())
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, case):
        d, subset = case
        reversed_subset = tuple(reversed(subset))
        for measure in VarietyMeasure:
            assert variety(measure, subset, d) == variety(
                measure, reversed_subset, d
            )

    @given(
        matrix_and_subset(),
        st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_positive_homogeneity(self, case, scale):
        d, subset = case
        scaled_d = DistanceMatrix(d.entries * scale)
        for measure in VarietyMeasure:
            base = variety(measure, subset, d)
            scaled = variety(measure, subset, scaled_d)
            assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-9)

    def test_max_mean_is_sum_over_size(self):
        rng = np.random.default_rng(11)
        d = random_distance_matrix(rng, 7)
        subset = (0, 2, 4, 6)
        expected = variety(VarietyMeasure.MAX_SUM_SUM, subset, d) / len(subset)
        assert variety(VarietyMeasure.MAX_MEAN, subset, d) == pytest.approx(expected)


class TestMarginalGain:
    def test_gain_rejects_member(self):
        with pytest.raises(MalformedInputError, match="added index 1 is already in the subset"):
            check_monotonicity(VarietyMeasure.MAX_MEAN, FROZEN_D, (0, 1), 1)

    @pytest.mark.parametrize("added", [-1, 4])
    def test_gain_rejects_index_outside_matrix(self, added):
        with pytest.raises(MalformedInputError, match=rf"index {added} outside \[0, 4\)"):
            check_monotonicity(VarietyMeasure.MAX_MEAN, FROZEN_D, (0, 1), added)


class TestMonotonicity:
    def test_max_mean_holds_under_euclidean(self):
        # Random point clouds plus one added point; the defining
        # property of the selected measure.
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(3, 12))
            dim = int(rng.integers(2, 6))
            pts = rng.normal(size=(n, dim))
            cat = FeatureCatalog(tuple(f"s{i}" for i in range(n)), pts)
            d = distance_matrix(cat, Metric.EUCLIDEAN)
            k = int(rng.integers(2, n))
            subset = tuple(int(i) for i in rng.choice(n, size=k, replace=False))
            outside = [i for i in range(n) if i not in subset]
            added = int(rng.choice(outside))
            result = check_monotonicity(VarietyMeasure.MAX_MEAN, d, subset, added)
            assert result.held
            assert result.after >= result.before - MONOTONICITY_TOLERANCE

    @given(matrix_and_subset())
    @settings(max_examples=150, deadline=None)
    def test_max_sum_sum_holds_on_any_nonnegative_matrix(self, case):
        d, subset = case
        n = d.n
        outside = [i for i in range(n) if i not in subset]
        if not outside:
            return
        result = check_monotonicity(
            VarietyMeasure.MAX_SUM_SUM, d, subset, outside[0]
        )
        assert result.held

    def test_known_violation_detected(self):
        # Unit segment with midpoint: adding the midpoint drops MaxMin.
        pts = np.array([[0.0], [1.0], [0.5]])
        cat = FeatureCatalog(("a", "b", "m"), pts)
        d = distance_matrix(cat, Metric.EUCLIDEAN)
        result = check_monotonicity(VarietyMeasure.MAX_MIN, d, (0, 1), 2)
        assert not result.held
        assert result.before == pytest.approx(1.0)
        assert result.after == pytest.approx(0.5)

    def test_max_mean_can_drop_on_a_raw_matrix(self):
        # Symmetric, non-negative, zero diagonal, but from neither built-in
        # metric: even the square roots break the triangle inequality.
        d = DistanceMatrix(np.array([[0.0, 10.0, 0.1], [10.0, 0.0, 0.1], [0.1, 0.1, 0.0]]))
        result = check_monotonicity(VarietyMeasure.MAX_MEAN, d, (0, 1), 2)
        assert not result.held
        assert result.before == pytest.approx(5.0)
        assert result.after == pytest.approx(3.4)
