"""Tests for the exact 1-Wasserstein evaluator."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from pathfinder import DimensionMismatchError, SizeLimitError, wasserstein1


def brute_force_equal(a, b):
    """Minimum over all assignments, averaged; feasible for tiny samples."""
    m = len(a)
    cost = cdist(a, b)
    best = np.inf
    for perm in itertools.permutations(range(m)):
        best = min(best, sum(cost[i, perm[i]] for i in range(m)) / m)
    return best


def expanded_assignment(a, b):
    """Unequal sizes via least-common-multiple atom expansion."""
    m, k = len(a), len(b)
    lcm = np.lcm(m, k)
    a_big = np.repeat(a, lcm // m, axis=0)
    b_big = np.repeat(b, lcm // k, axis=0)
    cost = cdist(a_big, b_big)
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].sum() / lcm


class TestExamples:
    def test_identical_samples(self):
        a = np.random.default_rng(0).standard_normal((20, 3))
        assert wasserstein1(a, a.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_point_masses(self):
        x = np.array([[1.0, 2.0]])
        y = np.array([[4.0, 6.0]])
        assert wasserstein1(x, y) == pytest.approx(5.0, abs=1e-12)

    def test_three_vs_three_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.standard_normal((3, 2))
            b = rng.standard_normal((3, 2))
            assert wasserstein1(a, b) == pytest.approx(brute_force_equal(a, b), abs=1e-9)

    def test_benchmark_shape_matches_assignment_oracle(self):
        # 100 draws against 100 exact draws in 50-d, as the benchmark scores mvn
        rng = np.random.default_rng(9)
        for _ in range(3):
            a = rng.standard_normal((100, 50))
            b = 2.0 * rng.standard_normal((100, 50)) + 0.5
            assert wasserstein1(a, b) == pytest.approx(expanded_assignment(a, b), abs=1e-9)

    def test_ties_match_assignment_oracle(self):
        # Many optimal assignments: equal costs everywhere must not derail the solver
        rng = np.random.default_rng(10)
        grid = rng.integers(-2, 3, size=(60, 3)).astype(float)
        dup = np.repeat(rng.standard_normal((12, 4)), 5, axis=0)
        cases = [
            (grid, rng.integers(-2, 3, size=(60, 3)).astype(float)),
            (grid, grid[rng.permutation(60)]),
            (dup, dup[rng.permutation(60)] + 1.0),
            (dup, rng.standard_normal((60, 4))),
            (np.zeros((30, 2)), np.ones((30, 2))),
        ]
        for a, b in cases:
            assert wasserstein1(a, b) == pytest.approx(expanded_assignment(a, b), abs=1e-9)
        for a in (grid, dup):
            assert wasserstein1(a, a) == 0.0


class TestMetricAxioms:
    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.standard_normal((8, 2))
            b = rng.standard_normal((8, 2))
            assert wasserstein1(a, b) == pytest.approx(wasserstein1(b, a), abs=1e-10)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c = (rng.standard_normal((6, 2)) for _ in range(3))
            assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((10, 3))
        b = rng.standard_normal((10, 3))
        v = np.array([2.0, -1.0, 0.5])
        assert wasserstein1(a + v, b + v) == pytest.approx(wasserstein1(a, b), abs=1e-9)

    def test_shift_of_copy_gives_norm(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((15, 3))
        v = np.array([1.0, 2.0, -2.0])
        assert wasserstein1(a + v, a) == pytest.approx(np.linalg.norm(v), abs=1e-9)


class TestUnequalSizes:
    def test_single_point_vs_sample_is_mean_distance(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 2))
        b = rng.standard_normal((7, 2))
        expected = float(np.mean(np.linalg.norm(b - x, axis=1)))
        assert wasserstein1(x, b) == pytest.approx(expected, abs=1e-9)

    def test_matches_expanded_assignment_oracle(self):
        rng = np.random.default_rng(7)
        for m, k in [(2, 4), (3, 5), (4, 6)]:
            a = rng.standard_normal((m, 2))
            b = rng.standard_normal((k, 2))
            assert wasserstein1(a, b) == pytest.approx(expanded_assignment(a, b), abs=1e-9)

    def test_expansion_just_under_the_limit(self):
        # lcm(30, 17) = 510 atoms each, two short of MAX_POINTS
        rng = np.random.default_rng(11)
        a = rng.standard_normal((30, 3))
        b = rng.standard_normal((17, 3))
        assert wasserstein1(a, b) == pytest.approx(expanded_assignment(a, b), abs=1e-9)


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            wasserstein1(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            wasserstein1(np.zeros((513, 1)), np.zeros((4, 1)))

    def test_size_limit_applies_to_the_expanded_size(self):
        # 100 and 99 points expand to lcm(100, 99) = 9,900 atoms each
        with pytest.raises(SizeLimitError, match="100 and 99"):
            wasserstein1(np.zeros((100, 2)), np.zeros((99, 2)))

    def test_non_finite_rejected(self):
        a = np.zeros((2, 2))
        a[0, 0] = np.nan
        with pytest.raises(DimensionMismatchError):
            wasserstein1(a, np.zeros((2, 2)))
        # finite points whose distances overflow float64
        with pytest.raises(DimensionMismatchError):
            wasserstein1(np.full((2, 2), 1e200), np.full((2, 2), -1e200))

    def test_one_dimensional_input_promoted(self):
        # 1-d W1 equals the sorted-difference mean for equal sizes
        rng = np.random.default_rng(8)
        a = rng.standard_normal(9)
        b = rng.standard_normal(9)
        expected = np.abs(np.sort(a) - np.sort(b)).mean()
        assert wasserstein1(a, b) == pytest.approx(expected, abs=1e-10)
