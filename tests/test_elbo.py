"""Tests for the Monte Carlo ELBO estimator."""

import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pathfinder import DimensionMismatchError, make_target
from pathfinder.elbo import elbo_estimate
from pathfinder.inv_hessian import factors_from_pairs
from pathfinder.normal_approx import build, sample

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=40
)


class TestExamples:
    def test_equal_vectors_give_zero(self):
        v = np.array([-1.0, -2.5, 3.0])
        assert elbo_estimate(v, v) == 0.0

    def test_constant_offset(self):
        logp = np.array([-1.0, -2.0, -3.0])
        assert float(elbo_estimate(logp, logp - 4.2)) == pytest.approx(4.2, abs=1e-12)

    def test_two_draw_arithmetic(self):
        # The per-draw terms are 2 and 3; the value is their mean.
        value = elbo_estimate([-1.0, -2.0], [-3.0, -5.0])
        assert value.shape == () and float(value) == pytest.approx(2.5)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            elbo_estimate([1.0, 2.0], [1.0])
        with pytest.raises(DimensionMismatchError):
            elbo_estimate([], [])


class TestNonFiniteHandling:
    def test_non_finite_logp_disqualifies(self):
        assert elbo_estimate([-np.inf, -1.0], [-1.0, -1.0]) == -np.inf

    def test_non_finite_logq_disqualifies(self):
        assert elbo_estimate([-1.0, -1.0], [np.inf, -1.0]) == -np.inf

    def test_nan_disqualifies(self):
        assert elbo_estimate([np.nan, -1.0], [-1.0, -1.0]) == -np.inf


class TestProperties:
    @given(finite_vectors, st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_shift_equivariance(self, vals, c):
        logp = np.asarray(vals)
        logq = np.zeros_like(logp)
        base = float(elbo_estimate(logp, logq))
        shifted = float(elbo_estimate(logp + c, logq))
        assert shifted == pytest.approx(base + c, rel=1e-12, abs=1e-9)

    # Terms that cancel leave a mean far smaller than they are, so two
    # summation orders may differ by far more than its relative rounding:
    # this input breaks a relative tolerance of 1e-12 by a factor of 2.5.
    @given(finite_vectors, st.randoms(use_true_random=False))
    @example(vals=[0.0, 998949.0, -998962.0, 0.0], rand=random.Random(0))
    def test_permutation_invariance(self, vals, rand):
        logp = np.asarray(vals)
        logq = np.asarray([rand.uniform(-5, 5) for _ in vals])
        perm = np.asarray(rand.sample(range(len(vals)), len(vals)), dtype=int)
        a = float(elbo_estimate(logp, logq))
        b = float(elbo_estimate(logp[perm], logq[perm]))
        # The means of n terms summed in two orders differ by at most
        # n eps max|term|.
        assert abs(b - a) <= len(vals) * np.finfo(float).eps * np.abs(logp - logq).max()


@pytest.mark.parametrize("m", [1, 2, 5, 7, 130])
def test_stacked_rows_equal_row_by_row_calls(m):
    # Rows of a stack, some with a -inf, +inf or NaN term, must give the
    # values of 1-D calls bit for bit, and of the per-row loop that a
    # stacked call replaces.
    rng = np.random.default_rng(m)
    logp = rng.normal(-300.0, 50.0, (3, 4, m))
    logq = rng.normal(0.0, 50.0, (3, 4, m))
    logp[0, 1, -1] = -np.inf
    logq[1, 2, 0] = -np.inf          # a +inf term
    logp[2, 3, m // 2] = np.nan
    logq[2, 0, :] = np.inf           # every term non-finite
    stacked = elbo_estimate(logp, logq)
    assert stacked.shape == (3, 4)
    for index in np.ndindex(3, 4):
        terms = logp[index] - logq[index]
        loop = float(np.mean(terms)) if np.all(np.isfinite(terms)) else -np.inf
        alone = elbo_estimate(logp[index], logq[index])
        assert alone.shape == ()
        assert np.float64(stacked[index]).tobytes() == np.float64(alone).tobytes()
        assert np.float64(alone).tobytes() == np.float64(loop).tobytes()
    assert np.sum(stacked == -np.inf) == 4


def test_stacked_shape_checks():
    with pytest.raises(DimensionMismatchError):
        elbo_estimate(np.zeros((3, 2)), np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError):
        elbo_estimate(np.zeros((3, 0)), np.zeros((3, 0)))
    with pytest.raises(DimensionMismatchError):
        elbo_estimate(0.0, 0.0)


def test_exact_match_is_identically_zero():
    # approximation equal to the target: every per-draw term cancels
    target = make_target("std_normal", dim=4)
    alpha = np.ones(4)
    approx = build(
        factors_from_pairs(np.zeros((4, 0)), np.zeros((4, 0)), alpha),
        np.zeros(4), np.zeros(4),
    )
    batch = sample(approx, 10_000, np.random.default_rng(1))
    logp = target.logp_many(batch.draws)
    assert np.abs(logp - batch.logq).max() < 1e-10
    assert abs(elbo_estimate(logp, batch.logq)) < 1e-10
