"""Tests for the Monte Carlo ELBO estimator."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathfinder import DimensionMismatchError, build, elbo_estimate, make_target, sample
from pathfinder.inv_hessian import factors_from_pairs

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=40
)


class TestExamples:
    def test_equal_vectors_give_zero(self):
        v = np.array([-1.0, -2.5, 3.0])
        assert elbo_estimate(v, v).value == 0.0

    def test_constant_offset(self):
        logp = np.array([-1.0, -2.0, -3.0])
        assert elbo_estimate(logp, logp - 4.2).value == pytest.approx(4.2, abs=1e-12)

    def test_two_draw_arithmetic(self):
        est = elbo_estimate([-1.0, -2.0], [-3.0, -5.0])
        assert est.value == pytest.approx(2.5)
        np.testing.assert_array_equal(est.per_draw, [2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            elbo_estimate([1.0, 2.0], [1.0])
        with pytest.raises(DimensionMismatchError):
            elbo_estimate([], [])


class TestNonFiniteHandling:
    def test_non_finite_logp_disqualifies(self):
        assert elbo_estimate([-np.inf, -1.0], [-1.0, -1.0]).value == -np.inf

    def test_non_finite_logq_disqualifies(self):
        assert elbo_estimate([-1.0, -1.0], [np.inf, -1.0]).value == -np.inf

    def test_nan_disqualifies(self):
        assert elbo_estimate([np.nan, -1.0], [-1.0, -1.0]).value == -np.inf


class TestProperties:
    @given(finite_vectors, st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_shift_equivariance(self, vals, c):
        logp = np.asarray(vals)
        logq = np.zeros_like(logp)
        base = elbo_estimate(logp, logq).value
        shifted = elbo_estimate(logp + c, logq).value
        assert shifted == pytest.approx(base + c, rel=1e-12, abs=1e-9)

    @given(finite_vectors, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, vals, rand):
        logp = np.asarray(vals)
        logq = np.asarray([rand.uniform(-5, 5) for _ in vals])
        perm = np.asarray(rand.sample(range(len(vals)), len(vals)), dtype=int)
        a = elbo_estimate(logp, logq).value
        b = elbo_estimate(logp[perm], logq[perm]).value
        assert b == pytest.approx(a, rel=1e-12, abs=1e-12)


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
    assert stacked.value.shape == (3, 4) and stacked.num_draws == m
    for index in np.ndindex(3, 4):
        terms = logp[index] - logq[index]
        loop = float(np.mean(terms)) if np.all(np.isfinite(terms)) else -np.inf
        alone = elbo_estimate(logp[index], logq[index]).value
        assert isinstance(alone, float)
        assert np.float64(stacked.value[index]).tobytes() == np.float64(alone).tobytes()
        assert np.float64(alone).tobytes() == np.float64(loop).tobytes()
    assert np.sum(stacked.value == -np.inf) == 4


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
    est = elbo_estimate(logp, batch.logq)
    assert np.abs(est.per_draw).max() < 1e-10
    assert abs(est.value) < 1e-10
