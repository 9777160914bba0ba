"""Tests for building, sampling, and evaluating factored normal approximations."""

import time

import numpy as np
import pytest

from pathfinder import CholeskyFailError, eval_logq
from pathfinder.inv_hessian import CompactFactors, factors_from_pairs, stacked_factors
from pathfinder.normal_approx import build, build_many, sample
from pathfinder.targets import LOG_2PI

from oracles import dense_mvn_logpdf, dense_sigma, random_curvature_pairs


def empty_factors(alpha):
    alpha = np.asarray(alpha, float)
    n = alpha.size
    return factors_from_pairs(np.zeros((n, 0)), np.zeros((n, 0)), alpha)


def random_factors(rng, n, j):
    """Factors of j random pairs, with the pairs S and Z they were built from."""
    S, Z = random_curvature_pairs(rng, n, j, min_cos=0.02)
    alpha = rng.uniform(0.4, 2.5, n)
    return factors_from_pairs(S, Z, alpha), S, Z


def dense_from_factors(fac, S, Z):
    return dense_sigma(S, Z, fac.alpha)


class TestBuild:
    def test_empty_factors_standard_normal(self):
        ap = build(empty_factors(np.ones(3)), np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(ap.mu, np.zeros(3))
        assert ap.logdet == 0.0
        assert ap.rank == 0

    def test_newton_step_lands_on_mode(self):
        # gradient of a standard normal at t is -t, so mu = t + 1 * (-t) = 0
        t = np.array([0.7, -1.3, 2.2])
        ap = build(empty_factors(np.ones(3)), t, -t)
        np.testing.assert_allclose(ap.mu, np.zeros(3), atol=1e-15)

    def test_mu_and_logdet_match_dense(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            j = int(rng.integers(1, min(3, n // 2) + 1))
            fac, S, Z = random_factors(rng, n, j)
            theta = rng.standard_normal(n)
            grad = rng.standard_normal(n)
            ap = build(fac, theta, grad)
            sigma = dense_from_factors(fac, S, Z)
            np.testing.assert_allclose(ap.mu, theta + sigma @ grad, atol=1e-9)
            sign, logdet = np.linalg.slogdet(sigma)
            assert sign > 0
            assert ap.logdet == pytest.approx(logdet, abs=1e-8)

    def test_factorization_identity(self):
        # T T' with T = diag(sqrt(alpha)) [Q Lt | P] must equal the dense
        # covariance; P never materializes, so compare via Q Lt Lt' Q' + (I - Q Q')
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            j = int(rng.integers(1, min(3, n // 2) + 1))
            fac, S, Z = random_factors(rng, n, j)
            ap = build(fac, np.zeros(n), np.zeros(n))
            q, lt = ap.qmat, ap.lt
            middle = q @ (lt @ lt.T - np.eye(ap.rank)) @ q.T + np.eye(n)
            tt = np.sqrt(ap.alpha)[:, None] * middle * np.sqrt(ap.alpha)[None, :]
            np.testing.assert_allclose(tt, dense_from_factors(fac, S, Z), atol=1e-8)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(8)
        fac, _, _ = random_factors(rng, 10, 3)
        ap = build(fac, np.zeros(10), np.zeros(10))
        np.testing.assert_allclose(ap.qmat.T @ ap.qmat, np.eye(6), atol=1e-10)

        # Householder QR keeps Q orthonormal however ill-conditioned
        # diag(alpha)^(-1/2) beta is: here alpha and the pair scales span
        # 1e-8 to 1e8, with s and z as close to orthogonal as cos 1e-3.
        B, n, j = 40, 10, 3
        pairs = [random_curvature_pairs(rng, n, j, min_cos=1e-3) for _ in range(B)]
        scale = 10.0 ** rng.uniform(-8.0, 8.0, (B, 1, j))
        S = np.stack([s for s, _ in pairs]) * scale
        Z = np.stack([z for _, z in pairs]) * scale
        factors, ok = stacked_factors(S, Z, 10.0 ** rng.uniform(-8.0, 8.0, (B, n)))
        assert ok.all()
        ap, _ = build_many(factors, np.zeros((B, n)), np.zeros((B, n)))
        err = np.linalg.norm(ap.qmat.transpose(0, 2, 1) @ ap.qmat - np.eye(2 * j), 2, axis=(1, 2))
        assert err.max() <= 1e-13

    def test_cholesky_failure_reported(self):
        fac, _, _ = random_factors(np.random.default_rng(1), 4, 1)
        broken = CompactFactors(beta=fac.beta, gamma=-50.0 * np.eye(2), alpha=fac.alpha)
        with pytest.raises(CholeskyFailError):
            build(broken, np.zeros(4), np.zeros(4))


class TestSample:
    def test_identity_covariance_returns_u(self):
        ap = build(empty_factors(np.ones(4)), np.zeros(4), np.zeros(4))
        rng = np.random.default_rng(0)
        batch = sample(ap, 100, rng)
        expected_u = np.random.default_rng(0).standard_normal((100, 4))
        np.testing.assert_array_equal(batch.draws, expected_u)
        np.testing.assert_allclose(
            batch.logq, -0.5 * (np.sum(expected_u**2, axis=1) + 4 * LOG_2PI), atol=1e-14
        )

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(33)
        fac, _, _ = random_factors(rng, 5, 2)
        ap = build(fac, rng.standard_normal(5), rng.standard_normal(5))
        b1 = sample(ap, 64, np.random.default_rng(7))
        b2 = sample(ap, 64, np.random.default_rng(7))
        np.testing.assert_array_equal(b1.draws, b2.draws)
        np.testing.assert_array_equal(b1.logq, b2.logq)

    def test_moments_match_dense_oracle(self):
        rng = np.random.default_rng(11)
        fac, S, Z = random_factors(rng, 3, 1)
        theta = rng.standard_normal(3)
        grad = rng.standard_normal(3)
        ap = build(fac, theta, grad)
        sigma = dense_from_factors(fac, S, Z)
        batch = sample(ap, 100_000, np.random.default_rng(5))
        se_mean = np.sqrt(np.diag(sigma) / 100_000)
        np.testing.assert_array_less(np.abs(batch.draws.mean(axis=0) - ap.mu), 3 * se_mean)
        emp_cov = np.cov(batch.draws.T)
        se_cov = np.sqrt(
            (np.outer(np.diag(sigma), np.diag(sigma)) + sigma**2) / 100_000
        )
        np.testing.assert_array_less(np.abs(emp_cov - sigma), 3 * se_cov)


class TestEvalLogq:
    def test_at_mean(self):
        rng = np.random.default_rng(2)
        fac, _, _ = random_factors(rng, 4, 1)
        ap = build(fac, rng.standard_normal(4), rng.standard_normal(4))
        expected = -0.5 * (ap.logdet + 4 * LOG_2PI)
        assert eval_logq(ap, ap.mu) == pytest.approx(expected, abs=1e-12)

    def test_identity_at_basis_vector(self):
        ap = build(empty_factors(np.ones(3)), np.zeros(3), np.zeros(3))
        e1 = np.array([1.0, 0.0, 0.0])
        assert eval_logq(ap, e1) == pytest.approx(-0.5 * (1 + 3 * LOG_2PI), abs=1e-14)

    def test_matches_dense_logpdf(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            fac, S, Z = random_factors(rng, 5, 2)
            theta = rng.standard_normal(5)
            grad = rng.standard_normal(5)
            ap = build(fac, theta, grad)
            sigma = dense_from_factors(fac, S, Z)
            x = rng.standard_normal(5) * 2.0
            assert eval_logq(ap, x) == pytest.approx(
                dense_mvn_logpdf(x, ap.mu, sigma), abs=1e-8
            )

    def test_round_trip_with_sample(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            j = int(rng.integers(0, min(3, n // 2) + 1))
            fac = random_factors(rng, n, j)[0] if j else empty_factors(rng.uniform(0.5, 2, n))
            ap = build(fac, rng.standard_normal(n), rng.standard_normal(n))
            batch = sample(ap, 25, rng)
            for draw, logq in zip(batch.draws, batch.logq):
                assert eval_logq(ap, draw) == pytest.approx(logq, abs=1e-8)


def test_no_quadratic_cost_in_dimension():
    # one pair in very high dimension: everything must stay O(N J)
    n = 200_000
    rng = np.random.default_rng(0)
    s = rng.standard_normal(n)
    z = s + 0.1 * rng.standard_normal(n)
    assert s @ z > 0
    fac = factors_from_pairs(s[:, None], z[:, None], np.ones(n))
    start = time.monotonic()
    ap = build(fac, np.zeros(n), rng.standard_normal(n))
    batch = sample(ap, 10, rng)
    eval_logq(ap, batch.draws[0])
    elapsed = time.monotonic() - start
    assert ap.qmat.shape == (n, 2)
    assert elapsed < 2.0, f"high-dimensional path took {elapsed:.2f}s"
