"""Tests for the log-density target zoo."""

import copy
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit, log_expit

from pathfinder import (
    BadParamsError,
    DimensionMismatchError,
    NonFiniteError,
    UnknownTargetError,
    make_target,
    targets,
)
from pathfinder.targets import (
    TARGET_NAMES,
    CounterView,
    LogDensityTarget,
    LogisticRegression,
    NealFunnel,
    StdNormal,
    _row_dot,
)

from oracles import PointTarget, fd_gradient

LOG_2PI = math.log(2 * math.pi)


class PointNormal(PointTarget):
    """An unnormalized standard normal written one point at a time."""

    def _logp_grad_point(self, theta):
        return -0.5 * float(theta @ theta), -theta


def random_points(target, count, rng):
    pts = rng.normal(0.0, 1.5, (count, target.dim))
    if target.name.startswith("neal_funnel"):
        pts[:, 0] = rng.normal(0.0, 1.5, count)
    return pts


def all_targets():
    rng = np.random.default_rng(99)
    cov = np.diag(rng.uniform(0.5, 2.0, 4))
    cov[0, 1] = cov[1, 0] = 0.3
    return [
        make_target("std_normal", dim=3),
        make_target("mvn", mu=[1.0, -0.5, 0.25, 0.0], cov=cov.tolist()),
        make_target("neal_funnel", dim=5),
        make_target("eight_schools_centered"),
        make_target("eight_schools_noncentered"),
        make_target("logistic_regression", n=20, p=3, data_seed=1),
    ]


class TestStdNormal:
    def test_origin_value(self):
        t = make_target("std_normal", dim=2)
        logp, grad = t.logp_grad(np.zeros(2))
        assert logp == pytest.approx(-LOG_2PI, abs=1e-14)
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_univariate_at_three(self):
        t = make_target("std_normal", dim=1)
        logp, grad = t.logp_grad(np.array([3.0]))
        assert logp == pytest.approx(-4.5 - 0.5 * LOG_2PI, abs=1e-14)
        assert grad[0] == pytest.approx(-3.0)


class TestNealFunnel:
    def test_origin_matches_hand_evaluation(self):
        # normal(0 | 0, 3) * normal(0 | 0, exp(0)) evaluated term by term
        t = make_target("neal_funnel", dim=2)
        logp, grad = t.logp_grad(np.zeros(2))
        expected = (-0.5 * LOG_2PI - math.log(3.0)) + (-0.5 * LOG_2PI)
        assert logp == pytest.approx(expected, abs=1e-14)
        assert grad[0] == pytest.approx(-0.5)  # half the scale-Jacobian of one beta term
        assert grad[1] == 0.0

    def test_hundred_dimensional_structure(self):
        t = make_target("neal_funnel", dim=100)
        assert t.dim == 100
        # with 99 beta terms, the tau gradient at the origin is -99/2
        _, grad = t.logp_grad(np.zeros(100))
        assert grad[0] == pytest.approx(-49.5)

    def test_overflow_is_reported(self):
        t = make_target("neal_funnel", dim=2)
        with pytest.raises(NonFiniteError):
            t.logp_grad(np.array([-800.0, 1.0]))


class TestMvn:
    def test_identity_matches_std_normal(self):
        t_mvn = make_target("mvn", mu=[0.0, 0.0], cov=np.eye(2).tolist())
        t_std = make_target("std_normal", dim=2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(0, 2, 2)
            lp1, g1 = t_mvn.logp_grad(x)
            lp2, g2 = t_std.logp_grad(x)
            assert lp1 == pytest.approx(lp2, abs=1e-12)
            np.testing.assert_allclose(g1, g2, atol=1e-12)

    def test_matches_dense_reference_formula(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 4))
        cov = A @ A.T + 4.0 * np.eye(4)
        mu = rng.standard_normal(4)
        t = make_target("mvn", mu=mu.tolist(), cov=cov.tolist())
        for _ in range(25):
            x = rng.normal(0, 2, 4)
            diff = x - mu
            expected = -0.5 * (
                diff @ np.linalg.solve(cov, diff)
                + np.log(np.linalg.det(cov))
                + 4 * LOG_2PI
            )
            assert t.logp(x) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 7, 13, 50, 64, 101])
    def test_every_row_equals_its_one_row_evaluation(self, dim):
        # Each row is its own product with the precision, so a row's bits do
        # not depend on its batch, its place in it, or the entry point.
        rng = np.random.default_rng(dim)
        A = rng.standard_normal((dim, dim))
        t = make_target("mvn", mu=rng.standard_normal(dim), cov=A @ A.T / dim + 0.1 * np.eye(dim))
        pts = rng.normal(0.0, 2.0, (303, dim))
        one = [t.logp_grad_many(p[None]) for p in pts]
        want_logp = np.array([lp[0] for lp, _, _ in one])
        want_grad = np.array([g[0] for _, g, _ in one])
        for p, lp, g in zip(pts, want_logp, want_grad):
            got_logp, got_grad = t.logp_grad(p)
            assert got_logp == lp and np.array_equal(got_grad, g)
            assert t.logp(p) == lp and t.logp_many(p[None])[0] == lp
        for size in (2, 7, 64, 135, 300):
            for start in (0, 3):
                rows = slice(start, start + size)
                logp, grad, ok = t.logp_grad_many(pts[rows])
                assert ok.all()
                assert np.array_equal(logp, want_logp[rows])
                assert np.array_equal(grad, want_grad[rows])
                assert np.array_equal(t.logp_many(pts[rows]), want_logp[rows])

    @staticmethod
    def gradient_and_cho_solve(cov, seed):
        """The gradient at 200 random points, and its value from scipy's cho_solve."""
        rng = np.random.default_rng(seed)
        mu = rng.standard_normal(cov.shape[0])
        pts = rng.normal(0.0, 2.0, (200, cov.shape[0]))
        factor = cho_factor(cov, lower=True)
        expected = np.array([-cho_solve(factor, p - mu) for p in pts])
        _, grad, ok = make_target("mvn", mu=mu, cov=cov).logp_grad_many(pts)
        assert ok.all()
        return grad, expected

    def test_gradient_agrees_with_scipy_cho_solve(self):
        A = np.random.default_rng(6).standard_normal((50, 50))
        grad, expected = self.gradient_and_cho_solve(A @ A.T / 50.0 + 0.1 * np.eye(50), 6)
        np.testing.assert_allclose(grad, expected, rtol=1e-12)

    def test_gradient_error_is_within_cond_eps(self):
        # Forming the precision loses what a triangular solve loses: about
        # cond(cov) eps, relative to the solution.
        q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((50, 50)))
        cov = (q * np.geomspace(1e-4, 1e4, 50)) @ q.T
        cov = 0.5 * (cov + cov.T)
        grad, expected = self.gradient_and_cho_solve(cov, 7)
        bound = np.linalg.cond(cov) * np.finfo(float).eps * np.abs(expected).max()
        assert np.abs(grad - expected).max() <= bound

    def test_non_spd_rejected(self):
        with pytest.raises(BadParamsError):
            make_target("mvn", mu=[0.0, 0.0], cov=[[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(BadParamsError):
            make_target("mvn", mu=[0.0, 0.0], cov=[[1.0, 0.5], [0.1, 1.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(BadParamsError):
            make_target("mvn", mu=[0.0, 0.0, 0.0], cov=np.eye(2).tolist())


class TestLogisticRegression:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((20, 3))
        beta_true = rng.standard_normal(3)
        y = (rng.random(20) < 1 / (1 + np.exp(-X @ beta_true))).astype(float)
        t = make_target("logistic_regression", X=X.tolist(), y=y.tolist())
        for _ in range(10):
            beta = rng.normal(0, 1.5, 3)
            _, grad = t.logp_grad(beta)
            fd = fd_gradient(t, beta)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_underflowing_prior_scale_rejected(self):
        # 1e-200 is positive and finite, but its square is 0 and the prior
        # term would divide by it.
        with pytest.raises(BadParamsError, match="prior_scale .*underflows"):
            make_target("logistic_regression", prior_scale=1e-200)
        assert make_target("logistic_regression", prior_scale=1e-150).dim == 3

    def test_bad_labels_rejected(self):
        with pytest.raises(BadParamsError):
            make_target("logistic_regression", X=[[1.0], [2.0]], y=[0.0, 2.0])

    def test_partial_data_rejected(self):
        with pytest.raises(BadParamsError):
            make_target("logistic_regression", X=[[1.0], [2.0]])

    def test_dim_conflict_rejected(self):
        with pytest.raises(BadParamsError):
            make_target("logistic_regression", X=[[1.0, 0.0]], y=[1.0], dim=3)

    def test_synthesized_dataset_is_reproducible(self):
        a = make_target("logistic_regression", n=15, p=2, data_seed=4)
        b = make_target("logistic_regression", n=15, p=2, data_seed=4)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_synthesized_size_from_p_or_dim(self):
        assert make_target("logistic_regression", p=5).dim == 5
        assert make_target("logistic_regression", dim=4).dim == 4
        assert make_target("logistic_regression", p=5, dim=5).dim == 5

    def test_conflicting_p_and_dim_rejected(self):
        with pytest.raises(BadParamsError, match="dim=3 conflicts"):
            make_target("logistic_regression", p=5, dim=3)

    @pytest.mark.parametrize("size", [{"p": 0}, {"dim": 0}, {"n": 0}, {"p": -2}, {"p": 2.5}])
    def test_non_positive_or_fractional_size_rejected(self, size):
        with pytest.raises(BadParamsError, match=f"{next(iter(size))} must be an integer"):
            make_target("logistic_regression", **size)

    @staticmethod
    def oracle(X, y, prior_scale, beta):
        # y log sigma(t) + (1 - y) log sigma(-t) and X^T (y - sigma(t)),
        # through scipy's own stable log-sigmoid and sigmoid.
        t = X @ beta
        loglik = np.sum(np.where(y == 1.0, log_expit(t), log_expit(-t)))
        prior = -0.5 * (beta @ beta) / prior_scale**2 - beta.size * (
            math.log(prior_scale) + 0.5 * LOG_2PI)
        return loglik + prior, X.T @ (y - expit(t)) - beta / prior_scale**2

    def test_matches_scipy_log_expit_up_to_huge_margins(self):
        # Row scales from 1e-3 to 3e2 put the linear predictors t anywhere up
        # to |t| ~ 1e3, on both sides, for both labels.
        rng = np.random.default_rng(11)
        X = rng.standard_normal((60, 4)) * np.geomspace(1e-3, 3e2, 60)[:, None]
        y = np.tile([0.0, 1.0], 30)
        target = make_target("logistic_regression", X=X, y=y, prior_scale=2.0)
        betas = rng.normal(0.0, 1.5, (25, 4))
        assert np.abs(X @ betas.T).max() > 500.0
        expected = [self.oracle(X, y, 2.0, beta) for beta in betas]
        want_logp = np.array([lp for lp, _ in expected])
        want_grad = np.array([g for _, g in expected])

        def check(logp, grad):
            assert np.isfinite(logp).all() and np.isfinite(grad).all()
            assert np.all(np.abs(logp - want_logp) <= 1e-12 * np.abs(want_logp))
            for g, want in zip(grad, want_grad):
                assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()

        single = [target.logp_grad(beta) for beta in betas]
        check(np.array([lp for lp, _ in single]), np.array([g for _, g in single]))
        logp, grad, ok = target.logp_grad_many(betas)
        assert ok.all()
        check(logp, grad)
        logp_only = target.logp_many(betas)
        assert np.isfinite(logp_only).all()
        assert np.all(np.abs(logp_only - want_logp) <= 1e-12 * np.abs(want_logp))

    def test_a_point_is_a_batch_of_one(self):
        # For a vectorized _density and one that loops over its rows: each
        # per-point form equals its batched form on the batch of one, and a
        # refused point, by its input or by an overflowing output, ticks its
        # counters once.
        for target in (make_target("logistic_regression", n=200, p=6, data_seed=2),
                       PointNormal(6)):
            for beta in np.random.default_rng(4).normal(0.0, 2.0, (10, 6)):
                logp, grad = target.logp_grad(beta)
                many_logp, many_grad, ok = target.logp_grad_many(beta[None])
                assert ok[0] and logp == many_logp[0] and np.array_equal(grad, many_grad[0])
                assert target.logp(beta) == target.logp_many(beta[None])[0] == logp
            for refused in (np.full(6, np.nan), np.full(6, 1e200)):
                counts = np.array([target.eval_count_grad, target.eval_count_logp])
                with pytest.raises(NonFiniteError):
                    target.logp_grad(refused)
                np.testing.assert_array_equal(
                    [target.eval_count_grad, target.eval_count_logp], counts + 1)
                with pytest.raises(NonFiniteError):
                    target.logp(refused)
                np.testing.assert_array_equal(
                    [target.eval_count_grad, target.eval_count_logp], counts + [1, 2])


class TestLogisticWorkBuffers:
    """The logistic density's per-thread work buffers and contiguous design matrix."""

    @staticmethod
    def target(n=1000, p=50, seed=3):
        return make_target("logistic_regression", n=n, p=p, data_seed=seed)

    @staticmethod
    def evaluate(target, batches):
        return [(target.logp_grad_many(b), target.logp_many(b)) for b in batches]

    @staticmethod
    def assert_same_bits(got, want):
        for (fused, logp), (fused_w, logp_w) in zip(got, want, strict=True):
            for a, b in zip((*fused, logp), (*fused_w, logp_w)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_batches_match_a_logaddexp_oracle(self, monkeypatch):
        # Sizes below, at and just above one slab of SLAB_ROWS = 64 rows: 65
        # rows are one slab, as a one-row slab is never cut off, and 66 are
        # 64 + 2.  150 rows leave a short tail: 64 + 64 + 22.
        target = self.target()
        rows = LogisticRegression.SLAB_ROWS
        assert rows == 64
        Xs = (1.0 - 2.0 * target.y)[:, None] * target.X
        rng = np.random.default_rng(17)
        for m in (2, 63, 64, 65, 66, 150):
            betas = rng.normal(0.0, 0.3, (m, 50))
            u = betas @ Xs.T
            want_logp = (-np.logaddexp(0.0, u).sum(axis=1)
                         - 0.5 * np.sum(betas**2, axis=1) - 50 * 0.5 * LOG_2PI)
            want_grad = -np.exp(-np.logaddexp(0.0, -u)) @ Xs - betas
            logp, grad, ok = target.logp_grad_many(betas)
            assert ok.all()
            assert np.all(np.abs(logp - want_logp) <= 1e-12 * np.abs(want_logp))
            for g, want in zip(grad, want_grad):
                assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()
            assert target.logp_many(betas).tobytes() == logp.tobytes()
            # The gradients round as the slabs do: each slab's rows equal the
            # slab evaluated alone.
            starts = [*range(0, m - 1, rows), m]
            for lo, hi in zip(starts[:-1], starts[1:]):
                slab_logp, slab_grad, _ = target.logp_grad_many(betas[lo:hi])
                assert slab_logp.tobytes() == logp[lo:hi].tobytes()
                assert slab_grad.tobytes() == grad[lo:hi].tobytes()
            # The log densities have the bits of the batch run as one slab.
            with monkeypatch.context() as patch:
                patch.setattr(LogisticRegression, "SLAB_ROWS", m)
                assert self.target().logp_many(betas).tobytes() == logp.tobytes()

    def test_a_batch_of_one_keeps_its_bits(self):
        # A point equals its batch of one, and neither depends on the
        # batches the target evaluated before.
        fresh, used = self.target(), self.target()
        rng = np.random.default_rng(23)
        used.logp_grad_many(rng.normal(0.0, 0.3, (160, 50)))
        used.logp_many(rng.normal(0.0, 0.3, (160, 50)))
        for beta in rng.normal(0.0, 0.3, (5, 50)):
            logp, grad = used.logp_grad(beta)
            many_logp, many_grad, ok = used.logp_grad_many(beta[None])
            assert ok[0] and logp == many_logp[0] and np.array_equal(grad, many_grad[0])
            assert used.logp(beta) == logp
            fresh_logp, fresh_grad = fresh.logp_grad(beta)
            assert logp == fresh_logp and np.array_equal(grad, fresh_grad)

    def test_the_buffer_grows_only_to_the_largest_slab(self):
        # A lone point holds three (1, n) work arrays, not a full slab's, and
        # no batch grows the buffer past three (SLAB_ROWS + 1, n) arrays.
        target, n = self.target(), 1000
        rng = np.random.default_rng(41)
        target.logp_grad(rng.normal(0.0, 0.3, 50))
        assert target._scratch.buf.size == 3 * n
        target.logp_many(rng.normal(0.0, 0.3, (30, 50)))
        assert target._scratch.buf.size == 3 * 30 * n
        for m, slab in ((545, 64), (129, 65), (2, 65), (1, 65)):  # 129 rows: 64 + 65
            target.logp_grad_many(rng.normal(0.0, 0.3, (m, 50)))
            assert target._scratch.buf.size == 3 * slab * n

    def test_threads_get_the_serial_bits(self):
        # Threads sharing one target each write into their own buffers.
        # Batches stay small enough that BLAS runs each product on one
        # thread, whose rounding does not depend on what else runs.
        target = self.target(n=400, p=12)
        rng = np.random.default_rng(29)
        batches = [rng.normal(0.0, 0.5, (m, 12)) for m in (25, 9, 1, 40)]
        serial = [self.evaluate(target, [b]) for b in batches]
        errors = []

        def work(batch, want):
            try:
                for _ in range(150):
                    self.assert_same_bits(self.evaluate(target, [batch]), want)
            except AssertionError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work, args=pair) for pair in zip(batches, serial)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not errors, errors[0]

    @pytest.mark.parametrize("clone", [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copies_evaluate_alike_and_drop_buffers(self, clone):
        # The buffers stay out of the pickle: it is a fresh target's, given
        # the same counts, which are all the state that evaluating adds.
        target = self.target()
        rng = np.random.default_rng(31)
        batches = [rng.normal(0.0, 0.3, (m, 50)) for m in (160, 1, 2, 30)]
        want = self.evaluate(target, batches)
        twin = self.target()
        twin.add_counts(target.eval_count_grad, target.eval_count_logp)
        assert pickle.dumps(target) == pickle.dumps(twin)
        copied = clone(target)
        assert not vars(copied._scratch)
        self.assert_same_bits(self.evaluate(copied, batches), want)
        self.assert_same_bits(self.evaluate(target, batches[::-1]), want[::-1])

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults read on Linux")
    def test_repeated_batches_fault_no_pages_in(self):
        # A 160 x 1000 margin array is 1.3 MB; allocated per call, its pages
        # are faulted in again on every call (about 800 faults for logp_many
        # and 1,100 for logp_grad_many before the buffers).  A 545-row batch,
        # the size of a scoring block's draws, once had its 4.4 MB arrays
        # allocated per call; it now runs in slabs through the same buffer.
        import resource

        target = self.target()
        rng = np.random.default_rng(37)
        for evaluate, m in ((target.logp_many, 160), (target.logp_grad_many, 160),
                            (target.logp_many, 545)):
            batch = rng.normal(0.0, 0.3, (m, 50))
            evaluate(batch)
            faults = []
            for _ in range(5):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                evaluate(batch)
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            assert max(faults) < 50, (evaluate.__name__, m, faults)


class TestRegistry:
    def test_unknown_target(self):
        with pytest.raises(UnknownTargetError, match="nosuch"):
            make_target("nosuch")

    def test_unknown_params_rejected(self):
        with pytest.raises(BadParamsError):
            make_target("std_normal", dim=2, bogus=1)

    def test_all_names_constructible(self):
        for name in TARGET_NAMES:
            kwargs = {"dim": 4} if name in ("std_normal", "mvn", "neal_funnel") else {}
            assert make_target(name, **kwargs).dim >= 1

    # Parameters that size each target: ``dim`` itself where it is the size.
    SIZING = {
        "std_normal": {"dim": 4},
        "mvn": {"mu": [0.0, 1.0, 2.0]},
        "neal_funnel": {"dim": 4},
        "eight_schools_centered": {},
        "eight_schools_noncentered": {},
        "logistic_regression": {"X": [[1.0, 0.0]], "y": [1.0]},
    }

    @pytest.mark.parametrize("name", TARGET_NAMES)
    def test_dim_must_equal_the_built_targets(self, monkeypatch, name):
        params = {k: v for k, v in self.SIZING[name].items() if k != "dim"}
        built = make_target(name, **self.SIZING[name])
        assert make_target(name, **params, dim=built.dim).dim == built.dim
        if "dim" in self.SIZING[name]:
            # Where dim is the size, only a factory that ignores it can
            # conflict: make_target alone holds the rule.
            monkeypatch.setitem(targets._FACTORIES, name, lambda params, dim: built)
        with pytest.raises(BadParamsError, match=r"dim=\d+ conflicts"):
            make_target(name, **params, dim=built.dim + 1)

    @pytest.mark.parametrize("size", [2.5, True, None, np.float64(4.0)])
    @pytest.mark.parametrize("cls", [StdNormal, NealFunnel, PointNormal])
    def test_size_that_is_not_a_positive_integer_rejected(self, cls, size):
        with pytest.raises(BadParamsError, match="dim must be an integer"):
            cls(size)


class TestGradients:
    @pytest.mark.parametrize("target", all_targets(), ids=lambda t: t.name)
    def test_gradients_match_finite_differences(self, target):
        rng = np.random.default_rng(42)
        for point in random_points(target, 25, rng):
            _, grad = target.logp_grad(point)
            fd = fd_gradient(target, point)
            err = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
            assert err.max() < 1e-4, f"{target.name}: rel err {err.max():.2e} at {point}"

    @pytest.mark.parametrize("target", all_targets(), ids=lambda t: t.name)
    def test_batch_matches_scalar(self, target):
        rng = np.random.default_rng(3)
        pts = random_points(target, 30, rng)
        batch = target.logp_many(pts)
        single = np.array([target.logp(p) for p in pts])
        np.testing.assert_allclose(batch, single, atol=1e-11, rtol=1e-12)

    # Logistic regression is left out: its BLAS matrix product is not row-stable.
    @pytest.mark.parametrize(
        "target", [t for t in all_targets() if not t.name.startswith("logistic_regression")],
        ids=lambda t: t.name)
    def test_batch_rows_do_not_depend_on_the_split(self, target):
        # Candidates are scored in blocks of any size, and the lockstep
        # optimizer batches however many paths are active, so each row of a
        # batched evaluation must come out bitwise the same however it is split.
        pts = random_points(target, 500, np.random.default_rng(5))
        whole = target.logp_many(pts)
        logp, grad, ok = target.logp_grad_many(pts)
        for size in (1, 7, 64):
            parts = [target.logp_many(pts[i:i + size]) for i in range(0, len(pts), size)]
            np.testing.assert_array_equal(np.concatenate(parts), whole)
            fused = [target.logp_grad_many(pts[i:i + size]) for i in range(0, len(pts), size)]
            for got, want in zip(zip(*fused), (logp, grad, ok)):
                np.testing.assert_array_equal(np.concatenate(got), want)

    @pytest.mark.parametrize("target", all_targets(), ids=lambda t: t.name)
    def test_fused_batch_matches_logp_grad(self, target):
        # Bit for bit except for logistic regression, whose rows are BLAS
        # matrix products; lockstep paths equal run_single where this holds.
        exact = not target.name.startswith("logistic_regression")
        pts = random_points(target, 40, np.random.default_rng(8))
        logp, grad, ok = target.logp_grad_many(pts)
        assert ok.all()
        for point, lp, g in zip(pts, logp, grad):
            lp1, g1 = target.logp_grad(point)
            assert abs(lp - lp1) <= 1e-12 * abs(lp1)
            assert np.abs(g - g1).max() <= 1e-12 * np.abs(g1).max()
            if exact:
                assert lp == lp1 and np.array_equal(g, g1)

    @pytest.mark.parametrize("target", all_targets(), ids=lambda t: t.name)
    def test_logp_only_equals_the_fused_logp(self, target):
        # The line search decides on logp-only trials and keeps the fused
        # evaluation of the accepted point, so the two must agree bit for bit,
        # per point and per batch.
        pts = random_points(target, 500, np.random.default_rng(12))
        logp, _, ok = target.logp_grad_many(pts)
        assert ok.all()
        assert np.array_equal(target.logp_many(pts), logp)
        for point in pts[:50]:
            assert target.logp(point) == target.logp_grad(point)[0]

    @pytest.mark.parametrize("target", all_targets(), ids=lambda t: t.name)
    def test_results_do_not_alias_later_calls(self, target):
        # A density may keep scratch space across calls, but what it returns
        # is the caller's: later calls, larger and then smaller, leave it be.
        # The first call sizes any scratch space for the largest batch.
        pts = random_points(target, 60, np.random.default_rng(21))
        target.logp_grad_many(pts)
        kept = [target.logp_grad_many(pts[:5]), (target.logp_many(pts[5:10]),)]
        copies = [[a.copy() for a in result] for result in kept]
        for size in (60, 2):
            target.logp_grad_many(pts[-size:][::-1])
            target.logp_many(pts[-size:])
        for result, want in zip(kept, copies):
            for got, w in zip(result, want):
                np.testing.assert_array_equal(got, w)

    def test_row_dot_takes_the_single_point_dot(self):
        # The eight-schools densities keep the per-point `@` bits through it,
        # strided row slices included.
        pts = np.random.default_rng(5).normal(0.0, 10.0, (500, 10))
        a, b = pts[:, :8], pts[:, 1:9]
        expected = np.array([x.copy() @ y.copy() for x, y in zip(a, b)])
        assert np.array_equal(_row_dot(a, b), expected)
        assert np.array_equal(_row_dot(a[:1], b[:1]), expected[:1])


class TestCounterViewResults:
    """A view returns its base's batched results bit for bit, and so does a view
    over a view, while every level counts each row once."""

    @pytest.mark.parametrize("depth", [1, 2], ids=["view", "view_of_view"])
    def test_a_view_returns_its_base_results(self, depth):
        def logistic():
            return make_target("logistic_regression", n=200, p=6, data_seed=3)

        base, bare = logistic(), logistic()
        levels = [base]
        for _ in range(depth):
            levels.append(CounterView(levels[-1]))
        rng = np.random.default_rng(5)
        rows = 0
        for size in (1, 2, 160):
            clean = rng.normal(0.0, 2.0, (size, 6))
            # A NaN row and an overflowing one (its prior term is +inf).
            refused = np.vstack([clean, np.full(6, np.nan), np.full(6, 1e200)])
            refused[[0, -1]] = refused[[-1, 0]]
            for batch, bad in ((clean, []), (refused, [0, size])):
                want = bare.logp_grad_many(batch)
                got = levels[-1].logp_grad_many(batch)
                for w, g in zip(want, got):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
                assert np.flatnonzero(~got[2]).tolist() == bad
                assert levels[-1].logp_many(batch).tobytes() == bare.logp_many(batch).tobytes()
                rows += batch.shape[0]
        for target in levels:
            assert (target.eval_count_grad, target.eval_count_logp) == (rows, 2 * rows)


class TestCountersAndChecks:
    def test_counters_track_evaluations(self):
        t = make_target("std_normal", dim=2)
        x = np.zeros(2)
        for _ in range(5):
            t.logp_grad(x)
        assert t.eval_count_logp == 5 and t.eval_count_grad == 5
        t.logp(x)
        assert t.eval_count_logp == 6 and t.eval_count_grad == 5
        t.logp_many(np.zeros((7, 2)))
        assert t.eval_count_logp == 13 and t.eval_count_grad == 5

    def test_counter_view_tallies_and_forwards(self):
        t = make_target("std_normal", dim=2)
        view = CounterView(t)
        view.logp_grad(np.zeros(2))
        view.logp_many(np.zeros((3, 2)))
        assert (view.eval_count_logp, view.eval_count_grad) == (4, 1)
        assert (t.eval_count_logp, t.eval_count_grad) == (4, 1)

    def test_concurrent_counting_is_exact(self):
        # Exact under the global interpreter lock, as the targets module states.
        t = make_target("std_normal", dim=2)
        x = np.ones(2)

        def worker():
            for _ in range(200):
                t.logp_grad(x)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert t.eval_count_logp == 1600 and t.eval_count_grad == 1600

    def test_view_and_target_count_refused_points_alike(self):
        # A point refused for being non-finite counts once on both tallies,
        # per point and as a batch row; one of the wrong shape counts on neither.
        t = make_target("std_normal", dim=2)
        view = CounterView(t)
        with pytest.raises(NonFiniteError):
            view.logp_grad([np.inf, 0.0])
        assert view.eval_count_grad == t.eval_count_grad == 1
        with pytest.raises(NonFiniteError):
            view.logp([np.nan, 0.0])
        assert view.eval_count_logp == t.eval_count_logp == 2
        view.logp_grad_many([[np.inf, 0.0], [1.0, 2.0]])
        assert view.eval_count_grad == t.eval_count_grad == 3
        assert view.eval_count_logp == t.eval_count_logp == 4
        with pytest.raises(DimensionMismatchError):
            view.logp_grad(np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            view.logp_grad_many(np.zeros((2, 3)))
        assert view.eval_count_grad == t.eval_count_grad == 3

    def test_non_finite_rows_are_flagged_alone(self):
        # Row 1 has a non-finite input and row 3 overflows (the funnel's
        # exp(-tau) at tau = -800); only they are flagged, each counted once.
        t = make_target("neal_funnel", dim=2)
        pts = np.array([[0.5, 1.0], [np.nan, 0.0], [-1.0, 0.2], [-800.0, 1.0], [2.0, -3.0]])
        logp, grad, ok = t.logp_grad_many(pts)
        assert ok.tolist() == [True, False, True, False, True]
        assert t.eval_count_grad == t.eval_count_logp == 5
        for i in (0, 2, 4):
            lp1, g1 = t.logp_grad(pts[i])
            assert logp[i] == lp1
            np.testing.assert_array_equal(grad[i], g1)

    @pytest.mark.parametrize("target", all_targets(), ids=lambda t: t.name)
    def test_logp_many_refuses_non_finite_rows(self, target):
        # A non-finite input row comes back as -inf, counted once, like a
        # refused row of logp_grad_many; the other rows are unaffected.
        pts = random_points(target, 4, np.random.default_rng(2))
        bad = pts.copy()
        bad[1, 0] = np.inf
        bad[3, -1] = np.nan
        before = target.eval_count_logp
        vals = target.logp_many(bad)
        assert target.eval_count_logp - before == 4
        assert vals[1] == vals[3] == -np.inf
        assert vals[0] == target.logp(pts[0]) and vals[2] == target.logp(pts[2])

    def test_a_target_without_a_density_hook_is_refused(self):
        # _density is the one hook: a target without it has nothing to evaluate.
        class Hookless(LogDensityTarget):
            pass

        with pytest.raises(TypeError, match="Hookless.*_density"):
            Hookless(2)
        assert PointNormal(2).logp(np.ones(2)) == -1.0

    def test_dimension_mismatch(self):
        t = make_target("std_normal", dim=3)
        with pytest.raises(DimensionMismatchError):
            t.logp_grad(np.zeros(2))

    def test_non_finite_input(self):
        t = make_target("std_normal", dim=2)
        with pytest.raises(NonFiniteError):
            t.logp_grad(np.array([np.nan, 0.0]))
