"""Differentiable log-density targets with evaluation counters.

Every target is an unnormalized (or normalized) log density on R^N exposing a
fused ``logp_grad`` evaluation, its batched form ``logp_grad_many``, and
log-density-only evaluations.  Instances are immutable apart from their
evaluation counters, plain integers that every evaluation adds to.  Calls
from several threads count exactly only under a global interpreter lock,
which does not switch threads inside an attribute's ``+=``; the package
itself evaluates a target from one thread.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import BadParamsError, DimensionMismatchError, NonFiniteError, UnknownTargetError

LOG_2PI = float(np.log(2.0 * np.pi))


class LogDensityTarget:
    """Base class: a differentiable log density on R^N.

    Subclasses implement ``_logp_grad_impl`` (single point) and may override
    ``_logp_many_impl`` and ``_logp_grad_many_impl`` with vectorized versions.
    Counters tick once per point of the right shape handed in, whether or not
    it is refused for being non-finite: fused evaluations increment both
    counters, log-density-only evaluations only the log-density counter.  The
    two are kept as fused and log-density-only tallies, so each call makes one
    update.
    """

    def __init__(self, dim: int, name: str = ""):
        if dim < 1:
            raise BadParamsError(f"dim must be a positive integer, got {dim}")
        self.dim = int(dim)
        self.name = name or type(self).__name__
        self._shape = (self.dim,)
        self._n_fused = 0
        self._n_logp_only = 0

    # -- counters ----------------------------------------------------------

    @property
    def eval_count_logp(self) -> int:
        return self._n_fused + self._n_logp_only

    @property
    def eval_count_grad(self) -> int:
        return self._n_fused

    # -- evaluation --------------------------------------------------------

    def _check_point(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != self._shape:
            raise DimensionMismatchError(
                f"{self.name}: expected point of shape ({self.dim},), got {theta.shape}"
            )
        return theta

    def _check_batch(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"{self.name}: expected batch of shape (M, {self.dim}), got {points.shape}"
            )
        return points

    def _refuse_non_finite(self, theta) -> None:
        if not np.isfinite(theta).all():
            raise NonFiniteError(f"{self.name}: input point contains non-finite values")

    def logp_grad(self, theta):
        """Return ``(log p(theta), grad log p(theta))``, counting one fused evaluation.

        Raises NonFiniteError if the input or either output is non-finite;
        callers in the line search treat that as a rejected step.
        """
        theta = self._check_point(theta)
        self._n_fused += 1
        self._refuse_non_finite(theta)
        with np.errstate(all="ignore"):
            logp, grad = self._logp_grad_impl(theta)
        grad = np.asarray(grad, dtype=float)
        if not (math.isfinite(logp) and np.isfinite(grad).all()):
            raise NonFiniteError(f"{self.name}: non-finite log density or gradient")
        return float(logp), grad

    def logp(self, theta) -> float:
        """Log density only; increments only the log-density counter."""
        theta = self._check_point(theta)
        self._n_logp_only += 1
        self._refuse_non_finite(theta)
        with np.errstate(all="ignore"):
            logp, _ = self._logp_grad_impl(theta)
        if not np.isfinite(logp):
            raise NonFiniteError(f"{self.name}: non-finite log density")
        return float(logp)

    def logp_many(self, points) -> np.ndarray:
        """Vectorized log density for an (M, N) batch, counting M evaluations.

        Rows where the density is undefined or overflows come back as -inf
        instead of raising, which is what pooled-draw scoring wants.
        """
        points = self._check_batch(points)
        with np.errstate(all="ignore"):
            vals = self._logp_many_impl(points)
        self._n_logp_only += points.shape[0]
        vals = np.asarray(vals, dtype=float)
        return np.where(np.isfinite(vals), vals, -np.inf)

    def logp_grad_many(self, points):
        """Fused evaluation of an (M, N) batch, counting M fused evaluations.

        Returns ``(logp (M,), grad (M, N), ok (M,))``.  A row whose input or
        output is not finite is refused the way ``logp_grad`` refuses a point:
        it is flagged False in ``ok`` and its values are meaningless; the other
        rows are unaffected.  Most targets compute each row on its own, so a
        row's bits do not depend on the batch it is in.  Logistic regression
        does not: its rows are BLAS matrix products, whose rounding depends on
        the batch.
        """
        points = self._check_batch(points)
        self._n_fused += points.shape[0]
        finite_in = np.isfinite(points).all(axis=1)
        if not finite_in.all():
            points = np.where(finite_in[:, None], points, 0.0)
        with np.errstate(all="ignore"):
            logp, grad = self._logp_grad_many_impl(points)
        ok = finite_in & np.isfinite(logp) & np.isfinite(grad).all(axis=1)
        return logp, grad, ok

    # -- implementation hooks ------------------------------------------------

    def _logp_grad_impl(self, theta):
        raise NotImplementedError

    def _logp_many_impl(self, points):
        out = np.empty(points.shape[0])
        for i, row in enumerate(points):
            out[i] = self._logp_grad_impl(row)[0]
        return out

    def _logp_grad_many_impl(self, points):
        logp = np.empty(points.shape[0])
        grad = np.empty_like(points)
        for i, row in enumerate(points):
            logp[i], grad[i] = self._logp_grad_impl(row)
        return logp, grad


class CounterView:
    """Per-path tally over a shared target.

    Delegates all math to the base target (whose global counters keep
    ticking) while keeping a private count of the evaluations routed through
    this view.  Used to attribute costs to individual optimization paths.
    It counts what the base counts, refused points included.
    """

    def __init__(self, base: LogDensityTarget):
        self._base = base
        self.n_grad = 0
        self._n_logp_only = 0

    @property
    def dim(self) -> int:
        return self._base.dim

    @property
    def name(self) -> str:
        return self._base.name

    @property
    def n_logp(self) -> int:
        return self.n_grad + self._n_logp_only

    @property
    def eval_count_logp(self) -> int:
        return self.n_logp

    @property
    def eval_count_grad(self) -> int:
        return self.n_grad

    # Each method checks the shape first, so it counts exactly the points the
    # base counts: the right shape, refused for being non-finite or not.

    def logp_grad(self, theta):
        theta = self._base._check_point(theta)
        self.n_grad += 1
        return self._base.logp_grad(theta)

    def logp_grad_many(self, points):
        points = self._base._check_batch(points)
        self.n_grad += points.shape[0]
        return self._base.logp_grad_many(points)

    def logp(self, theta):
        theta = self._base._check_point(theta)
        self._n_logp_only += 1
        return self._base.logp(theta)

    def logp_many(self, points):
        points = self._base._check_batch(points)
        self._n_logp_only += points.shape[0]
        return self._base.logp_many(points)


# ---------------------------------------------------------------------------
# Built-in targets
# ---------------------------------------------------------------------------


class StdNormal(LogDensityTarget):
    """Standard normal N(0, I) in ``dim`` dimensions."""

    def __init__(self, dim: int):
        super().__init__(dim, f"std_normal({dim})")

    def _logp_grad_impl(self, theta):
        logp = -0.5 * (theta @ theta) - 0.5 * self.dim * LOG_2PI
        return logp, -theta

    def _logp_many_impl(self, points):
        return -0.5 * np.einsum("ij,ij->i", points, points) - 0.5 * self.dim * LOG_2PI


class MultivariateNormal(LogDensityTarget):
    """N(mu, cov) with a dense SPD covariance."""

    def __init__(self, mu, cov):
        mu = np.asarray(mu, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mu.ndim != 1:
            raise BadParamsError("mvn: mu must be a vector")
        if cov.shape != (mu.size, mu.size):
            raise BadParamsError(
                f"mvn: cov shape {cov.shape} does not match mu length {mu.size}"
            )
        if not np.allclose(cov, cov.T, atol=1e-12 * max(1.0, float(np.abs(cov).max()))):
            raise BadParamsError("mvn: cov must be symmetric")
        try:
            self._cho = cho_factor(cov, lower=True)
        except np.linalg.LinAlgError as exc:
            raise BadParamsError("mvn: cov is not positive definite") from exc
        super().__init__(mu.size, f"mvn({mu.size})")
        self.mu = mu
        self.cov = cov
        self._logdet = 2.0 * float(np.sum(np.log(np.diag(self._cho[0]))))

    def _logp_grad_impl(self, theta):
        diff = theta - self.mu
        sol = cho_solve(self._cho, diff)
        logp = -0.5 * (diff @ sol + self._logdet + self.dim * LOG_2PI)
        return logp, -sol

    def _logp_many_impl(self, points):
        diff = points - self.mu
        sol = cho_solve(self._cho, diff.T).T
        mahal = np.einsum("ij,ij->i", diff, sol)
        return -0.5 * (mahal + self._logdet + self.dim * LOG_2PI)


class NealFunnel(LogDensityTarget):
    """Funnel-shaped hierarchical density.

    Coordinate 0 is the log-scale variable tau ~ normal(0, 3); the remaining
    ``dim - 1`` coordinates are beta_n ~ normal(0, exp(tau / 2)).
    """

    def __init__(self, dim: int):
        if dim < 2:
            raise BadParamsError("neal_funnel: dim must be at least 2")
        super().__init__(dim, f"neal_funnel({dim})")

    def _logp_grad_impl(self, theta):
        tau = theta[0]
        beta = theta[1:]
        n_beta = self.dim - 1
        inv_var = np.exp(-tau)
        ss = beta @ beta
        logp = (
            -(tau * tau) / 18.0
            - np.log(3.0)
            - 0.5 * LOG_2PI
            - 0.5 * ss * inv_var
            - 0.5 * n_beta * tau
            - 0.5 * n_beta * LOG_2PI
        )
        grad = np.empty_like(theta)
        grad[0] = -tau / 9.0 + 0.5 * ss * inv_var - 0.5 * n_beta
        grad[1:] = -beta * inv_var
        return logp, grad

    def _logp_many_impl(self, points):
        tau = points[:, 0]
        beta = points[:, 1:]
        n_beta = self.dim - 1
        ss = np.einsum("ij,ij->i", beta, beta)
        return (
            -(tau * tau) / 18.0
            - np.log(3.0)
            - 0.5 * LOG_2PI
            - 0.5 * ss * np.exp(-tau)
            - 0.5 * n_beta * tau
            - 0.5 * n_beta * LOG_2PI
        )


# Classic eight-schools meta-analysis data: estimated treatment effects and
# their standard errors for eight schools.
EIGHT_SCHOOLS_Y = np.array([28.0, 8.0, -3.0, 7.0, -1.0, 1.0, 18.0, 12.0])
EIGHT_SCHOOLS_SIGMA = np.array([15.0, 10.0, 16.0, 11.0, 9.0, 11.0, 10.0, 18.0])

MU_PRIOR_SD = 5.0
TAU_PRIOR_SCALE = 5.0

_ES_INV_VAR = 1.0 / EIGHT_SCHOOLS_SIGMA**2
_ES_CONST = (
    -float(np.sum(np.log(EIGHT_SCHOOLS_SIGMA)))
    - 8.5 * LOG_2PI
    - float(np.log(MU_PRIOR_SD))
    + float(np.log(2.0) - np.log(np.pi * TAU_PRIOR_SCALE))
)


def _row_dot(a, b):
    """Dot product of each row pair of two (M, K) arrays.

    Each row takes the BLAS dot that ``a[i] @ b[i]`` takes, so its bits do
    not depend on the batch it is in.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


class _EightSchools(LogDensityTarget):
    """The eight-schools layout: eight school coordinates, mu, tau (log scale).

    Each parameterization writes its fused density once, for a batch with
    every row computed on its own; a single point is a batch of one.
    """

    tau_index = 9
    mu_index = 8

    def __init__(self, name: str):
        super().__init__(10, name)

    def _logp_grad_impl(self, theta):
        logp, grad = self._logp_grad_many_impl(theta[None])
        return logp[0], grad[0]


class EightSchoolsCentered(_EightSchools):
    """Hierarchical meta-analysis posterior, centered parameterization.

    Coordinates: theta_1..theta_8 (school effects), mu, tau, where tau is the
    log of the between-school scale.  The half-cauchy(0, 5) prior on the scale
    enters with its log-transform Jacobian so the density lives on all of R^10.
    """

    def __init__(self):
        super().__init__("eight_schools_centered")

    def _logp_grad_many_impl(self, points):
        effects = points[:, :8]
        mu = points[:, 8]
        tau = points[:, 9]
        inv_s2 = np.exp(-2.0 * tau)
        s2_ratio = np.exp(2.0 * tau) / TAU_PRIOR_SCALE**2

        resid_y = (EIGHT_SCHOOLS_Y - effects) * _ES_INV_VAR
        dev = effects - mu[:, None]
        dev_ss = _row_dot(dev, dev)
        logp = (
            -0.5 * _row_dot(EIGHT_SCHOOLS_Y - effects, resid_y)
            - 0.5 * dev_ss * inv_s2
            - 7.0 * tau
            - 0.5 * (mu / MU_PRIOR_SD) ** 2
            - np.log1p(s2_ratio)
            + _ES_CONST
        )
        grad = np.empty_like(points)
        grad[:, :8] = resid_y - dev * inv_s2[:, None]
        grad[:, 8] = np.sum(dev, axis=1) * inv_s2 - mu / MU_PRIOR_SD**2
        grad[:, 9] = dev_ss * inv_s2 - 7.0 - 2.0 * s2_ratio / (1.0 + s2_ratio)
        return logp, grad

    def _logp_many_impl(self, points):
        effects = points[:, :8]
        mu = points[:, 8:9]
        tau = points[:, 9]
        dev = effects - mu
        resid = EIGHT_SCHOOLS_Y - effects
        lik = -0.5 * np.einsum("ij,j->i", resid * resid, _ES_INV_VAR)
        prior_eff = -0.5 * np.einsum("ij,ij->i", dev, dev) * np.exp(-2.0 * tau) - 8.0 * tau
        prior_mu = -0.5 * (points[:, 8] / MU_PRIOR_SD) ** 2
        prior_tau = -np.log1p(np.exp(2.0 * tau) / TAU_PRIOR_SCALE**2) + tau
        return lik + prior_eff + prior_mu + prior_tau + _ES_CONST


class EightSchoolsNonCentered(_EightSchools):
    """Eight-schools posterior, non-centered parameterization.

    Coordinates: eta_1..eta_8 (standardized effects), mu, tau (log scale);
    the school effects are mu + exp(tau) * eta.
    """

    def __init__(self):
        super().__init__("eight_schools_noncentered")

    def _logp_grad_many_impl(self, points):
        eta = points[:, :8]
        mu = points[:, 8]
        tau = points[:, 9]
        s = np.exp(tau)
        s2_ratio = s * s / TAU_PRIOR_SCALE**2
        effects = mu[:, None] + s[:, None] * eta
        resid = (EIGHT_SCHOOLS_Y - effects) * _ES_INV_VAR

        logp = (
            -0.5 * _row_dot(EIGHT_SCHOOLS_Y - effects, resid)
            - 0.5 * _row_dot(eta, eta)
            - 0.5 * (mu / MU_PRIOR_SD) ** 2
            - np.log1p(s2_ratio)
            + tau
            + _ES_CONST
        )
        grad = np.empty_like(points)
        grad[:, :8] = s[:, None] * resid - eta
        grad[:, 8] = np.sum(resid, axis=1) - mu / MU_PRIOR_SD**2
        grad[:, 9] = s * _row_dot(eta, resid) + 1.0 - 2.0 * s2_ratio / (1.0 + s2_ratio)
        return logp, grad

    def _logp_many_impl(self, points):
        eta = points[:, :8]
        mu = points[:, 8:9]
        tau = points[:, 9]
        s = np.exp(tau)[:, None]
        effects = mu + s * eta
        resid = EIGHT_SCHOOLS_Y - effects
        lik = -0.5 * np.einsum("ij,j->i", resid * resid, _ES_INV_VAR)
        prior_eta = -0.5 * np.einsum("ij,ij->i", eta, eta)
        prior_mu = -0.5 * (points[:, 8] / MU_PRIOR_SD) ** 2
        prior_tau = -np.log1p(np.exp(2.0 * tau) / TAU_PRIOR_SCALE**2) + tau
        return lik + prior_eta + prior_mu + prior_tau + _ES_CONST


class LogisticRegression(LogDensityTarget):
    """Bayesian logistic regression with independent normal(0, prior_scale) priors."""

    def __init__(self, X, y, prior_scale: float = 1.0):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise BadParamsError("logistic_regression: X must be a 2-d matrix")
        if y.shape != (X.shape[0],):
            raise BadParamsError(
                f"logistic_regression: y length {y.shape} does not match X rows {X.shape[0]}"
            )
        if not np.all((y == 0.0) | (y == 1.0)):
            raise BadParamsError("logistic_regression: y entries must be 0 or 1")
        if prior_scale <= 0:
            raise BadParamsError("logistic_regression: prior_scale must be positive")
        super().__init__(X.shape[1], f"logistic_regression({X.shape[0]}x{X.shape[1]})")
        self.X = X
        self.y = y
        self.prior_scale = float(prior_scale)

    def _logp_grad_impl(self, beta):
        t = self.X @ beta
        # y*t - log(1 + exp(t)), stably
        loglik = float(np.sum(self.y * t - np.logaddexp(0.0, t)))
        p = 1.0 / (1.0 + np.exp(-t))
        sc2 = self.prior_scale**2
        logp = (
            loglik
            - 0.5 * (beta @ beta) / sc2
            - self.dim * (np.log(self.prior_scale) + 0.5 * LOG_2PI)
        )
        grad = self.X.T @ (self.y - p) - beta / sc2
        return logp, grad

    def _logp_grad_many_impl(self, points):
        # One (M, n) product gives every row's linear predictors; its BLAS
        # rounding depends on the batch (see logp_grad_many).
        T = points @ self.X.T
        loglik = T @ self.y - np.sum(np.logaddexp(0.0, T), axis=1)
        p = 1.0 / (1.0 + np.exp(-T))
        sc2 = self.prior_scale**2
        logp = (
            loglik
            - 0.5 * np.einsum("ij,ij->i", points, points) / sc2
            - self.dim * (np.log(self.prior_scale) + 0.5 * LOG_2PI)
        )
        grad = (self.y - p) @ self.X - points / sc2
        return logp, grad

    def _logp_many_impl(self, points):
        T = points @ self.X.T
        loglik = T @ self.y - np.sum(np.logaddexp(0.0, T), axis=1)
        sc2 = self.prior_scale**2
        return (
            loglik
            - 0.5 * np.einsum("ij,ij->i", points, points) / sc2
            - self.dim * (np.log(self.prior_scale) + 0.5 * LOG_2PI)
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

TARGET_NAMES = (
    "std_normal",
    "mvn",
    "neal_funnel",
    "eight_schools_centered",
    "eight_schools_noncentered",
    "logistic_regression",
)


def _make_std_normal(params):
    dim = params.pop("dim", None)
    if dim is None:
        raise BadParamsError("std_normal: 'dim' is required")
    return StdNormal(int(dim))


def _make_mvn(params):
    dim = params.pop("dim", None)
    mu = params.pop("mu", None)
    cov = params.pop("cov", None)
    if mu is None and cov is None and dim is None:
        raise BadParamsError("mvn: provide 'mu'/'cov' or 'dim'")
    if mu is None:
        n = int(dim) if dim is not None else np.asarray(cov).shape[0]
        mu = np.zeros(n)
    mu = np.asarray(mu, dtype=float)
    if cov is None:
        cov = np.eye(mu.size)
    if dim is not None and int(dim) != np.asarray(mu).size:
        raise BadParamsError(f"mvn: dim={dim} conflicts with mu of length {np.asarray(mu).size}")
    return MultivariateNormal(mu, cov)


def _make_neal_funnel(params):
    dim = params.pop("dim", None)
    if dim is None:
        raise BadParamsError("neal_funnel: 'dim' is required")
    return NealFunnel(int(dim))


def _make_eight_schools(cls):
    def make(params):
        dim = params.pop("dim", None)
        if dim is not None and int(dim) != 10:
            raise BadParamsError("eight_schools targets are fixed at dim=10")
        return cls()

    return make


def _make_logistic_regression(params):
    X = params.pop("X", None)
    y = params.pop("y", None)
    prior_scale = params.pop("prior_scale", 1.0)
    if (X is None) != (y is None):
        raise BadParamsError("logistic_regression: provide both X and y, or neither")
    if X is None:
        # synthesize a reproducible dataset when no data is supplied
        n = int(params.pop("n", 20))
        p = int(params.pop("p", params.pop("dim", 3) or 3))
        data_seed = int(params.pop("data_seed", 0))
        rng = np.random.default_rng(np.random.SeedSequence(data_seed, spawn_key=(815,)))
        X = rng.standard_normal((n, p))
        beta_true = rng.standard_normal(p)
        probs = 1.0 / (1.0 + np.exp(-(X @ beta_true)))
        y = (rng.random(n) < probs).astype(float)
    else:
        dim = params.pop("dim", None)
        if dim is not None and int(dim) != np.asarray(X).shape[1]:
            raise BadParamsError(
                f"logistic_regression: dim={dim} conflicts with X having "
                f"{np.asarray(X).shape[1]} columns"
            )
    return LogisticRegression(X, y, prior_scale)


_FACTORIES = {
    "std_normal": _make_std_normal,
    "mvn": _make_mvn,
    "neal_funnel": _make_neal_funnel,
    "eight_schools_centered": _make_eight_schools(EightSchoolsCentered),
    "eight_schools_noncentered": _make_eight_schools(EightSchoolsNonCentered),
    "logistic_regression": _make_logistic_regression,
}


def make_target(name: str, **params) -> LogDensityTarget:
    """Build a target from the registry by name.

    Raises UnknownTargetError for names outside the registry and
    BadParamsError for malformed parameters (non-SPD covariance, shape
    mismatches, missing required fields).  Leftover unknown parameter keys
    are rejected.
    """
    if name not in _FACTORIES:
        raise UnknownTargetError(
            f"unknown target '{name}'; available targets: {', '.join(TARGET_NAMES)}"
        )
    params = dict(params)
    target = _FACTORIES[name](params)
    if params:
        raise BadParamsError(f"{name}: unknown parameters {sorted(params)}")
    return target
