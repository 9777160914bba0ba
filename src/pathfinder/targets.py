"""Differentiable log-density targets with evaluation counters.

Every target is an unnormalized (or normalized) log density on R^N exposing a
fused ``logp_grad`` evaluation, its batched form ``logp_grad_many``, and
log-density-only evaluations.  The package calls only the batched forms; a
single path is a batch of one.  Each built-in target writes its log density
once, for a batch, shared by the fused and the log-density-only evaluations,
which therefore agree bit for bit; a point is a batch of one.  Building a
target rejects a non-finite or non-numeric parameter, or a size that is not
a positive integer, with a BadParamsError naming it.
Instances are immutable apart from their evaluation counters, plain integers
that every evaluation adds to.  Calls from several threads count exactly only
under a global interpreter lock, which does not switch threads inside an
attribute's ``+=``; the package itself evaluates a target from one thread.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadParamsError, DimensionMismatchError, NonFiniteError, UnknownTargetError

LOG_2PI = float(np.log(2.0 * np.pi))


def _finite_array(target: str, name: str, value) -> np.ndarray:
    """``value`` as a float array; BadParamsError naming it unless it holds only finite numbers."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind in "biuf" and np.isfinite(arr).all():
            return arr.astype(float)
    except ValueError:  # ragged nesting
        pass
    raise BadParamsError(f"{target}: {name} must hold finite numbers")


def _count(target: str, name: str, value, least: int = 1) -> int:
    """``value`` as an int; BadParamsError naming it unless it is an integer >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise BadParamsError(f"{target}: {name} must be an integer >= {least}, got {value!r}")
    return int(value)


class LogDensityTarget:
    """Base class: a differentiable log density on R^N.

    Subclasses implement the fused density for a point (``_logp_grad_impl``)
    or for a batch (``_density``), each defaulting to the other.  A batched
    ``_density`` may skip the gradient (return None) when ``need_grad`` is
    false, but its log density must not depend on the flag: the line search
    decides on logp-only evaluations and keeps the fused one at the accepted
    point.
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

    @staticmethod
    def _finite_rows(points):
        """The batch with non-finite rows zeroed, and the mask of finite rows
        (True when every row is finite, the common case, which one reduction
        settles)."""
        finite_in = np.isfinite(points)
        if finite_in.all():
            return points, True
        finite_in = finite_in.all(axis=1)
        return np.where(finite_in[:, None], points, 0.0), finite_in

    def logp_grad(self, theta):
        """Return ``(log p(theta), grad log p(theta))``, counting one fused evaluation.

        Raises NonFiniteError if the input or either output is non-finite;
        the line search treats that as a rejected step.
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
        """Log density only, as a batch of one; increments only the log-density counter.

        Equals ``logp_grad(theta)[0]`` bit for bit.  Raises NonFiniteError if
        the input or the log density is non-finite.
        """
        theta = self._check_point(theta)
        self._n_logp_only += 1
        self._refuse_non_finite(theta)
        with np.errstate(all="ignore"):
            logp = float(self._density(theta[None], False)[0][0])
        if not math.isfinite(logp):
            raise NonFiniteError(f"{self.name}: non-finite log density")
        return logp

    def logp_many(self, points) -> np.ndarray:
        """Log density of each row of an (M, N) batch, counting M evaluations.

        A row whose input or log density is not finite comes back as -inf
        instead of raising, which is what pooled-draw scoring and lockstep
        line-search trials want.  Each row equals the fused log density of
        ``logp_grad_many`` on the same batch bit for bit.
        """
        points = self._check_batch(points)
        self._n_logp_only += points.shape[0]
        points, finite_in = self._finite_rows(points)
        with np.errstate(all="ignore"):
            vals = self._density(points, False)[0]
        finite = np.isfinite(vals)
        if finite_in is True and finite.all():
            return vals
        return np.where(finite_in & finite, vals, -np.inf)

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
        points, finite_in = self._finite_rows(points)
        with np.errstate(all="ignore"):
            logp, grad = self._density(points, True)
        ok = finite_in & np.isfinite(logp) & np.isfinite(grad).all(axis=1)
        return logp, grad, ok

    # -- implementation hooks ------------------------------------------------

    def _logp_grad_impl(self, theta):
        logp, grad = self._density(theta[None], True)
        return logp[0], grad[0]

    def _density(self, points, need_grad):
        """Log density of each row and, when ``need_grad``, its gradient (else None)."""
        logp = np.empty(points.shape[0])
        grad = np.empty_like(points)
        for i, row in enumerate(points):
            logp[i], grad[i] = self._logp_grad_impl(row)
        return logp, grad


class CounterView:
    """A private tally of the evaluations made through it over a shared target.

    Delegates all math to the base target (whose global counters keep
    ticking) while keeping a private count of the evaluations routed through
    this view; pooling counts its evaluations with one.  Optimizer paths
    read theirs from ``lbfgs.lockstep``.  It counts what the base counts,
    refused points included.
    """

    def __init__(self, base: LogDensityTarget):
        self._base = base
        self.n_grad = 0
        self.n_logp_only = 0

    @property
    def dim(self) -> int:
        return self._base.dim

    @property
    def name(self) -> str:
        return self._base.name

    @property
    def n_logp(self) -> int:
        return self.n_grad + self.n_logp_only

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
        self.n_logp_only += 1
        return self._base.logp(theta)

    def logp_many(self, points):
        points = self._base._check_batch(points)
        self.n_logp_only += points.shape[0]
        return self._base.logp_many(points)


# ---------------------------------------------------------------------------
# Built-in targets
# ---------------------------------------------------------------------------


def _row_dot(a, b):
    """Dot product of each row pair of two (M, K) arrays.

    Each row takes the BLAS dot that ``a[i] @ b[i]`` takes, so its bits do
    not depend on the batch it is in.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


class StdNormal(LogDensityTarget):
    """Standard normal N(0, I) in ``dim`` dimensions."""

    def __init__(self, dim: int):
        super().__init__(dim, f"std_normal({dim})")

    def _density(self, points, need_grad):
        logp = -0.5 * _row_dot(points, points) - 0.5 * self.dim * LOG_2PI
        return logp, -points if need_grad else None


class MultivariateNormal(LogDensityTarget):
    """N(mu, cov) with a dense SPD covariance.

    The precision solve is one LAPACK ``potrs`` on the lower Cholesky factor
    for the whole batch; each column of its right-hand side is solved on its
    own, so a row's bits do not depend on the batch.  scipy is imported when the
    target is built, so only this target loads it and its cost stays in set-up.
    """

    def __init__(self, mu, cov):
        from scipy.linalg import cho_factor
        from scipy.linalg.lapack import dpotrs
        mu = _finite_array("mvn", "mu", mu)
        cov = _finite_array("mvn", "cov", cov)
        if mu.ndim != 1:
            raise BadParamsError("mvn: mu must be a vector")
        if cov.shape != (mu.size, mu.size):
            raise BadParamsError(
                f"mvn: cov shape {cov.shape} does not match mu length {mu.size}"
            )
        if not np.allclose(cov, cov.T, atol=1e-12 * max(1.0, float(np.abs(cov).max()))):
            raise BadParamsError("mvn: cov must be symmetric")
        try:
            self._chol = cho_factor(cov, lower=True)[0]
        except np.linalg.LinAlgError as exc:
            raise BadParamsError("mvn: cov is not positive definite") from exc
        super().__init__(mu.size, f"mvn({mu.size})")
        self.mu = mu
        self.cov = cov
        self._dpotrs = dpotrs
        self._logdet = 2.0 * float(np.sum(np.log(np.diag(self._chol))))

    def _density(self, points, need_grad):
        diff = points - self.mu
        sol = self._dpotrs(self._chol, diff.T, lower=1)[0].T
        logp = -0.5 * (_row_dot(diff, sol) + self._logdet + self.dim * LOG_2PI)
        return logp, -sol if need_grad else None


class NealFunnel(LogDensityTarget):
    """Funnel-shaped hierarchical density.

    Coordinate 0 is the log-scale variable tau ~ normal(0, 3); the remaining
    ``dim - 1`` coordinates are beta_n ~ normal(0, exp(tau / 2)).
    """

    def __init__(self, dim: int):
        if dim < 2:
            raise BadParamsError("neal_funnel: dim must be at least 2")
        super().__init__(dim, f"neal_funnel({dim})")

    def _density(self, points, need_grad):
        tau = points[:, 0]
        beta = points[:, 1:]
        n_beta = self.dim - 1
        inv_var = np.exp(-tau)
        ss = _row_dot(beta, beta)
        logp = (
            -(tau * tau) / 18.0
            - np.log(3.0)
            - 0.5 * LOG_2PI
            - 0.5 * ss * inv_var
            - 0.5 * n_beta * tau
            - 0.5 * n_beta * LOG_2PI
        )
        if not need_grad:
            return logp, None
        grad = np.empty_like(points)
        grad[:, 0] = -tau / 9.0 + 0.5 * ss * inv_var - 0.5 * n_beta
        grad[:, 1:] = -beta * inv_var[:, None]
        return logp, grad


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


class _EightSchools(LogDensityTarget):
    """The eight-schools layout: eight school coordinates, mu, tau (log scale).

    Each parameterization writes its density once, for a batch with every
    row computed on its own; a single point is a batch of one.
    """

    tau_index = 9
    mu_index = 8

    def __init__(self, name: str):
        super().__init__(10, name)


class EightSchoolsCentered(_EightSchools):
    """Hierarchical meta-analysis posterior, centered parameterization.

    Coordinates: theta_1..theta_8 (school effects), mu, tau, where tau is the
    log of the between-school scale.  The half-cauchy(0, 5) prior on the scale
    enters with its log-transform Jacobian so the density lives on all of R^10.
    """

    def __init__(self):
        super().__init__("eight_schools_centered")

    def _density(self, points, need_grad):
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
        if not need_grad:
            return logp, None
        grad = np.empty_like(points)
        grad[:, :8] = resid_y - dev * inv_s2[:, None]
        grad[:, 8] = np.sum(dev, axis=1) * inv_s2 - mu / MU_PRIOR_SD**2
        grad[:, 9] = dev_ss * inv_s2 - 7.0 - 2.0 * s2_ratio / (1.0 + s2_ratio)
        return logp, grad


class EightSchoolsNonCentered(_EightSchools):
    """Eight-schools posterior, non-centered parameterization.

    Coordinates: eta_1..eta_8 (standardized effects), mu, tau (log scale);
    the school effects are mu + exp(tau) * eta.
    """

    def __init__(self):
        super().__init__("eight_schools_noncentered")

    def _density(self, points, need_grad):
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
        if not need_grad:
            return logp, None
        grad = np.empty_like(points)
        grad[:, :8] = s[:, None] * resid - eta
        grad[:, 8] = np.sum(resid, axis=1) - mu / MU_PRIOR_SD**2
        grad[:, 9] = s * _row_dot(eta, resid) + 1.0 - 2.0 * s2_ratio / (1.0 + s2_ratio)
        return logp, grad


class LogisticRegression(LogDensityTarget):
    """Bayesian logistic regression with independent normal(0, prior_scale) priors.

    With labels folded into ``Xs = (1 - 2y) X`` and margins ``u = Xs beta``,
    the log likelihood is ``-sum softplus(u)`` and its gradient
    ``-sigma(u) Xs``, both from one ``e = exp(-|u|)``: the stable softplus
    ``max(u, 0) + log1p(e)`` and ``sigma(u) = where(u >= 0, 1, e) / (1 + e)``.
    The rounding of the (M, n) margin product depends on the batch.
    """

    def __init__(self, X, y, prior_scale: float = 1.0):
        X = _finite_array("logistic_regression", "X", X)
        y = _finite_array("logistic_regression", "y", y)
        prior_scale = _finite_array("logistic_regression", "prior_scale", prior_scale)
        if X.ndim != 2 or y.shape != X.shape[:1]:
            raise BadParamsError(f"logistic_regression: X {X.shape} needs one row per y {y.shape}")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise BadParamsError("logistic_regression: y entries must be 0 or 1")
        if prior_scale.ndim != 0 or prior_scale <= 0:
            raise BadParamsError("logistic_regression: prior_scale must be a positive number")
        if prior_scale**2 == 0.0:
            raise BadParamsError(
                f"logistic_regression: prior_scale {float(prior_scale):g} is too small; "
                "its square underflows to 0")
        super().__init__(X.shape[1], f"logistic_regression({X.shape[0]}x{X.shape[1]})")
        self.X = X
        self.y = y
        self.prior_scale = float(prior_scale)
        self._Xs = (1.0 - 2.0 * y)[:, None] * X
        self._sc2 = self.prior_scale**2
        self._log_norm = self.dim * (np.log(self.prior_scale) + 0.5 * LOG_2PI)

    def _density(self, points, need_grad):
        U = points @ self._Xs.T
        e = np.abs(U)
        np.exp(np.negative(e, out=e), out=e)
        prior = 0.5 * np.einsum("ij,ij->i", points, points) / self._sc2 + self._log_norm
        # Only the gradient reads U and e again, so a log density alone
        # computes the softplus terms in their place.
        out_e, out_U = (None, None) if need_grad else (e, U)
        logp = (-np.log1p(e, out=out_e).sum(axis=1)
                - np.maximum(U, 0.0, out=out_U).sum(axis=1) - prior)
        if not need_grad:
            return logp, None
        sigma = np.where(U >= 0.0, 1.0, e)
        e += 1.0
        sigma /= e
        return logp, -(sigma @ self._Xs) - points / self._sc2


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


def _make_sized(cls, name):
    def make(params):
        dim = params.pop("dim", None)
        if dim is None:
            raise BadParamsError(f"{name}: 'dim' is required")
        return cls(dim)

    return make


def _make_mvn(params):
    dim = params.pop("dim", None)
    mu = params.pop("mu", None)
    cov = params.pop("cov", None)
    if mu is None and cov is None and dim is None:
        raise BadParamsError("mvn: provide 'mu'/'cov' or 'dim'")
    if mu is None:
        n = dim if dim is not None else len(np.atleast_1d(_finite_array("mvn", "cov", cov)))
        mu = np.zeros(n)
    mu = _finite_array("mvn", "mu", mu)
    if cov is None:
        cov = np.eye(mu.size)
    if dim is not None and dim != mu.size:
        raise BadParamsError(f"mvn: dim={dim} conflicts with mu of length {mu.size}")
    return MultivariateNormal(mu, cov)


def _make_eight_schools(cls):
    def make(params):
        dim = params.pop("dim", None)
        if dim is not None and dim != 10:
            raise BadParamsError("eight_schools targets are fixed at dim=10")
        return cls()

    return make


def _make_logistic_regression(params):
    X = params.pop("X", None)
    y = params.pop("y", None)
    prior_scale = params.pop("prior_scale", 1.0)
    dim = params.pop("dim", None)
    if (X is None) != (y is None):
        raise BadParamsError("logistic_regression: provide both X and y, or neither")
    if X is None:
        # synthesize a reproducible dataset when no data is supplied
        n = _count("logistic_regression", "n", params.pop("n", 20))
        p = _count("logistic_regression", "p", params.pop("p", dim or 3))
        data_seed = _count("logistic_regression", "data_seed", params.pop("data_seed", 0), least=0)
        rng = np.random.default_rng(np.random.SeedSequence(data_seed, spawn_key=(815,)))
        X = rng.standard_normal((n, p))
        beta_true = rng.standard_normal(p)
        probs = 1.0 / (1.0 + np.exp(-(X @ beta_true)))
        y = (rng.random(n) < probs).astype(float)
    target = LogisticRegression(X, y, prior_scale)
    if dim is not None and dim != target.dim:
        raise BadParamsError(f"logistic_regression: dim={dim} conflicts with p={target.dim}")
    return target


_FACTORIES = {
    "std_normal": _make_sized(StdNormal, "std_normal"),
    "mvn": _make_mvn,
    "neal_funnel": _make_sized(NealFunnel, "neal_funnel"),
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
    if params.get("dim") is not None:
        params["dim"] = _count(name, "dim", params["dim"])
    target = _FACTORIES[name](params)
    if params:
        raise BadParamsError(f"{name}: unknown parameters {sorted(params)}")
    return target
