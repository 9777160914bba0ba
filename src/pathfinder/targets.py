"""Differentiable log-density targets with evaluation counters.

Every target is an unnormalized (or normalized) log density on R^N, written
as one batched hook, ``LogDensityTarget._density``, and exposing batched
fused (``logp_grad_many``) and log-density-only (``logp_many``)
evaluations, which flag a row as refused where its input or output is not
finite.  A point is a batch of one: ``logp_grad`` and ``logp`` are the
batched forms on one row and raise NonFiniteError where it is refused.  The
package calls only the batched forms.  Each built-in target writes its log
density once, for a batch, shared by both kinds of evaluation, which
therefore agree bit for bit.  Building a target rejects a non-finite or
non-numeric parameter, or a size that is not a positive integer, with a
BadParamsError naming it.  In the registry a ``dim`` is only a default size:
``make_target`` alone compares it with the built target's dimension.
Instances are immutable apart from their evaluation counters, plain integers
that every evaluation adds to, and the logistic target's per-thread work
buffers, which no result aliases.  Calls from several threads count exactly
only under a global interpreter lock, which does not switch threads inside an
attribute's ``+=``; the package itself evaluates a target from one thread.
"""

from __future__ import annotations

import abc
import math
import threading

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


class LogDensityTarget(abc.ABC):
    """Base class: a differentiable log density on R^N.

    A subclass implements one hook, ``_density(points, need_grad)``, the
    density of an (M, N) batch, M >= 0; one that does not is a TypeError at
    construction.  Every evaluation reaches it as a batch, each row whose
    input is not finite zeroed.  It may skip the gradient (return None) when
    ``need_grad`` is false, but its log density must not depend on the flag:
    the line search decides on logp-only evaluations and keeps the fused one
    at the accepted point.  It may keep scratch space across calls, one per
    thread, but no array it returns may be a view of it.  It must not write
    to ``points``, and no array it returns may be a view of them: a lone
    row can be a read-only view of a caller's point.  Both batched forms
    run through one routine, ``_evaluate``, which ``lbfgs.lockstep`` calls
    directly.
    Counters tick once per point of the right shape handed in, whether or not
    it is refused for being non-finite: fused evaluations increment both
    counters, log-density-only evaluations only the log-density counter.
    """

    def __init__(self, dim: int, name: str = ""):
        cls = type(self).__name__
        self.dim = _count(cls, "dim", dim)
        self.name = name or cls
        self._shape = (self.dim,)
        self.eval_count_grad = 0
        self.eval_count_logp = 0

    def add_counts(self, n_grad: int, n_logp: int) -> None:
        """Count evaluations made elsewhere, as ``eval_count_grad`` and ``eval_count_logp``."""
        self.eval_count_grad += n_grad
        self.eval_count_logp += n_logp

    # -- evaluation --------------------------------------------------------

    def _check_point(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != self._shape:
            raise DimensionMismatchError(
                f"{self.name}: expected point of shape ({self.dim},), got {theta.shape}"
            )
        return theta

    def logp_grad(self, theta):
        """Return ``(log p(theta), grad log p(theta))``, counting one fused evaluation.

        This is ``logp_grad_many`` on the batch of one, bit for bit, raising
        NonFiniteError where that row is refused.
        """
        logp, grad, ok = self.logp_grad_many(self._check_point(theta)[None])
        if not ok[0]:
            raise NonFiniteError(f"{self.name}: non-finite input, log density or gradient")
        return float(logp[0]), grad[0]

    def logp(self, theta) -> float:
        """Log density only, as a batch of one; increments only the log-density counter.

        Equals ``logp_many`` on the batch of one and ``logp_grad(theta)[0]``
        bit for bit, raising NonFiniteError where the row is refused (-inf).
        """
        logp = float(self.logp_many(self._check_point(theta)[None])[0])
        if logp == -math.inf:
            raise NonFiniteError(f"{self.name}: non-finite input or log density")
        return logp

    def logp_many(self, points) -> np.ndarray:
        """Log density of each row of an (M, N) batch, counting M evaluations.

        A row whose input or log density is not finite is refused: it comes
        back as -inf.  Each row equals the fused log density of
        ``logp_grad_many`` on the same batch bit for bit.
        """
        points = np.asarray(points, dtype=float)
        with np.errstate(all="ignore"):
            return self._evaluate(points, False)

    def logp_grad_many(self, points):
        """Fused evaluation of an (M, N) batch, counting M fused evaluations.

        Returns ``(logp (M,), grad (M, N), ok (M,))``.  A row whose input or
        output is not finite is refused: it is flagged False in ``ok`` and its
        values are meaningless; the other rows are unaffected.  Most targets
        compute each row on its own, so a row's bits do not depend on the
        batch it is in.  Logistic regression does not: its rows are BLAS
        matrix products, whose rounding depends on the batch.
        """
        points = np.asarray(points, dtype=float)
        with np.errstate(all="ignore"):
            return self._evaluate(points, True)

    def _evaluate(self, points, need_grad):
        """``logp_grad_many`` (``need_grad``) or ``logp_many`` of a float (M, N) array,
        under the caller's floating-point error state.

        The wrappers ignore every floating-point error around it, and so does
        ``lbfgs.lockstep``, which calls it directly.  A batch whose rows are
        all finite, the common case, costs one reduction beyond ``_density``.
        """
        if points.shape[1:] != self._shape:
            raise DimensionMismatchError(
                f"{self.name}: expected batch of shape (M, {self.dim}), got {points.shape}"
            )
        self.eval_count_logp += len(points)
        if need_grad:
            self.eval_count_grad += len(points)
        finite_in = np.isfinite(points)
        if finite_in.all():
            finite_in = True
        else:
            finite_in = finite_in.all(axis=1)
            points = np.where(finite_in[:, None], points, 0.0)
        logp, grad = self._density(points, need_grad)
        if need_grad:
            return logp, grad, finite_in & np.isfinite(logp) & np.isfinite(grad).all(axis=1)
        finite = np.isfinite(logp)
        if finite_in is True and finite.all():
            return logp
        return np.where(finite_in & finite, logp, -np.inf)

    @abc.abstractmethod
    def _density(self, points, need_grad):
        """Log density of each row and, when ``need_grad``, its gradient (else None)."""


class CounterView(LogDensityTarget):
    """A target that keeps its own tally of the evaluations made through it.

    Each batch goes on to the base target, whose own counters keep ticking,
    so view and base count the same points, refused ones included.  Counts
    added to the view are passed on to its base.  The package itself uses
    none: optimizer paths read their counts from ``lbfgs.lockstep``, and
    pooling counts its rows.  It is kept for callers that share a target.
    """

    def __init__(self, base: LogDensityTarget):
        super().__init__(base.dim, base.name)
        self._base = base

    def add_counts(self, n_grad: int, n_logp: int) -> None:
        super().add_counts(n_grad, n_logp)
        self._base.add_counts(n_grad, n_logp)

    def _density(self, points, need_grad):
        if need_grad:
            return self._base.logp_grad_many(points)[:2]
        return self._base.logp_many(points), None


# ---------------------------------------------------------------------------
# Built-in targets
# ---------------------------------------------------------------------------


def _row_dot(a, b):
    """Dot product of each row pair of two (..., K) stacks of vectors.

    Each row takes the BLAS dot that ``a[i] @ b[i]`` takes, so its bits do
    not depend on the batch it is in.
    """
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


class StdNormal(LogDensityTarget):
    """Standard normal N(0, I) in ``dim`` dimensions."""

    def __init__(self, dim: int):
        super().__init__(dim, f"std_normal({dim})")

    def _density(self, points, need_grad):
        logp = -0.5 * _row_dot(points, points) - 0.5 * self.dim * LOG_2PI
        return logp, -points if need_grad else None


class MultivariateNormal(LogDensityTarget):
    """N(mu, cov) with a dense SPD covariance, evaluated through its precision.

    The Cholesky factor L of cov checks that it is SPD and gives the log
    determinant; the precision L^-T L^-1 is formed once.  Each row of a batch
    takes its own BLAS product with it, so a row's bits do not depend on the
    batch, and its forward error is about cond(cov) eps, as for a solve.
    """

    def __init__(self, mu, cov):
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
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise BadParamsError("mvn: cov is not positive definite") from exc
        super().__init__(mu.size, f"mvn({mu.size})")
        self.mu = mu
        self.cov = cov
        inv_chol = np.linalg.inv(chol)
        prec = inv_chol.T @ inv_chol
        self._prec = 0.5 * (prec + prec.T)
        self._logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))

    def _density(self, points, need_grad):
        diff = points - self.mu
        sol = np.matmul(diff[:, None, :], self._prec)[:, 0]
        logp = -0.5 * (_row_dot(diff, sol) + self._logdet + self.dim * LOG_2PI)
        return logp, -sol if need_grad else None


class NealFunnel(LogDensityTarget):
    """Funnel-shaped hierarchical density.

    Coordinate 0 is the log-scale variable tau ~ normal(0, 3); the remaining
    ``dim - 1`` coordinates are beta_n ~ normal(0, exp(tau / 2)).
    """

    def __init__(self, dim: int):
        super().__init__(dim, f"neal_funnel({dim})")
        if self.dim < 2:
            raise BadParamsError("neal_funnel: dim must be at least 2")

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


class EightSchoolsCentered(LogDensityTarget):
    """Hierarchical meta-analysis posterior, centered parameterization.

    Coordinates: theta_1..theta_8 (school effects), mu, tau, where tau is the
    log of the between-school scale.  The half-cauchy(0, 5) prior on the scale
    enters with its log-transform Jacobian so the density lives on all of R^10.
    """

    def __init__(self):
        super().__init__(10, "eight_schools_centered")

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


class EightSchoolsNonCentered(LogDensityTarget):
    """Eight-schools posterior, non-centered parameterization.

    Coordinates: eta_1..eta_8 (standardized effects), mu, tau (log scale);
    the school effects are mu + exp(tau) * eta.
    """

    def __init__(self):
        super().__init__(10, "eight_schools_noncentered")

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
    The rounding of the gradient's (M, n) product depends on the batch.

    A batch runs in slabs of SLAB_ROWS rows, the last of which takes up to
    SLAB_ROWS + 1 rows so that no slab of a larger batch is a single row.  A
    slab's three (rows, n) arrays (margins, ``e`` and one temporary) live in
    a work buffer that each thread keeps across calls and grows to the
    largest slab it has seen, so no batch allocates arrays of its own size:
    any batch takes at most 3 (SLAB_ROWS + 1) n floats of work memory
    (1.6 MB at n = 1000), and a one-row batch 3 n.
    Allocated per call, arrays this large are mapped from the OS and
    returned to it each time, and their pages are faulted in again on every
    call.  No result is a view of the buffer, and a pickled or copied target
    drops it.  The log densities of a batch have had the bits of the batch
    run as one slab in every case tried, and a batch of at most SLAB_ROWS + 1
    rows is one slab; the gradients of a larger batch round as its slabs do.
    A slab of two or more rows takes its margins from a C-contiguous copy of
    ``Xs.T``, made once, which BLAS reads faster than the transposed view,
    with the same rounding.  A batch of one keeps the view: numpy sends a
    one-row product through GEMV, whose rounding does change with the
    layout.
    """

    SLAB_ROWS = 64

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
        self._XsT = np.ascontiguousarray(self._Xs.T)
        self._sc2 = self.prior_scale**2
        self._log_norm = self.dim * (np.log(self.prior_scale) + 0.5 * LOG_2PI)
        self._scratch = threading.local()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_scratch"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._scratch = threading.local()

    def _density(self, points, need_grad):
        m = points.shape[0]
        starts = range(0, max(m - 1, 1), self.SLAB_ROWS)
        if len(starts) == 1:
            return self._slab(points, need_grad)
        logp, grad = np.empty(m), np.empty_like(points) if need_grad else None
        for lo, hi in zip(starts, [*starts[1:], m]):
            logp[lo:hi], slab_grad = self._slab(points[lo:hi], need_grad)
            if need_grad:
                grad[lo:hi] = slab_grad
        return logp, grad

    def _slab(self, points, need_grad):
        """``_density`` of at most SLAB_ROWS + 1 rows, in this thread's work buffer."""
        m, n = points.shape[0], self._Xs.shape[0]
        buf = getattr(self._scratch, "buf", None)
        if buf is None or buf.size < 3 * m * n:
            buf = self._scratch.buf = np.empty(3 * m * n)
        U, e, tmp = buf[:3 * m * n].reshape(3, m, n)
        np.matmul(points, self._XsT if m > 1 else self._Xs.T, out=U)
        np.abs(U, out=e)
        np.exp(np.negative(e, out=e), out=e)
        prior = 0.5 * np.einsum("ij,ij->i", points, points) / self._sc2 + self._log_norm
        # Only the gradient reads U and e again, so a log density alone
        # computes the softplus terms in their place.
        out_e, out_U = (tmp, tmp) if need_grad else (e, U)
        logp = (-np.log1p(e, out=out_e).sum(axis=1)
                - np.maximum(U, 0.0, out=out_U).sum(axis=1) - prior)
        if not need_grad:
            return logp, None
        # sigma's numerator where(U >= 0, 1, e) as max(U >= 0, e): e <= 1
        # where U >= 0, e >= 0 elsewhere, and a NaN margin stays NaN.
        sigma = np.maximum(np.greater_equal(U, 0.0, out=U), e, out=U)
        e += 1.0
        sigma /= e
        return logp, -(sigma @ self._Xs) - points / self._sc2


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _make_mvn(params, dim):
    mu = params.pop("mu", None)
    cov = params.pop("cov", None)
    if mu is None:
        if cov is None and dim is None:
            raise BadParamsError("mvn: provide 'mu'/'cov' or 'dim'")
        mu = np.zeros(dim if cov is None else len(np.atleast_1d(_finite_array("mvn", "cov", cov))))
    mu = _finite_array("mvn", "mu", mu)
    return MultivariateNormal(mu, np.eye(mu.size) if cov is None else cov)


def _make_logistic_regression(params, dim):
    X = params.pop("X", None)
    y = params.pop("y", None)
    prior_scale = params.pop("prior_scale", 1.0)
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
    return LogisticRegression(X, y, prior_scale)


# Each factory builds its target from the parameters it pops and a checked
# ``dim`` (or None), which it uses only as a default size.
_FACTORIES = {
    "std_normal": lambda params, dim: StdNormal(dim),
    "mvn": _make_mvn,
    "neal_funnel": lambda params, dim: NealFunnel(dim),
    "eight_schools_centered": lambda params, dim: EightSchoolsCentered(),
    "eight_schools_noncentered": lambda params, dim: EightSchoolsNonCentered(),
    "logistic_regression": _make_logistic_regression,
}
TARGET_NAMES = tuple(_FACTORIES)


def make_target(name: str, **params) -> LogDensityTarget:
    """Build a target from the registry by name.

    Raises UnknownTargetError for names outside the registry and
    BadParamsError for malformed parameters (non-SPD covariance, shape
    mismatches, missing required fields).  Leftover unknown parameter keys
    are rejected, and so is a ``dim`` that differs from the built target's
    (``dim=N conflicts``).
    """
    if name not in _FACTORIES:
        raise UnknownTargetError(
            f"unknown target '{name}'; available targets: {', '.join(TARGET_NAMES)}"
        )
    params = dict(params)
    dim = params.pop("dim", None)
    if dim is not None:
        dim = _count(name, "dim", dim)
    target = _FACTORIES[name](params, dim)
    if params:
        raise BadParamsError(f"{name}: unknown parameters {sorted(params)}")
    if dim is not None and dim != target.dim:
        raise BadParamsError(
            f"{name}: dim={dim} conflicts with the target's dimension {target.dim}")
    return target
