"""Limited-memory BFGS ascent on a log density, recording the full trajectory.

The optimizer maximizes log p directly.  Search directions apply the
low-rank-plus-diagonal inverse Hessian estimate, whose compact form lives in
``inv_hessian`` alone, without ever materializing an N x N matrix.  The line
search tries steps 1, 1/2, ..., 2^-MAX_HALVINGS for the sufficient-increase
(Armijo) condition; no curvature condition is enforced.  Each search starts
at twice the path's last accepted step (at most 1), doubles while the test
passes and halves while it fails (Nocedal & Wright, section 3.5, "initial
step length"), so it accepts the largest passing step wherever the passing
steps form an interval, as they do on a log-concave target.  The test reads
only the log density, so each trial is a log-density-only evaluation, and
the one point the search accepts gets one fused evaluation, whose log
density and gradient enter the trajectory: one gradient per accepted step,
plus one at the initial point.

Both are written once, as steppers: generators that yield the points they
need evaluated, each with whether it needs a gradient, and take each result
back.  ``optimize`` and ``wolfe_line_search`` run a stepper one target call
at a time; ``multipath`` runs one stepper per path and evaluates their
points together.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import LineSearchFailError, NonFiniteError
from .inv_hessian import factors_from_pairs, low_rank_product
from .options import POSITIVE, POSITIVE_INT, UNIT, check_settings, setting

# The line search's steps are 2^-k for k = 0..MAX_HALVINGS; it gives up
# below the smallest.
MAX_HALVINGS = 60
MIN_STEP = 2.0**-MAX_HALVINGS


@dataclass(frozen=True)
class LbfgsOptions:
    """Tuning settings for the optimizer.

    ``pair_eps`` gates history updates: a pair (s, z) is stored only when
    s'z > pair_eps * ||z||^2, the curvature condition that keeps the inverse
    Hessian estimate positive definite.
    """

    history_size: int = setting(6, POSITIVE_INT, "quasi-Newton history size")
    rel_tol: float = setting(1e-13, POSITIVE, "optimizer relative tolerance")
    max_iters: int = setting(1000, POSITIVE_INT, "optimizer iteration cap")
    c1: float = setting(1e-4, UNIT, "sufficient-increase bound", key="wolfe_c1")
    pair_eps: float = setting(2.2e-16, POSITIVE, "curvature threshold for storing update pairs")
    grad_zero_tol: float = setting(1e-12, POSITIVE, "gradient norm treated as zero")

    def __post_init__(self):
        check_settings(self)


class Termination(Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    LINE_SEARCH_FAIL = "line_search_fail"
    ZERO_GRADIENT_AT_INIT = "zero_gradient_at_init"


@dataclass
class Trajectory:
    """Optimization path theta^(0:L') with gradients and log densities.

    ``logps`` is strictly increasing; all three arrays have L'+1 rows.
    """

    thetas: np.ndarray
    grads: np.ndarray
    logps: np.ndarray
    termination: Termination

    @property
    def num_iters(self) -> int:
        """Number of accepted steps L'."""
        return len(self.logps) - 1


class LineSearchResult(NamedTuple):
    step: float
    theta: np.ndarray
    logp: float
    grad: np.ndarray


def search_direction(S, Z, alpha, grad) -> np.ndarray:
    """Ascent direction Sigma grad, Sigma = diag(alpha) + beta gamma beta' from ``inv_hessian``.

    S and Z are N x J' matrices of stored position/gradient updates (None
    for none); alpha is the positive diagonal seed.  Cost is O(N J'^2 + J'^3).
    Raises SingularEError when the pairs give no valid E.
    """
    factors = factors_from_pairs(S, Z, alpha)
    grad = np.asarray(grad, dtype=float)
    return factors.alpha * grad + low_rank_product(factors, grad)


def drive(steps, target):
    """Run a stepper to its end, one target call per point it yields.

    A stepper is a generator that yields ``(point, need_grad)``.  It is sent
    back ``target.logp_grad(point)`` when ``need_grad`` is true and
    ``target.logp(point)`` otherwise, or None when the point was refused
    (NonFiniteError); its return value is the result.
    """
    point, need_grad = next(steps)
    while True:
        try:
            result = target.logp_grad(point) if need_grad else target.logp(point)
        except NonFiniteError:
            result = None
        try:
            point, need_grad = steps.send(result)
        except StopIteration as stop:
            return stop.value


def line_search_steps(theta, logp, grad, delta, c1, step=1.0):
    """Stepper of ``wolfe_line_search``, started at ``step`` (a power of 2 <= 1).

    Yields each trial point for its log density alone, then the accepted one
    for its gradient.  A passing first trial below 1 doubles while the test
    passes and the step stays <= 1, and the largest passing step is
    accepted; a failing trial halves.  A refused gradient rejects the
    accepted step, and halving goes on below it without growing again.
    """
    slope = float(grad @ delta)
    grow = step < 1.0
    passed = None  # (step, point) of the largest trial known to pass
    while step >= MIN_STEP:
        candidate = theta + step * delta
        trial_logp = yield candidate, False
        # Python floats: an overflow or nan in the bound fails the check quietly.
        if trial_logp is not None and trial_logp >= logp + c1 * step * slope:
            passed = step, candidate
            if grow and step < 1.0:
                step *= 2.0
                continue
        grow = False
        if passed is not None:
            step, candidate = passed
            passed = None
            result = yield candidate, True
            # A refused gradient rejects the trial: the step is halved as if
            # the log density had been refused.
            if result is not None:
                return LineSearchResult(step, candidate, *result)
        step *= 0.5
    raise LineSearchFailError(f"no step >= 2^-{MAX_HALVINGS} gives sufficient increase")


def wolfe_line_search(target, theta, logp, grad, delta, c1) -> LineSearchResult:
    """Backtrack over steps 1, 1/2, 1/4, ... to the first with sufficient increase.

    This is ``line_search_steps`` started at step 1, driven one target call
    at a time.  Requires grad'delta > 0 (ascent direction).  Only the
    sufficient-increase (Armijo) condition
    logp(theta + step delta) >= logp + c1 step grad'delta is enforced; the
    curvature condition is not.  Each trial is evaluated for its log density
    only (``target.logp``); the first that passes is then evaluated once
    more with its gradient (``target.logp_grad``), and that fused result is
    returned.  An evaluation of either kind that raises NonFiniteError counts
    as a failed check and the step is halved.  A step that leaves the
    curvature unmet simply produces an update pair that fails the curvature
    gate downstream, leaving the inverse Hessian estimate intact.
    LineSearchFailError is raised when no step >= 2^-MAX_HALVINGS yields a
    sufficient increase.
    """
    return drive(line_search_steps(theta, float(logp), grad, delta, c1), target)


# Denominator floor for the relative-improvement convergence test, guarding
# against log densities near zero.
REL_TOL_FLOOR = 1e-10


def optimize(target, theta_init, opts: LbfgsOptions) -> Trajectory:
    """Run L-BFGS ascent from theta_init and return the full trajectory.

    Each line search starts at min(1, 2 t) for the previous accepted step t
    (at 1 for the first), so on a log-concave target every search accepts
    the same step as one started at 1.  Line-search trials are
    log-density-only evaluations; the initial point and each accepted step
    get one fused evaluation, so the gradient count is ``num_iters + 1`` plus
    any fused evaluation that was refused or gave no increase.  The stored
    pair history is windowed to ``opts.history_size``; after each accepted
    pair the diagonal seed resets to the scalar ||z||^2 / (s'z).
    Terminates on relative log-density improvement below ``rel_tol``, at
    ``max_iters``, on line-search failure, or immediately when the initial
    gradient norm is below ``grad_zero_tol``.  Raises NonFiniteError when the
    initial point has a non-finite log density or gradient.
    """
    return drive(optimize_steps(theta_init, opts), target)


def optimize_steps(theta_init, opts: LbfgsOptions):
    """Stepper of ``optimize``: yields theta_init, then each line search's points."""
    theta = np.asarray(theta_init, dtype=float)
    result = yield theta, True
    if result is None:
        raise NonFiniteError("non-finite log density or gradient at the initial point")
    logp, grad = result

    thetas = [theta]
    grads = [grad]
    logps = [logp]

    if np.linalg.norm(grad) < opts.grad_zero_tol:
        return Trajectory(
            np.asarray(thetas), np.asarray(grads), np.asarray(logps),
            Termination.ZERO_GRADIENT_AT_INIT,
        )

    s_hist: deque = deque(maxlen=opts.history_size)
    z_hist: deque = deque(maxlen=opts.history_size)
    alpha = np.ones(theta.size)
    step = 1.0  # the last accepted step
    termination = Termination.MAX_ITER

    for _ in range(opts.max_iters):
        if np.linalg.norm(grads[-1]) < opts.grad_zero_tol:
            termination = Termination.CONVERGED
            break
        S, Z = (np.stack(s_hist, axis=1), np.stack(z_hist, axis=1)) if s_hist else (None, None)
        delta = search_direction(S, Z, alpha, grads[-1])
        with np.errstate(over="ignore", invalid="ignore"):
            ascent = np.all(np.isfinite(delta)) and grads[-1] @ delta > 0.0
        if not ascent:
            termination = Termination.LINE_SEARCH_FAIL
            break
        try:
            ls = yield from line_search_steps(
                thetas[-1], logps[-1], grads[-1], delta, opts.c1, min(1.0, 2.0 * step))
        except LineSearchFailError:
            termination = Termination.LINE_SEARCH_FAIL
            break

        if ls.logp <= logps[-1]:
            # No representable increase left; keep the path strictly increasing.
            termination = Termination.CONVERGED
            break

        step = ls.step
        prev_theta, prev_grad, prev_logp = thetas[-1], grads[-1], logps[-1]
        thetas.append(ls.theta)
        grads.append(ls.grad)
        logps.append(ls.logp)

        if (ls.logp - prev_logp) / max(abs(prev_logp), REL_TOL_FLOOR) < opts.rel_tol:
            termination = Termination.CONVERGED
            break

        s_new = ls.theta - prev_theta
        z_new = prev_grad - ls.grad
        with np.errstate(over="ignore", invalid="ignore"):
            curvature_ok = s_new @ z_new > opts.pair_eps * (z_new @ z_new)
        if curvature_ok:
            s_hist.append(s_new)
            z_hist.append(z_new)
            alpha = ((z_new @ z_new) / (s_new @ z_new)) * np.ones(theta.size)

    return Trajectory(np.asarray(thetas), np.asarray(grads), np.asarray(logps), termination)
