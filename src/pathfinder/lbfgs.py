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

Both are written once, as steppers: generators that yield requests and take
each answer back.  A stepper asks for three kinds of thing: a point's log
density alone (``(point, False)``), a point's fused log density and
gradient (``(point, True)``), and the optimizer also asks for each search
direction (a ``DirectionRequest``).  One driver, ``lockstep``, answers
them: it runs a list of steppers against one target, computes their
directions as one stack per pair count (``stacked_directions``) and
evaluates their points with the target's batched methods.  ``optimize`` and
``wolfe_line_search`` are a lockstep of one stepper; ``single_path`` runs one
per path, for a single run as for ``run_multi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import LineSearchFailError, NonFiniteError, SingularEError
from .inv_hessian import factors_from_pairs, low_rank_product, stacked_factors
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


class DirectionRequest(NamedTuple):
    """A stepper's request for the ascent direction Sigma grad at its current point.

    S and Z are the (N, J') stored position/gradient updates, oldest first,
    and alpha the positive diagonal seed; the answer is the (N,) direction.
    """

    S: np.ndarray
    Z: np.ndarray
    alpha: np.ndarray
    grad: np.ndarray


def stacked_directions(S, Z, alpha, grad):
    """Ascent directions Sigma grad for a stack of B requests with a common pair count.

    S and Z are (B, N, J'); alpha and grad are (B, N).  Returns the (B, N)
    directions and the (B,) mask of ``inv_hessian.stacked_factors``: rows
    outside it have no valid E and their directions must not be used; for
    such a row ``search_direction`` raises SingularEError.
    """
    factors, ok = stacked_factors(S, Z, alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # rows outside ``ok`` hold placeholders
        return alpha * grad + low_rank_product(factors, grad), ok


def search_direction(S, Z, alpha, grad) -> np.ndarray:
    """Ascent direction Sigma grad, Sigma = diag(alpha) + beta gamma beta' from ``inv_hessian``.

    S and Z are N x J' matrices of stored position/gradient updates (None
    for none); alpha is the positive diagonal seed.  Cost is O(N J'^2 + J'^3).
    Raises SingularEError when the pairs give no valid E.  This is the
    per-row reference for ``stacked_directions``: each row of a stack equals
    this call on the row, bit for bit.
    """
    factors = factors_from_pairs(S, Z, alpha)
    grad = np.asarray(grad, dtype=float)
    return factors.alpha * grad + low_rank_product(factors, grad)


class StepperState:
    """A stepper under ``lockstep``: its request, the reply, its evaluation
    counts and, once it stops, its ``outcome`` (None until then)."""

    __slots__ = ("steps", "request", "reply", "outcome", "n_logp_only", "n_fused")

    def __init__(self, steps):
        self.steps, self.request = steps, next(steps)
        self.reply = self.outcome = None
        self.n_logp_only = self.n_fused = 0


def _evaluate(target, states) -> None:
    """Answer every point request with at most two batched calls; a refused point gets None."""
    trials = [state for state in states if not state.request[1]]
    if trials:
        logps = target.logp_many(np.array([state.request[0] for state in trials]))
        for state, logp in zip(trials, logps.tolist()):
            state.n_logp_only += 1
            state.reply = logp if logp > -math.inf else None
    fused = [state for state in states if state.request[1]]
    if fused:
        logps, grads, ok = target.logp_grad_many(np.array([state.request[0] for state in fused]))
        for state, logp, grad, good in zip(fused, logps.tolist(), grads, ok.tolist()):
            state.n_fused += 1
            # A stored gradient must own its memory: a row view would pin the batch.
            state.reply = (logp, grad.copy()) if good else None


def _directions(states) -> None:
    """Answer every direction request, one ``stacked_directions`` call per pair count.

    A row without a valid E gets the SingularEError ``search_direction``
    raises for it, to be thrown into its stepper.
    """
    groups: dict = {}
    for state in states:
        groups.setdefault(state.request.S.shape[1], []).append(state)
    for group in groups.values():
        fields = zip(*(state.request for state in group))
        deltas, ok = stacked_directions(*(np.array(field) for field in fields))
        for state, delta, good in zip(group, deltas, ok.tolist()):
            state.reply = delta if good else SingularEError(
                "pair matrix E must be finite with a positive s'z diagonal")


def lockstep(target, steppers) -> list:
    """Run steppers to their ends together against one target.

    Each round answers every pending direction request or, when there is
    none, every pending point request, with one ``target.logp_many`` call
    for the log-density-only ones and one ``target.logp_grad_many`` call for
    the fused ones.  Returns a StepperState per stepper, whose ``outcome``
    is its return value or the NonFiniteError it raised; any other error
    propagates.  The loop ignores floating-point overflow, invalid values
    and division by zero, once for all steppers and rounds: the steppers
    themselves set no error state and run only under it.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        states = active = [StepperState(steps) for steps in steppers]
        while active:
            answered = [state for state in active if type(state.request) is DirectionRequest]
            if answered:
                _directions(answered)
            else:
                _evaluate(target, active)
                answered = active
            for state in answered:
                try:
                    if type(state.reply) is SingularEError:
                        state.request = state.steps.throw(state.reply)
                    else:
                        state.request = state.steps.send(state.reply)
                except StopIteration as stop:
                    state.outcome = stop.value
                except NonFiniteError as exc:
                    state.outcome = exc
            active = [state for state in active if state.outcome is None]
    return states


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

    This is ``line_search_steps`` started at step 1, run as a lockstep of
    one stepper.  Requires grad'delta > 0 (ascent direction).  Only the
    sufficient-increase (Armijo) condition
    logp(theta + step delta) >= logp + c1 step grad'delta is enforced.  Each
    trial is a log-density-only evaluation; the first that passes gets one
    fused evaluation, whose result is returned.  A refused evaluation of
    either kind fails the check and the step is halved.  A step that leaves
    the curvature unmet gives an update pair that the curvature gate of
    ``optimize`` drops.  LineSearchFailError is raised when no step
    >= 2^-MAX_HALVINGS yields a sufficient increase.
    """
    return lockstep(target, [line_search_steps(theta, float(logp), grad, delta, c1)])[0].outcome


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
    initial point has a non-finite log density or gradient.  This is
    ``optimize_steps`` run as a lockstep of one stepper, one batched target
    call of one row per evaluation.
    """
    trajectory = lockstep(target, [optimize_steps(theta_init, opts)])[0].outcome
    if isinstance(trajectory, NonFiniteError):
        raise trajectory
    return trajectory


def optimize_steps(theta_init, opts: LbfgsOptions, record=None):
    """Stepper of ``optimize``: yields theta_init, then each direction request
    and the points of the line search along its answer.  ``record``, if
    given, is called with each trajectory point and its gradient as it joins."""
    theta = np.asarray(theta_init, dtype=float)
    result = yield theta, True
    if result is None:
        raise NonFiniteError("non-finite log density or gradient at the initial point")
    logp, grad = result

    thetas, grads, logps = [theta], [grad], [logp]
    if record:
        record(theta, grad)
    if math.sqrt(grad @ grad) < opts.grad_zero_tol:
        return Trajectory(np.asarray(thetas), np.asarray(grads), np.asarray(logps),
                          Termination.ZERO_GRADIENT_AT_INIT)

    # The stored pairs, oldest first, as (N, J') columns; each accepted pair
    # replaces both arrays, so a request can hold them without a copy.
    S = Z = np.zeros((theta.size, 0))
    alpha = np.ones(theta.size)
    step = 1.0  # the last accepted step
    termination = Termination.MAX_ITER

    for _ in range(opts.max_iters):
        if math.sqrt(grads[-1] @ grads[-1]) < opts.grad_zero_tol:
            termination = Termination.CONVERGED
            break
        delta = yield DirectionRequest(S, Z, alpha, grads[-1])
        if not (np.isfinite(delta).all() and grads[-1] @ delta > 0.0):
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
        if record:
            record(ls.theta, ls.grad)

        if (ls.logp - prev_logp) / max(abs(prev_logp), REL_TOL_FLOOR) < opts.rel_tol:
            termination = Termination.CONVERGED
            break

        s_new = ls.theta - prev_theta
        z_new = prev_grad - ls.grad
        if s_new @ z_new > opts.pair_eps * (z_new @ z_new):
            drop = int(S.shape[1] == opts.history_size)
            S = np.concatenate((S[:, drop:], s_new[:, None]), axis=1)
            Z = np.concatenate((Z[:, drop:], z_new[:, None]), axis=1)
            alpha = np.full(theta.size, (z_new @ z_new) / (s_new @ z_new))

    return Trajectory(np.asarray(thetas), np.asarray(grads), np.asarray(logps), termination)
