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
them: it runs a list of steppers against one target, and each round answers
only the kind most of them wait on, directions as one stack per pair count
(``stacked_directions``) or points in one batched target call.  A direction
request whose pairs give no valid E is answered with a NaN direction, which
ends that path as ``line_search_fail``, and a refused start ends its path as
``nonfinite_at_init``: one bad path never stops the others.
``optimize`` and ``wolfe_line_search`` are a lockstep of one stepper;
``single_path`` runs one per path, for a single run as for ``run_multi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import LineSearchFailError, NonFiniteError
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
    NONFINITE_AT_INIT = "nonfinite_at_init"


@dataclass
class Trajectory:
    """Optimization path theta^(0:L') with gradients and log densities.

    ``logps`` is strictly increasing; all three arrays have L'+1 rows, one
    for a refused start, whose gradient is NaN and log density -inf.
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
    outside it have no valid E and hold placeholders, which ``lockstep``
    replaces by NaN; for such a row ``search_direction`` raises SingularEError.
    """
    factors, ok = stacked_factors(S, Z, alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # rows outside ``ok`` hold placeholders
        return alpha * grad + low_rank_product(factors, grad), ok


def search_direction(S, Z, alpha, grad) -> np.ndarray:
    """Ascent direction Sigma grad, Sigma = diag(alpha) + beta gamma beta' from ``inv_hessian``.

    S and Z are N x J' matrices of stored position/gradient updates, N x 0
    for none; alpha is the positive diagonal seed.  Cost is O(N J'^2 + J'^3).
    Raises SingularEError when the pairs give no valid E.  This is the
    per-row reference for ``stacked_directions``: each row of a stack equals
    this call on the row, bit for bit.
    """
    factors = factors_from_pairs(S, Z, alpha)
    grad = np.asarray(grad, dtype=float)
    return factors.alpha * grad + low_rank_product(factors, grad)


class StepperState:
    """A stepper under ``lockstep``: its request (None once it stops), the reply,
    its evaluation counts and its return value ``outcome`` (None until then)."""

    __slots__ = ("steps", "request", "reply", "outcome", "n_logp_only", "n_fused")

    def __init__(self, steps):
        self.steps, self.request = steps, next(steps)
        self.reply = self.outcome = None
        self.n_logp_only = self.n_fused = 0


def _kind(request) -> int:
    """0 for a direction request, 1 for a log-density-only trial, 2 for a fused point."""
    return 0 if type(request) is DirectionRequest else 1 + request[1]


def _evaluate(target, states) -> None:
    """Answer point requests of one kind with one batched call; a refused
    trial gets -inf, as from ``logp_many``, and a refused fused point None.

    The call is the target's own ``_evaluate``, which ``lockstep``'s error
    state covers; a lone request's point goes in as a read-only view of one
    row, which the target may not write to or return a view of.
    """
    if len(states) == 1:
        points = np.asarray(states[0].request[0], dtype=float)[None]
        points.flags.writeable = False
    else:
        points = np.array([state.request[0] for state in states], dtype=float)
    if not states[0].request[1]:
        for state, logp in zip(states, target._evaluate(points, False).tolist()):
            state.n_logp_only += 1
            state.reply = logp
        return
    logps, grads, ok = target._evaluate(points, True)
    # A stored gradient must own its memory: a row view would pin the batch,
    # unless the batch is that one row.
    if len(states) > 1:
        grads = [grad.copy() for grad in grads]
    for state, logp, grad, good in zip(states, logps.tolist(), grads, ok.tolist()):
        state.n_fused += 1
        state.reply = (logp, grad) if good else None


def _directions(states) -> None:
    """Answer every direction request, one ``stacked_directions`` call per pair count.

    A row without a valid E gets a NaN direction, which ends its path as
    ``line_search_fail`` and no other.  A lone request's fields go in as
    views of one row.
    """
    groups: dict = {}
    for state in states:
        groups.setdefault(state.request.S.shape[1], []).append(state)
    for group in groups.values():
        if len(group) == 1:
            fields = (np.asarray(field)[None] for field in group[0].request)
        else:
            fields = (np.array(field) for field in zip(*(state.request for state in group)))
        deltas, ok = stacked_directions(*fields)
        for state, delta, good in zip(group, deltas, ok.tolist()):
            state.reply = delta if good else np.full_like(delta, np.nan)


def lockstep(target, steppers) -> list:
    """Run steppers to their ends together against one target.

    Each round answers only the most common kind of pending request (a
    direction, a log-density-only trial or a fused point; a tie goes in that
    order), with one ``stacked_directions`` call per pair count or one
    batched target evaluation, as ``target.logp_many`` or
    ``target.logp_grad_many`` would make it.  The others wait, which changes
    no stepper's replies where rows do not depend on the batch.  A direction
    without a valid E is answered with NaN, so the stepper ends as
    ``line_search_fail`` instead of raising.  Returns a StepperState per
    stepper, whose ``outcome`` is its return value; an error a stepper raises
    propagates.  The loop ignores every floating-point error, once for all
    steppers, rounds and target evaluations: the steppers set no error state
    and run only under it, and a request pays for no error-state switch or
    re-check of its own.  A round's bookkeeping grows with the steppers it
    answers: a lone active stepper is answered without sorting.
    """
    with np.errstate(all="ignore"):
        states = active = [StepperState(steps) for steps in steppers]
        while active:
            if len(active) == 1:
                answered = active
            else:
                kinds = ([], [], [])  # by _kind: max() picks the first of the largest
                for state in active:
                    kinds[_kind(state.request)].append(state)
                answered = max(kinds, key=len)
            if _kind(answered[0].request) == 0:
                _directions(answered)
            else:
                _evaluate(target, answered)
            stopped = False
            for state in answered:
                try:
                    state.request = state.steps.send(state.reply)
                except StopIteration as stop:
                    state.request, state.outcome = None, stop.value
                    stopped = True
            if stopped:
                active = [state for state in active if state.request is not None]
    return states


def line_search_steps(theta, logp, grad, delta, c1, step=1.0, slope=None):
    """Stepper of ``wolfe_line_search``, started at ``step`` (a power of 2 <= 1).

    Yields each trial point for its log density alone, then the accepted one
    for its gradient.  A passing first trial below 1 doubles while the test
    passes and the step stays <= 1, and the largest passing step is
    accepted; a failing trial halves.  A refused gradient rejects the
    accepted step, and halving goes on below it without growing again.
    Returns None when no step >= 2^-MAX_HALVINGS passes.  ``slope`` is
    float(grad @ delta), computed here unless the caller passes it.
    """
    if slope is None:
        slope = float(grad @ delta)
    grow = step < 1.0
    passed = None  # (step, point) of the largest trial known to pass
    while step >= MIN_STEP:
        candidate = theta + step * delta
        trial_logp = yield candidate, False
        # Python floats: a refused trial (-inf), or an overflow or nan in the
        # bound, fails the check quietly.
        if trial_logp >= logp + c1 * step * slope:
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
    return None


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
    result = lockstep(target, [line_search_steps(theta, float(logp), grad, delta, c1)])[0].outcome
    if result is None:
        raise LineSearchFailError(f"no step >= 2^-{MAX_HALVINGS} gives sufficient increase")
    return result


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
    if trajectory.termination is Termination.NONFINITE_AT_INIT:
        raise NonFiniteError("non-finite log density or gradient at the initial point")
    return trajectory


def optimize_steps(theta_init, opts: LbfgsOptions, record=None):
    """Stepper of ``optimize``: yields theta_init, then each direction request
    and the points of the line search along its answer.  ``record``, if
    given, is called with each trajectory point and its gradient as it joins;
    a refused start returns at once as ``NONFINITE_AT_INIT``, recording none."""
    theta = np.asarray(theta_init, dtype=float)
    result = yield theta, True
    if result is None:
        return Trajectory(theta[None], np.full((1, theta.size), np.nan), np.array([-np.inf]),
                          Termination.NONFINITE_AT_INIT)
    logp, grad = result

    thetas, grads, logps = [theta], [grad], [logp]
    if record:
        record(theta, grad)

    # The stored pairs, oldest first, as (N, J') columns; each accepted pair
    # replaces both arrays, so a request can hold them without a copy.
    S = Z = np.zeros((theta.size, 0))
    alpha = np.ones(theta.size)
    step = 1.0  # the last accepted step
    termination = Termination.MAX_ITER

    for _ in range(opts.max_iters):
        if math.sqrt(grads[-1] @ grads[-1]) < opts.grad_zero_tol:
            termination = (Termination.CONVERGED if len(thetas) > 1
                           else Termination.ZERO_GRADIENT_AT_INIT)
            break
        delta = yield DirectionRequest(S, Z, alpha, grads[-1])
        slope = float(grads[-1] @ delta)
        if not (slope > 0.0 and np.isfinite(delta).all()):
            termination = Termination.LINE_SEARCH_FAIL
            break
        ls = yield from line_search_steps(
            thetas[-1], logps[-1], grads[-1], delta, opts.c1, min(1.0, 2.0 * step), slope)
        if ls is None:
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
        sz, zz = s_new @ z_new, z_new @ z_new
        if sz > opts.pair_eps * zz:
            drop = int(S.shape[1] == opts.history_size)
            S = np.concatenate((S[:, drop:], s_new[:, None]), axis=1)
            Z = np.concatenate((Z[:, drop:], z_new[:, None]), axis=1)
            alpha = np.full(theta.size, zz / sz)

    return Trajectory(np.asarray(thetas), np.asarray(grads), np.asarray(logps), termination)
