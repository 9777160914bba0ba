"""Single-path driver: optimize, score candidate approximations, draw from the best.

One run optimizes the log density from a random initialization, rebuilds a
normal approximation at every trajectory point, scores each by Monte Carlo
ELBO, and returns draws from the ELBO-maximizing approximation.  Candidates
are independent of each other, so they are built, sampled and scored in
stacked blocks: one factorization pass and one target call per block.

Runs never raise on pathological geometry: a run that cannot produce any
valid approximation returns its last trajectory point as a single draw
flagged with +inf approximation log density, which guarantees zero
importance weight downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import normal_approx
from .elbo import elbo_estimate
from .errors import AllFailedError, NonFiniteError
from .inv_hessian import (
    alpha_recover, assemble_factors, pair_counts, select_rows, stacked_factors, window,
)
from .lbfgs import LbfgsOptions, Termination, optimize
from .options import POSITIVE, POSITIVE_INT, check_settings, setting
from .seeding import STREAM_CANDIDATE, STREAM_FINAL, STREAM_INIT, substream
from .targets import CounterView

# Floats in one stacked (B, N, 2J') array of a scoring block.  Blocks bound
# memory; they change no result where logp_many rows do not depend on the
# batch, which holds for every target but logistic regression, whose rows
# are BLAS matrix products: the fixed block size keeps its results
# reproducible.  The same holds for the lockstep optimizer's batches, so a
# logistic path run by ``run_multi`` is not bit-identical to ``run_single``
# with its path index, although ``run_multi`` output is still a function of
# (target, options, seed).
BLOCK_FLOATS = 2**14

# Why a candidate approximation was disqualified, in the order checked:
# E with a non-positive diagonal, a non-positive-definite inner matrix, a
# non-finite mean or log determinant, and (after sampling) a non-finite ELBO.
DISQUALIFY_REASONS = ("singular_e", "cholesky", "nonfinite_approx", "nonfinite_elbo")


@dataclass(frozen=True)
class PathfinderOptions:
    """Tuning settings for one optimization path.

    ELBO draws per candidate, output draws and the initialization half-width
    are set here; the optimizer's settings, including the history size that
    also bounds each candidate's pair count, live in ``lbfgs``.
    """

    elbo_draws: int = setting(5, POSITIVE_INT, "Monte Carlo draws per ELBO estimate")
    num_draws: int = setting(100, POSITIVE_INT, "draws per path")
    init_radius: float = setting(2.0, POSITIVE, "uniform initialization half-width")
    lbfgs: LbfgsOptions = field(default_factory=LbfgsOptions)

    def __post_init__(self):
        check_settings(self)


@dataclass
class PathfinderRun:
    """Output of one path.

    A failed run carries exactly one draw (the last trajectory point) with
    ``logq == +inf``; otherwise ``l_star`` is the 1-based trajectory iteration
    whose approximation won the ELBO argmax.  ``disqualified`` counts the
    candidates dropped for each of DISQUALIFY_REASONS; all but
    ``nonfinite_elbo`` were never sampled.  ``logp`` stays None until a
    pooling step evaluates target log densities for the draws.
    """

    draws: np.ndarray
    logq: np.ndarray
    elbo_trace: np.ndarray
    l_star: Optional[int]
    failed: bool
    n_logp: int
    n_grad: int
    num_iters: int
    termination: Optional[Termination]
    scored_candidates: int
    lbfgs_n_logp: int
    lbfgs_n_grad: int
    disqualified: dict = field(default_factory=lambda: dict.fromkeys(DISQUALIFY_REASONS, 0))
    logp: Optional[np.ndarray] = None
    approx: Optional[normal_approx.FactoredNormal] = None


def select_argmax(elbo_trace) -> int:
    """1-based index of the largest finite ELBO, ties broken toward smaller index.

    Raises AllFailedError when no entry is finite.
    """
    trace = np.asarray(elbo_trace, dtype=float)
    finite = np.isfinite(trace)
    if trace.size == 0 or not np.any(finite):
        raise AllFailedError("no candidate produced a finite ELBO")
    masked = np.where(finite, trace, -np.inf)
    return int(np.argmax(masked)) + 1


def _blocks(counts, dim):
    """Runs of consecutive candidates sharing a pair count, cut to BLOCK_FLOATS.

    Yields (first, stop, num_pairs) with 0-based candidate positions.
    Pair counts never decrease along a trajectory, so each count is one run.
    """
    starts = np.flatnonzero(np.diff(counts, prepend=-1))
    stops = np.append(starts[1:], len(counts))
    for first, stop in zip(starts.tolist(), stops.tolist()):
        num_pairs = int(counts[first])
        size = max(1, BLOCK_FLOATS // (dim * max(2 * num_pairs, 1)))
        for lo in range(first, stop, size):
            yield lo, min(lo + size, stop), num_pairs


def _score_candidates(tally, recovery, trajectory, opts, seed, path_index):
    """ELBO of every candidate 1..L (-inf where disqualified), the number
    sampled, and the number disqualified for each reason.

    Candidates are scored in stacked blocks; each still draws from its own
    substream, so the scores do not depend on how the blocks are cut.
    """
    num_iters = recovery.num_iters
    dim = tally.dim
    elbo_trace = np.full(num_iters, -np.inf)
    reasons = dict.fromkeys(DISQUALIFY_REASONS, 0)
    scored = 0
    for first, stop, num_pairs in _blocks(pair_counts(recovery, opts.lbfgs.history_size), dim):
        iters = np.arange(first + 1, stop + 1)
        factors, ok_e = stacked_factors(*window(recovery, iters, num_pairs))
        reasons["singular_e"] += int(np.sum(~ok_e))
        if not np.all(ok_e):
            factors, iters = select_rows(factors, ok_e), iters[ok_e]
        approx, ok_chol = normal_approx.build_many(
            factors, trajectory.thetas[iters], trajectory.grads[iters])
        finite = np.isfinite(approx.logdet) & np.all(np.isfinite(approx.mu), axis=1)
        reasons["cholesky"] += int(np.sum(~ok_chol))
        reasons["nonfinite_approx"] += int(np.sum(ok_chol & ~finite))
        alive = ok_chol & finite
        if not np.all(alive):
            approx, iters = select_rows(approx, alive), iters[alive]
        if iters.size == 0:
            continue
        scored += iters.size
        u = np.stack([
            substream(seed, path_index, STREAM_CANDIDATE, l).standard_normal((opts.elbo_draws, dim))
            for l in iters.tolist()
        ])
        batch = normal_approx.transform(approx, u)
        logp_vals = tally.logp_many(batch.draws.reshape(-1, dim)).reshape(batch.logq.shape)
        values = np.array([elbo_estimate(lp, lq).value for lp, lq in zip(logp_vals, batch.logq)])
        reasons["nonfinite_elbo"] += int(np.sum(~np.isfinite(values)))
        elbo_trace[iters - 1] = values
    return elbo_trace, scored, reasons


def _failed_run(last_point, elbo_trace, tally, num_iters, termination,
                scored=0, lbfgs_n_logp=None, lbfgs_n_grad=None, disqualified=None):
    return PathfinderRun(
        draws=np.asarray(last_point, dtype=float)[None, :],
        logq=np.array([np.inf]),
        elbo_trace=np.asarray(elbo_trace, dtype=float),
        l_star=None,
        failed=True,
        n_logp=tally.n_logp,
        n_grad=tally.n_grad,
        num_iters=num_iters,
        termination=termination,
        scored_candidates=scored,
        lbfgs_n_logp=tally.n_logp if lbfgs_n_logp is None else lbfgs_n_logp,
        lbfgs_n_grad=tally.n_grad if lbfgs_n_grad is None else lbfgs_n_grad,
        disqualified=disqualified or dict.fromkeys(DISQUALIFY_REASONS, 0),
    )


def initial_point(dim: int, opts: PathfinderOptions, seed: int, path_index: int) -> np.ndarray:
    """The path's uniform random start in [-init_radius, init_radius]^dim."""
    rng_init = substream(seed, path_index, STREAM_INIT)
    return rng_init.uniform(-opts.init_radius, opts.init_radius, dim)


def run_single(target, opts: PathfinderOptions, seed: int, path_index: int = 0) -> PathfinderRun:
    """Run one path against ``target`` under the given master seed.

    All randomness comes from substreams keyed by (path_index, purpose,
    candidate index), so results are bit-identical for a fixed
    (target, opts, seed, path_index); BLOCK_FLOATS says when the blocking
    cannot change them either.
    """
    tally = CounterView(target)
    theta0 = initial_point(tally.dim, opts, seed, path_index)
    try:
        trajectory = optimize(tally, theta0, opts.lbfgs)
    except NonFiniteError:
        trajectory = None
    return finish_run(tally, theta0, trajectory, opts, seed, path_index)


def finish_run(tally, theta0, trajectory, opts: PathfinderOptions, seed: int,
               path_index: int) -> PathfinderRun:
    """Score the candidates along an optimized path and draw from the winner.

    ``tally`` is the path's CounterView, holding the optimizer's evaluations
    so far; ``trajectory`` is None when the initial point ``theta0`` had a
    non-finite log density or gradient.
    """
    if trajectory is None:
        return _failed_run(theta0, [], tally, 0, None)

    num_iters = trajectory.num_iters
    if num_iters == 0:
        return _failed_run(trajectory.thetas[-1], [], tally, 0, trajectory.termination)

    lbfgs_n_logp = tally.n_logp
    lbfgs_n_grad = tally.n_grad

    recovery = alpha_recover(trajectory)
    elbo_trace, scored, disqualified = _score_candidates(
        tally, recovery, trajectory, opts, seed, path_index)

    try:
        l_star = select_argmax(elbo_trace)
    except AllFailedError:
        return _failed_run(trajectory.thetas[-1], elbo_trace, tally,
                           num_iters, trajectory.termination,
                           scored, lbfgs_n_logp, lbfgs_n_grad, disqualified)

    # Rebuild the winner through the same stacked code, as a stack of one,
    # and draw a fresh batch of output draws.
    factors = assemble_factors(recovery, l_star, opts.lbfgs.history_size)
    approx = normal_approx.build(factors, trajectory.thetas[l_star], trajectory.grads[l_star])
    rng_final = substream(seed, path_index, STREAM_FINAL)
    batch = normal_approx.sample(approx, opts.num_draws, rng_final)

    return PathfinderRun(
        draws=batch.draws,
        logq=batch.logq,
        elbo_trace=elbo_trace,
        l_star=l_star,
        failed=False,
        n_logp=tally.n_logp,
        n_grad=tally.n_grad,
        num_iters=num_iters,
        termination=trajectory.termination,
        scored_candidates=scored,
        lbfgs_n_logp=lbfgs_n_logp,
        lbfgs_n_grad=lbfgs_n_grad,
        disqualified=disqualified,
        approx=approx,
    )
