"""Single-path Pathfinder: optimize, score candidate approximations, draw from the best.

One run optimizes the log density from a random initialization, rebuilds a
normal approximation at every trajectory point, scores each by Monte Carlo
ELBO, and returns draws from the ELBO-maximizing approximation.  The
optimizer is ``lbfgs.optimize``, the lockstep loop of ``run_multi`` with one
path, so a single run evaluates the target through its batched methods,
one row per call.  Candidates
are independent of each other, so they are built, sampled and scored in
stacked blocks: one factorization pass and one target call per block.
``finish_runs`` scores several optimized paths in one pass, each block
holding the candidates of every path that share a pair count; a single run
is the pass over a list of one path.

Runs never raise on pathological geometry: a run that cannot produce any
valid approximation returns its last trajectory point as a single draw
flagged with +inf approximation log density, which guarantees zero
importance weight downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import elbo, normal_approx
# The scoring pass calls elbo.elbo_estimate on whole blocks; the name stays
# importable here, where the benchmark's tracer (bench/layers.py) looks for it.
from .elbo import elbo_estimate  # noqa: F401
from .errors import AllFailedError, NonFiniteError
from .inv_hessian import (
    alpha_recover, assemble_factors, pair_counts, select_rows, stacked_factors, window,
)
from .lbfgs import LbfgsOptions, Termination, Trajectory, optimize
from .options import POSITIVE, POSITIVE_INT, check_settings, setting
from .seeding import STREAM_CANDIDATE, STREAM_FINAL, STREAM_INIT, substream
from .targets import CounterView

# Floats in one stacked (B, N, 2J') array of a scoring block.  A block spans
# paths: it holds candidates of every path scored in the pass that share a
# pair count.  Blocks bound memory; they change no result where logp_many
# rows do not depend on the batch, which holds for every target but
# logistic regression, whose rows are BLAS matrix products: the fixed block
# size keeps its results reproducible.  The same holds for the lockstep
# optimizer's batches and for blocks that mix paths, so a logistic path run
# by ``run_multi`` is not bit-identical to ``run_single`` with its path
# index, although ``run_multi`` output is still a function of
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
    """Blocks of candidates sharing a pair count, across paths, cut to BLOCK_FLOATS.

    ``counts`` holds each path's pair counts for its candidates 1..L.
    Yields (num_pairs, owners, iters): each candidate's position in
    ``counts`` and its 1-based iteration, ordered by path and then
    iteration.  Pair counts never decrease along a trajectory, so with one
    path each count is one run of consecutive candidates.
    """
    if not counts:
        return
    flat = np.concatenate(counts)
    owners = np.repeat(np.arange(len(counts)), [len(c) for c in counts])
    iters = np.concatenate([np.arange(1, len(c) + 1) for c in counts])
    order = np.argsort(flat, kind="stable")
    flat, owners, iters = flat[order], owners[order], iters[order]
    starts = np.flatnonzero(np.diff(flat, prepend=-1))
    stops = np.append(starts[1:], len(flat))
    for first, stop in zip(starts.tolist(), stops.tolist()):
        num_pairs = int(flat[first])
        size = max(1, BLOCK_FLOATS // (dim * max(2 * num_pairs, 1)))
        for lo in range(first, stop, size):
            hi = min(lo + size, stop)
            yield num_pairs, owners[lo:hi], iters[lo:hi]


def _windows(recoveries, owners, iters, num_pairs):
    """``window`` of each path's candidates in a block, joined along the stack axis.

    Each path's S and Z keep the memory layout ``window`` gives them, so a
    candidate's factors do not depend on the paths it is scored with.
    """
    S, Z, alpha = zip(*(window(recoveries[k], iters[owners == k], num_pairs)
                        for k in np.unique(owners)))
    return (np.concatenate([m.swapaxes(1, 2) for m in S]).swapaxes(1, 2),
            np.concatenate([m.swapaxes(1, 2) for m in Z]).swapaxes(1, 2),
            np.concatenate(alpha))


def _rows(arrays, owners, iters):
    """Row ``iters[i]`` of ``arrays[owners[i]]`` for each i; owners ascend, as in a block."""
    return np.concatenate([arrays[k][iters[owners == k]] for k in np.unique(owners)])


def _score_candidates(target, paths, recoveries, opts, seed):
    """Score every candidate of every path in one pass of cross-path blocks.

    Returns, per path, the ELBO of each candidate 1..L (-inf where
    disqualified), the number sampled, and the number disqualified for each
    reason.  Each block makes one ``target.logp_many`` call, whose rows are
    added to each path's tally.  Each candidate draws from its own
    (path, candidate) substream, so the scores do not depend on how the
    blocks are cut.
    """
    dim = target.dim
    num_paths = len(paths)
    traces = [np.full(rec.num_iters, -np.inf) for rec in recoveries]
    scored = np.zeros(num_paths, dtype=int)
    reasons = {reason: np.zeros(num_paths, dtype=int) for reason in DISQUALIFY_REASONS}

    def disqualify(reason, owners):
        reasons[reason] += np.bincount(owners, minlength=num_paths)

    counts = [pair_counts(rec, opts.lbfgs.history_size) for rec in recoveries]
    for num_pairs, owners, iters in _blocks(counts, dim):
        factors, ok_e = stacked_factors(*_windows(recoveries, owners, iters, num_pairs))
        disqualify("singular_e", owners[~ok_e])
        if not np.all(ok_e):
            factors, owners, iters = select_rows(factors, ok_e), owners[ok_e], iters[ok_e]
            if iters.size == 0:
                continue
        approx, ok_chol = normal_approx.build_many(
            factors, _rows([rec.thetas for rec in recoveries], owners, iters),
            _rows([rec.grads for rec in recoveries], owners, iters))
        finite = np.isfinite(approx.logdet) & np.all(np.isfinite(approx.mu), axis=1)
        disqualify("cholesky", owners[~ok_chol])
        disqualify("nonfinite_approx", owners[ok_chol & ~finite])
        alive = ok_chol & finite
        if not np.all(alive):
            approx, owners, iters = select_rows(approx, alive), owners[alive], iters[alive]
            if iters.size == 0:
                continue
        sampled = np.bincount(owners, minlength=num_paths)
        scored += sampled
        for path, n in zip(paths, sampled.tolist()):
            path.tally.n_logp_only += n * opts.elbo_draws  # rows the target counts below
        u = np.stack([
            substream(seed, paths[k].index, STREAM_CANDIDATE, l).standard_normal((opts.elbo_draws, dim))
            for k, l in zip(owners.tolist(), iters.tolist())
        ])
        batch = normal_approx.transform(approx, u)
        logp_vals = target.logp_many(batch.draws.reshape(-1, dim)).reshape(batch.logq.shape)
        values = elbo.elbo_estimate(logp_vals, batch.logq).value
        disqualify("nonfinite_elbo", owners[~np.isfinite(values)])
        for k in np.unique(owners):
            traces[k][iters[owners == k] - 1] = values[owners == k]
    return [
        (trace, int(scored[k]), {reason: int(n[k]) for reason, n in reasons.items()})
        for k, trace in enumerate(traces)
    ]


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


@dataclass
class OptimizedPath:
    """A path whose optimizer has stopped, waiting to be scored.

    ``tally`` is the path's CounterView, holding the optimizer's evaluations;
    ``trajectory`` is None when the initial point ``theta0`` had a
    non-finite log density or gradient.
    """

    index: int
    tally: CounterView
    theta0: np.ndarray
    trajectory: Optional[Trajectory]


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
    return finish_runs(target, [OptimizedPath(path_index, tally, theta0, trajectory)], opts, seed)[0]


def finish_runs(target, paths: list, opts: PathfinderOptions, seed: int) -> list:
    """Score the candidates along optimized paths and draw from each path's winner.

    ``paths`` are OptimizedPath records; the runs come back in their order.
    Every path's candidates are scored in one pass of cross-path blocks, so
    a path's run equals its run scored alone wherever the target's batched
    rows do not depend on the batch.
    """
    runs = [None] * len(paths)
    scorable = []
    for i, path in enumerate(paths):
        trajectory = path.trajectory
        if trajectory is None:
            runs[i] = _failed_run(path.theta0, [], path.tally, 0, None)
        elif trajectory.num_iters == 0:
            runs[i] = _failed_run(trajectory.thetas[-1], [], path.tally, 0, trajectory.termination)
        else:
            scorable.append(i)
    optimizer_counts = [(paths[i].tally.n_logp, paths[i].tally.n_grad) for i in scorable]
    recoveries = [alpha_recover(paths[i].trajectory) for i in scorable]
    scores = _score_candidates(target, [paths[i] for i in scorable], recoveries, opts, seed)
    for i, recovery, counts, score in zip(scorable, recoveries, optimizer_counts, scores):
        runs[i] = _draw_from_winner(paths[i], recovery, *score, *counts, opts, seed)
    return runs


def _draw_from_winner(path, recovery, elbo_trace, scored, disqualified,
                      lbfgs_n_logp, lbfgs_n_grad, opts, seed) -> PathfinderRun:
    """The run of a scored path: draws from its ELBO-best candidate, or a failed run."""
    trajectory = path.trajectory
    try:
        l_star = select_argmax(elbo_trace)
    except AllFailedError:
        return _failed_run(trajectory.thetas[-1], elbo_trace, path.tally,
                           trajectory.num_iters, trajectory.termination,
                           scored, lbfgs_n_logp, lbfgs_n_grad, disqualified)

    # Rebuild the winner through the same stacked code, as a stack of one,
    # and draw a fresh batch of output draws.
    factors = assemble_factors(recovery, l_star, opts.lbfgs.history_size)
    approx = normal_approx.build(factors, trajectory.thetas[l_star], trajectory.grads[l_star])
    rng_final = substream(seed, path.index, STREAM_FINAL)
    batch = normal_approx.sample(approx, opts.num_draws, rng_final)

    return PathfinderRun(
        draws=batch.draws,
        logq=batch.logq,
        elbo_trace=elbo_trace,
        l_star=l_star,
        failed=False,
        n_logp=path.tally.n_logp,
        n_grad=path.tally.n_grad,
        num_iters=trajectory.num_iters,
        termination=trajectory.termination,
        scored_candidates=scored,
        lbfgs_n_logp=lbfgs_n_logp,
        lbfgs_n_grad=lbfgs_n_grad,
        disqualified=disqualified,
        approx=approx,
    )
