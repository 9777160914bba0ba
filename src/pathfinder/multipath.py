"""Multi-path Pathfinder: lockstep paths, pooled by Pareto-smoothed importance resampling.

The paths are independent, so their optimizers advance together: each round
computes the search directions the paths ask for as one stack per pair
count, and evaluates every active path's pending point with at most two
batched target calls, one for line-search trials (log density only) and one
for the points that need a gradient.  When every optimizer has stopped, the
candidates of all paths are scored in one pass of cross-path blocks.  The
finished single paths are pooled under an
equally-weighted mixture proposal in which every draw is scored against its
own component density (the 1/I mixture factors cancel between proposal and
augmented target, so the raw log weight of a draw is simply log p - log q of
its component).  The largest weights are smoothed by a generalized Pareto fit
before resampling.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from .errors import AllPathsFailedError, NoFiniteWeightsError, NonFiniteError, SingularEError
from .lbfgs import DirectionRequest, optimize_steps, stacked_directions
from .options import POSITIVE_INT, check_settings, setting
from .seeding import STREAM_RESAMPLE, substream
# run_single is not called here; it stays importable from this module, where
# the benchmark's tracer (bench/layers.py) looks for it.
from .single_path import (  # noqa: F401
    OptimizedPath, PathfinderOptions, finish_runs, initial_point, run_single,
)
from .targets import CounterView

logger = logging.getLogger(__name__)

# Sentinel k-hat for tails that cannot support a generalized Pareto fit.
KHAT_SENTINEL = -np.inf

# Reliability threshold from the importance-sampling literature; larger
# fitted shapes mean the weights have too few moments to trust.
KHAT_WARN = 0.7

# Minimum number of tail points for a meaningful fit.
MIN_TAIL = 5


@dataclass(frozen=True)
class MultipathOptions:
    """Number of paths and resampled draws, plus the per-path options.

    The number of draws per path is ``single.num_draws``; the resample size
    must not exceed the pooled total.
    """

    num_paths: int = setting(20, POSITIVE_INT, "independent paths (multi mode)", flag="--paths")
    num_resample: int = setting(100, POSITIVE_INT, "resampled draws returned in multi mode",
                                flag="--resample-draws")
    single: PathfinderOptions = field(default_factory=PathfinderOptions)

    def __post_init__(self):
        check_settings(self)
        if self.num_resample > self.num_paths * self.single.num_draws:
            raise ValueError(
                f"num_resample: {self.num_resample} exceeds num_paths * num_draws "
                f"= {self.num_paths * self.single.num_draws}"
            )


@dataclass
class WeightedSample:
    """Pooled draws with raw and smoothed log importance weights.

    Draws from failed runs enter with ``log_w_raw == -inf`` (their sentinel
    log q is +inf) and can never be resampled.
    """

    draws: np.ndarray           # (S, N)
    log_w_raw: np.ndarray       # (S,)
    log_w_smoothed: np.ndarray  # (S,)
    k_hat: float
    component_ids: np.ndarray   # (S,) path index of each draw
    log_q: np.ndarray           # (S,) component log densities
    log_p: np.ndarray           # (S,) target log densities


@dataclass
class MultipathResult:
    draws: np.ndarray               # (R, N)
    indices: np.ndarray             # (R,) into the pooled sample
    pooled: WeightedSample
    runs: list
    n_logp: int
    n_grad: int
    pool_n_logp: int

    @property
    def k_hat(self) -> float:
        return self.pooled.k_hat


def fit_generalized_pareto(exceedances) -> tuple[float, float]:
    """Profile-likelihood fit of a generalized Pareto (k, sigma) to exceedances.

    Uses the Zhang-Stephens posterior-mean estimator over a grid of candidate
    scales, with a weakly informative prior that shrinks k toward 0.5 by ten
    pseudo-observations.  Positive data only; k > 0 means a polynomial tail.
    """
    y = np.sort(np.asarray(exceedances, dtype=float))
    n = y.size
    if n < MIN_TAIL or y[0] < 0 or y[-1] <= 0:
        raise ValueError("need at least five non-negative exceedances with positive max")
    quartile = y[(n - 2) // 4]
    if quartile <= 0:
        raise ValueError("lower-quartile exceedance must be positive")

    m = 30 + int(math.sqrt(n))
    b = 1.0 - np.sqrt(m / (np.arange(m, dtype=float) + 0.5))
    b = b / (3.0 * quartile) + 1.0 / y[-1]
    k_grid = np.mean(np.log1p(-b[:, None] * y), axis=1)
    profile = n * (np.log(-b / k_grid) - k_grid - 1.0)
    with np.errstate(over="ignore"):
        # candidates far below the profile maximum saturate to weight zero
        weights = 1.0 / np.sum(np.exp(profile - profile[:, None]), axis=1)
    b_post = float(np.sum(b * weights) / np.sum(weights))
    k_post = float(np.mean(np.log1p(-b_post * y)))
    sigma = -k_post / b_post
    k_hat = (n * k_post + 10.0 * 0.5) / (n + 10.0)
    return k_hat, sigma


def gpd_quantile(u, k: float, sigma: float):
    """Inverse CDF of the generalized Pareto with location 0."""
    u = np.asarray(u, dtype=float)
    if abs(k) < 1e-12:
        return -sigma * np.log1p(-u)
    return sigma * np.expm1(-k * np.log1p(-u)) / k


def tail_length(num_finite: int) -> int:
    """Number of top weights treated as the tail."""
    return min(math.ceil(0.2 * num_finite), math.ceil(3.0 * math.sqrt(num_finite)))


def psis_smooth(log_w) -> tuple[np.ndarray, float]:
    """Smooth the largest log importance weights by a generalized Pareto fit.

    The tail (the largest finite weights) is replaced by expected order
    statistics of the fitted distribution, anchored at the largest non-tail
    weight and capped at the raw maximum; everything else, including -inf
    sentinels, passes through unchanged.  Returns the smoothed log weights
    and the fitted shape k-hat, or the raw weights with a -inf sentinel k-hat
    when the tail is degenerate (all equal) or too small to fit.
    """
    log_w = np.asarray(log_w, dtype=float).copy()
    finite = np.isfinite(log_w)
    n_finite = int(np.sum(finite))
    if n_finite == 0:
        raise NoFiniteWeightsError("no finite log weight to smooth")

    m_tail = tail_length(n_finite)
    if m_tail < MIN_TAIL or n_finite - m_tail < 1:
        return log_w, KHAT_SENTINEL

    finite_idx = np.flatnonzero(finite)
    shift = float(np.max(log_w[finite_idx]))
    w = np.exp(log_w[finite_idx] - shift)

    order = np.argsort(w, kind="stable")
    tail_order = order[n_finite - m_tail:]
    cutoff = w[order[n_finite - m_tail - 1]]
    tail = w[tail_order]
    exceedances = tail - cutoff
    if np.unique(tail).size < 2 or exceedances[-1] <= 0:
        return log_w, KHAT_SENTINEL
    try:
        k_hat, sigma = fit_generalized_pareto(exceedances)
    except ValueError:
        return log_w, KHAT_SENTINEL

    probs = (np.arange(1, m_tail + 1) - 0.5) / m_tail
    smoothed_tail = cutoff + gpd_quantile(probs, k_hat, sigma)
    smoothed_tail = np.minimum(smoothed_tail, w[order[-1]])
    out = log_w
    out[finite_idx[tail_order]] = np.log(smoothed_tail) + shift

    if k_hat > KHAT_WARN:
        logger.warning(
            "fitted Pareto shape k_hat=%.3f exceeds %.1f; importance weights unreliable",
            k_hat, KHAT_WARN,
        )
    return out, float(k_hat)


def resample(draws, log_w_smoothed, num_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of ``num_draws`` i.i.d. with-replacement picks by weight."""
    draws = np.asarray(draws)
    log_w = np.asarray(log_w_smoothed, dtype=float)
    if len(draws) != len(log_w):
        raise ValueError(f"{len(draws)} draws but {len(log_w)} weights")
    finite = np.isfinite(log_w)
    if not np.any(finite):
        raise NoFiniteWeightsError("no finite weight to resample from")
    shifted = np.where(finite, log_w - np.max(log_w[finite]), -np.inf)
    probs = np.exp(shifted)
    probs /= probs.sum()
    return rng.choice(len(log_w), size=num_draws, replace=True, p=probs)


def pool_runs(runs: list, target) -> tuple[WeightedSample, int]:
    """Pool draws from runs, evaluate target log densities, form raw weights.

    Returns the pooled sample and the number of target log-density
    evaluations spent on it.  Each run's ``logp`` field is filled in place.
    """
    view = CounterView(target)
    all_draws, all_logq, all_logp, comp = [], [], [], []
    for i, run in enumerate(runs):
        logp_vals = view.logp_many(run.draws)
        run.logp = logp_vals
        all_draws.append(run.draws)
        all_logq.append(run.logq)
        all_logp.append(logp_vals)
        comp.append(np.full(len(run.logq), i, dtype=int))

    draws = np.concatenate(all_draws, axis=0)
    log_q = np.concatenate(all_logq)
    log_p = np.concatenate(all_logp)
    with np.errstate(invalid="ignore"):
        log_w_raw = log_p - log_q
    # +inf sentinel log q, or a -inf log p, must yield weight zero
    log_w_raw = np.where(np.isnan(log_w_raw), -np.inf, log_w_raw)

    pooled = WeightedSample(
        draws=draws,
        log_w_raw=log_w_raw,
        log_w_smoothed=log_w_raw.copy(),
        k_hat=KHAT_SENTINEL,
        component_ids=np.concatenate(comp),
        log_q=log_q,
        log_p=log_p,
    )
    return pooled, view.n_logp


@dataclass
class _ActivePath:
    """A path whose optimizer still runs, its pending request and the reply to it."""

    index: int
    tally: CounterView
    theta0: np.ndarray
    steps: Generator
    request: object
    reply: object = None


def _evaluate(target, paths) -> None:
    """Answer every path's point request with at most two batched target calls."""
    trials = [path for path in paths if not path.request[1]]
    if trials:
        logps = target.logp_many(np.stack([path.request[0] for path in trials]))
        for path, logp in zip(trials, logps.tolist()):
            path.tally.n_logp_only += 1  # the row's evaluation, already counted by the target
            path.reply = logp if logp > -math.inf else None
    fused = [path for path in paths if path.request[1]]
    if fused:
        logps, grads, ok = target.logp_grad_many(np.stack([path.request[0] for path in fused]))
        for path, logp, grad, good in zip(fused, logps.tolist(), grads, ok.tolist()):
            path.tally.n_grad += 1
            # A stored gradient must own its memory: a row view would pin the batch.
            path.reply = (logp, grad.copy()) if good else None


def _directions(paths) -> None:
    """Answer every path's direction request, one stacked call per pair count.

    A row without a valid E is answered with the SingularEError that
    ``search_direction`` raises for it, to be thrown into its stepper.
    """
    groups: dict = {}
    for path in paths:
        groups.setdefault(path.request.S.shape[1], []).append(path)
    for group in groups.values():
        deltas, ok = stacked_directions(*(np.stack(field) for field in zip(*(p.request for p in group))))
        for path, delta, good in zip(group, deltas, ok.tolist()):
            path.reply = delta if good else SingularEError(
                "pair matrix E must be finite with a positive s'z diagonal")


def _run_lockstep(target, opts: PathfinderOptions, seed: int, num_paths: int) -> list:
    """Runs of paths 0..num_paths-1, their optimizers advanced in lockstep.

    Each round first answers the paths waiting on a search direction, one
    ``stacked_directions`` call per pair count (a row without a valid E has
    SingularEError thrown into its stepper, as ``search_direction`` would
    raise it), then makes at most two batched target calls: ``target.logp_many`` for the paths waiting on a
    line-search trial, and ``target.logp_grad_many`` for the paths that need
    a gradient (at their initial point or an accepted step).  Each optimizer
    stepper is then handed its row.  When every optimizer has stopped, all
    paths are scored together by ``finish_runs``.  Each run equals
    ``run_single(target, opts, seed, path_index=i)`` bit for bit wherever the
    target's batched rows do not depend on the batch.
    """
    optimized: list = [None] * num_paths
    pending = []
    for i in range(num_paths):
        theta0 = initial_point(target.dim, opts, seed, i)
        steps = optimize_steps(theta0, opts.lbfgs)
        pending.append(_ActivePath(i, CounterView(target), theta0, steps, next(steps)))
    while pending:
        answered = [path for path in pending if isinstance(path.request, DirectionRequest)]
        if answered:
            _directions(answered)
        else:
            _evaluate(target, pending)
            answered = pending
        for path in answered:
            try:
                if isinstance(path.reply, SingularEError):
                    path.request = path.steps.throw(path.reply)
                else:
                    path.request = path.steps.send(path.reply)
            except StopIteration as stop:
                optimized[path.index] = OptimizedPath(path.index, path.tally, path.theta0, stop.value)
            except NonFiniteError:  # raised for a refused initial point
                optimized[path.index] = OptimizedPath(path.index, path.tally, path.theta0, None)
        pending = [path for path in pending if optimized[path.index] is None]
    return finish_runs(target, optimized, opts, seed)


def run_multi(target, opts: MultipathOptions, seed: int) -> MultipathResult:
    """Run ``opts.num_paths`` independent paths in lockstep, pool, smooth, and resample.

    Each path derives its own substreams from the master seed, so the output
    is a function of (target, opts, seed).  Raises AllPathsFailedError when
    no path succeeds.
    """
    runs = _run_lockstep(target, opts.single, seed, opts.num_paths)

    if all(run.failed for run in runs):
        raise AllPathsFailedError(f"all {opts.num_paths} paths failed")

    pooled, pool_n_logp = pool_runs(runs, target)
    log_w_smoothed, k_hat = psis_smooth(pooled.log_w_raw)
    pooled.log_w_smoothed = log_w_smoothed
    pooled.k_hat = k_hat

    rng = substream(seed, 0, STREAM_RESAMPLE)
    picks = resample(pooled.draws, pooled.log_w_smoothed, opts.num_resample, rng)

    return MultipathResult(
        draws=pooled.draws[picks],
        indices=picks,
        pooled=pooled,
        runs=runs,
        n_logp=sum(r.n_logp for r in runs) + pool_n_logp,
        n_grad=sum(r.n_grad for r in runs),
        pool_n_logp=pool_n_logp,
    )
