"""Multi-path Pathfinder: lockstep paths, pooled by Pareto-smoothed importance resampling.

The paths are independent, so ``single_path.run_paths``, the runner single
mode calls with one path, cuts them into one shard per usable core, forks a
process for each shard but the first (Linux only), and advances each
shard's optimizers together in one ``lbfgs.lockstep``: each round computes
the directions its paths ask for as one stack per pair count, and makes at
most two batched target calls, one for line-search trials (log density
only) and one for the points that need a gradient.  Then the shard's
candidates are scored in cross-path blocks, RECOVER_CHUNK steps at a time
(a lone path's, given a spare core, in a forked child while it optimizes).
The finished paths are pooled under an equally-weighted mixture proposal in
which every draw is scored against its own component density (the 1/I
mixture factors cancel between proposal and augmented target, so the raw
log weight of a draw is simply log p - log q of its component).  The
largest weights are smoothed by a generalized Pareto fit before resampling.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AllPathsFailedError, NoFiniteWeightsError
from .options import POSITIVE_INT, check_settings, setting
from .seeding import STREAM_RESAMPLE, substream
from .single_path import PathfinderOptions, run_paths
# run_single is not called here; it stays importable from this module, where
# the benchmark's tracer (bench/layers.py) looks for it.
from .single_path import run_single  # noqa: F401
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


def run_multi(target, opts: MultipathOptions, seed: int) -> MultipathResult:
    """Run ``opts.num_paths`` paths in a lockstep shard per core, pool, smooth, and resample.

    Each path derives its own substreams from the master seed, so the output
    is a function of (target, opts, seed) and, where BLOCK_FLOATS says, of
    the shard count.  Raises AllPathsFailedError when no path succeeds.
    """
    runs = run_paths(target, opts.single, seed, range(opts.num_paths))

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
