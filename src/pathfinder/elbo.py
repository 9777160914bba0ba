"""Monte Carlo evidence lower bound of candidate approximations, one value per stack row."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError


def elbo_estimate(logp_vals, logq_vals) -> np.ndarray:
    """Sample ELBO, the mean of log p - log q over the draws, from paired log densities.

    Takes two (M,) vectors, giving a 0-d array, or two (..., M) stacks,
    giving one value per row; each row's value equals that of a call on the
    row alone, bit for bit.  A value is -inf whenever any of its per-draw
    terms is non-finite, which disqualifies the candidate without raising.
    """
    logp_vals = np.asarray(logp_vals, dtype=float)
    logq_vals = np.asarray(logq_vals, dtype=float)
    if logp_vals.shape != logq_vals.shape or logp_vals.ndim < 1 or logp_vals.shape[-1] < 1:
        raise DimensionMismatchError(
            f"need equal-shaped arrays of at least one draw, "
            f"got {logp_vals.shape} and {logq_vals.shape}"
        )
    with np.errstate(invalid="ignore"):
        per_draw = logp_vals - logq_vals
    finite = np.isfinite(per_draw).all(axis=-1)
    value = np.full(finite.shape, -np.inf)
    value[finite] = np.mean(per_draw[finite], axis=-1)
    return value
