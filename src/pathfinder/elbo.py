"""Monte Carlo evidence lower bound for a candidate approximation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError


@dataclass
class ElboEstimate:
    """Sample ELBO: mean of log p - log q over the draws.

    ``value`` is -inf whenever any per-draw term is non-finite, which
    disqualifies the candidate without raising.  For a stack of estimates
    ``value`` holds one per row and ``per_draw`` the terms of each row.
    """

    value: float | np.ndarray
    per_draw: np.ndarray

    @property
    def num_draws(self) -> int:
        return self.per_draw.shape[-1]


def elbo_estimate(logp_vals, logq_vals) -> ElboEstimate:
    """ELBO from paired target and approximation log densities.

    Takes two (M,) vectors, giving a float ``value``, or two (..., M) stacks,
    giving one value per row; each row's value equals that of a call on the
    row alone, bit for bit.
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
    return ElboEstimate(value=float(value) if value.ndim == 0 else value, per_draw=per_draw)
