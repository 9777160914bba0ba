"""Exact discrete 1-Wasserstein distance between small empirical samples.

Both samples carry uniform weights over their rows.  Equal-size inputs reduce
to an optimal assignment; unequal sizes solve the full transportation linear
program.  Either way the result is the exact optimal-transport cost under the
Euclidean ground metric, suitable as a ground-truth metric in tests.
scipy is imported inside the solvers, so importing the package loads numpy alone.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, SizeLimitError

# Guard against accidentally quadratic cost matrices; the exact solvers are
# meant for desk-scale sample sizes.
MAX_POINTS = 512


def _as_sample(points, label: str) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[0] < 1:
        raise DimensionMismatchError(f"{label}: expected a non-empty (m, N) array")
    if points.shape[0] > MAX_POINTS:
        raise SizeLimitError(
            f"{label}: {points.shape[0]} points exceeds the {MAX_POINTS}-point limit"
        )
    if not np.all(np.isfinite(points)):
        raise DimensionMismatchError(f"{label}: points must be finite")
    return points


def _transport_lp(cost: np.ndarray) -> float:
    """Exact transportation LP with uniform marginals via HiGHS."""
    from scipy import sparse
    from scipy.optimize import linprog
    m, k = cost.shape
    row_idx = []
    col_idx = []
    for i in range(m):
        row_idx.extend([i] * k)
        col_idx.extend(range(i * k, (i + 1) * k))
    for j in range(k):
        row_idx.extend([m + j] * m)
        col_idx.extend(range(j, m * k, k))
    a_eq = sparse.csr_matrix(
        (np.ones(2 * m * k), (row_idx, col_idx)), shape=(m + k, m * k)
    )
    b_eq = np.concatenate([np.full(m, 1.0 / m), np.full(k, 1.0 / k)])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def wasserstein1(sample_a, sample_b) -> float:
    """Exact 1-Wasserstein distance between two uniform empirical samples."""
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist
    a = _as_sample(sample_a, "sample_a")
    b = _as_sample(sample_b, "sample_b")
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    cost = cdist(a, b)
    if a.shape[0] == b.shape[0]:
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].sum() / a.shape[0])
    return _transport_lp(cost)
