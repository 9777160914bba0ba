"""Exact discrete 1-Wasserstein distance between small empirical samples.

Both samples carry uniform weights over their rows.  Samples of sizes m and k
are expanded to lcm(m, k) equally weighted atoms each, which leaves the
optimal-transport cost unchanged, and the cost is then one optimal assignment
under the Euclidean ground metric, solved in numpy.  The result is exact,
suitable as a ground-truth metric in tests.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, SizeLimitError

# Cap on the expanded atom count lcm(m, k): the solver is cubic in it and
# meant for desk-scale sample sizes.
MAX_POINTS = 512


def _as_sample(points, label: str) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[0] < 1:
        raise DimensionMismatchError(f"{label}: expected a non-empty (m, N) array")
    if not np.all(np.isfinite(points)):
        raise DimensionMismatchError(f"{label}: points must be finite")
    return points


def _assignment_cost(cost: np.ndarray) -> float:
    """Least total cost of a one-to-one assignment of the rows of square ``cost`` to its columns.

    Shortest augmenting paths with row and column potentials (Jonker &
    Volgenant 1987); the potentials are updated once per augmentation, after a
    Dijkstra search over reduced costs (Crouse 2016).
    """
    n = cost.shape[0]
    u, v = np.zeros(n), np.zeros(n)
    row4col, col4row = np.full(n, -1), np.full(n, -1)
    for cur in range(n):
        dist = np.full(n, np.inf)  # shortest reduced path cost to each column
        path = np.full(n, -1)  # the row before each column on its shortest path
        scanned = np.zeros(n, dtype=bool)
        rows, i, low = [], cur, 0.0
        while True:
            reduced = low + cost[i] - u[i] - v
            better = (reduced < dist) & ~scanned
            dist[better], path[better] = reduced[better], i
            j = int(np.argmin(np.where(scanned, np.inf, dist)))
            low, scanned[j] = dist[j], True
            if row4col[j] < 0:
                break
            i = row4col[j]
            rows.append(i)
        u[cur] += low
        u[rows] += low - dist[col4row[rows]]
        v[scanned] -= low - dist[scanned]
        while True:  # flip the path back from the free column j to row cur
            i = path[j]
            row4col[j], col4row[i], j = i, j, col4row[i]
            if i == cur:
                break
    return float(cost[np.arange(n), col4row].sum())


def wasserstein1(sample_a, sample_b) -> float:
    """Exact 1-Wasserstein distance between two uniform empirical samples."""
    a = _as_sample(sample_a, "sample_a")
    b = _as_sample(sample_b, "sample_b")
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    m, k = a.shape[0], b.shape[0]
    n = math.lcm(m, k)
    if n > MAX_POINTS:
        raise SizeLimitError(
            f"{m} and {k} points expand to {n} atoms, over the {MAX_POINTS}-atom limit"
        )
    cost = np.empty((m, k))
    with np.errstate(over="ignore"):
        for r in range(m):
            cost[r] = np.linalg.norm(b - a[r], axis=1)
    if not np.all(np.isfinite(cost)):
        raise DimensionMismatchError("distances between the samples overflow")
    cost = np.repeat(np.repeat(cost, n // m, axis=0), n // k, axis=1)
    return _assignment_cost(cost) / n
