"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force: dense matrices, explicit
recursions, and quadratic-cost formulas that the production code must agree
with on small instances.
"""

import numpy as np

from pathfinder.targets import LogDensityTarget


class PointTarget(LogDensityTarget):
    """A target written one point at a time: ``_density`` loops over the batch's
    rows, taking each row's ``(logp, grad)`` from ``_logp_grad_point(theta)``."""

    def _density(self, points, need_grad):
        logp = np.empty(points.shape[0])
        grad = np.empty_like(points)
        for i, row in enumerate(points):
            logp[i], grad[i] = self._logp_grad_point(row)
        return logp, grad


def fd_gradient(target, theta, step_scale=1e-6):
    """Central finite differences with per-coordinate steps 1e-6 * (1 + |x_n|)."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for n in range(theta.size):
        h = step_scale * (1.0 + abs(theta[n]))
        plus = theta.copy()
        plus[n] += h
        minus = theta.copy()
        minus[n] -= h
        grad[n] = (target.logp(plus) - target.logp(minus)) / (2.0 * h)
    return grad


def dense_gamma(S, Z, alpha):
    """Form the middle matrix of the compact representation with explicit inverses."""
    J = S.shape[1]
    E = np.triu(S.T @ Z)
    eta = np.diag(E)
    einv = np.linalg.inv(E)
    gamma = np.zeros((2 * J, 2 * J))
    gamma[:J, J:] = -einv
    gamma[J:, :J] = -einv.T
    gamma[J:, J:] = einv.T @ (np.diag(eta) + Z.T @ np.diag(alpha) @ Z) @ einv
    return gamma


def dense_sigma(S, Z, alpha):
    """diag(alpha) + beta gamma beta' formed as explicit dense matrices."""
    alpha = np.asarray(alpha, dtype=float)
    if S is None or S.shape[1] == 0:
        return np.diag(alpha)
    beta = np.concatenate([np.diag(alpha) @ Z, S], axis=1)
    return np.diag(alpha) + beta @ dense_gamma(S, Z, alpha) @ beta.T


def bfgs_recursive_sigma(alpha, pairs):
    """Inverse Hessian from the textbook recursive update, seeded at diag(alpha).

    For each stored pair (s, z) in order:
        H <- (I - s z' / (z's)) H (I - z s' / (z's)) + s s' / (z's)
    This is the independent recursion the compact representation must match.
    """
    H = np.diag(np.asarray(alpha, dtype=float))
    n = H.shape[0]
    for s, z in pairs:
        rho = 1.0 / float(z @ s)
        V = np.eye(n) - rho * np.outer(s, z)
        H = V @ H @ V.T + rho * np.outer(s, s)
    return H


def alpha_recover_loop(thetas, grads, pair_eps=1e-12):
    """Diagonal seeds along one trajectory, recovered one step at a time.

    The per-path loop the stacked recovery replaced, kept as its reference.
    Returns (alphas (L, N), xis (L,)); ``pair_eps`` is the curvature gate.
    """
    L, N = len(thetas) - 1, thetas.shape[1]
    alphas, xis = np.empty((L, N)), np.zeros(L, dtype=int)
    alpha = np.ones(N)
    for l in range(L):
        s, z = thetas[l + 1] - thetas[l], grads[l] - grads[l + 1]
        b = float(s @ z)
        if b > pair_eps * float(z @ z):
            a = float(z @ (alpha * z))
            c = float(s @ (s / alpha))
            inv = a / (b * alpha) + (z * z) / b - (a * s * s) / (b * c * alpha * alpha)
            with np.errstate(divide="ignore", invalid="ignore"):
                candidate = 1.0 / inv
            if np.all(np.isfinite(candidate)) and np.all(candidate > 0.0):
                alpha = candidate
                xis[l] = 1
        alphas[l] = alpha
    return alphas, xis


def random_curvature_pairs(rng, n, count, min_cos=0.0):
    """Random pairs satisfying the curvature condition s'z > 1e-12 ||z||^2.

    ``min_cos`` additionally floors the angle between s and z; pairs produced
    by actual ascent steps have a healthy margin, and near-orthogonal pairs
    make every dense reference lose precision along with the code under test.
    """
    pairs = []
    while len(pairs) < count:
        s = rng.standard_normal(n)
        z = rng.standard_normal(n)
        cos = (s @ z) / (np.linalg.norm(s) * np.linalg.norm(z))
        if s @ z > 1e-12 * (z @ z) and cos > min_cos:
            pairs.append((s, z))
    S = np.stack([p[0] for p in pairs], axis=1)
    Z = np.stack([p[1] for p in pairs], axis=1)
    return S, Z


def dense_mvn_logpdf(x, mu, sigma):
    """Multivariate normal log density via dense decomposition."""
    diff = np.atleast_2d(x) - mu
    n = mu.size
    chol = np.linalg.cholesky(sigma)
    sol = np.linalg.solve(chol, diff.T)
    mahal = np.sum(sol * sol, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    out = -0.5 * (logdet + mahal + n * np.log(2 * np.pi))
    return out if np.ndim(x) == 2 else float(out[0])


def gpd_sample(rng, k, sigma, size):
    """Generalized Pareto draws via inverse-CDF of uniforms."""
    u = rng.random(size)
    if abs(k) < 1e-12:
        return -sigma * np.log1p(-u)
    return sigma * np.expm1(-k * np.log1p(-u)) / k


def select_argmax(elbo_trace):
    """1-based index of the largest finite ELBO, ties broken toward the smaller index.

    The winner a scored path must report; raises ValueError when no entry is finite.
    """
    trace = np.asarray(elbo_trace, dtype=float)
    finite = np.isfinite(trace)
    if not finite.any():
        raise ValueError("no candidate produced a finite ELBO")
    return int(np.argmax(np.where(finite, trace, -np.inf))) + 1
