"""Factored normal approximations: build, sample, and evaluate in O(NJ) per draw.

The covariance Sigma = diag(alpha) + beta gamma beta' is handled through a
thin QR factorization of diag(alpha)^(-1/2) beta and a small Cholesky factor,
giving Sigma = T T' with T = diag(alpha^(1/2)) [Q Ltilde  P].  The orthogonal
complement P is never materialized: draws use the identity
Q (Ltilde - I) (Q'u) + u and log densities use
||P'w||^2 = ||w||^2 - ||Q'w||^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import CholeskyFailError
from .inv_hessian import CompactFactors, select_rows
from .targets import LOG_2PI

# One re-orthogonalization pass is applied if the thin QR loses orthonormality
# beyond this bound (possible for ill-conditioned beta).
QR_ORTHO_TOL = 1e-8


@dataclass
class FactoredNormal:
    """Normal approximation N(mu, Sigma) in factored form.

    ``qmat`` has orthonormal columns, ``lt`` is the lower-triangular Cholesky
    factor of the small inner matrix, and ``logdet`` is the log determinant of
    Sigma.  ``rank == 0`` encodes a purely diagonal covariance.  A stack of B
    approximations with a common rank carries a leading axis of length B on
    every field.
    """

    mu: np.ndarray        # (N,)
    alpha: np.ndarray     # (N,) strictly positive diagonal
    qmat: np.ndarray      # (N, 2J')
    lt: np.ndarray        # (2J', 2J') lower triangular
    logdet: float

    @property
    def dim(self) -> int:
        return self.mu.shape[-1]

    @property
    def rank(self) -> int:
        return self.qmat.shape[-1]


@dataclass
class DrawBatch:
    """Draws from a FactoredNormal with their log densities under it."""

    draws: np.ndarray        # (M, N)
    logq: np.ndarray         # (M,)
    u_norms_sq: np.ndarray   # (M,) squared norms of the standard-normal inputs


def build_many(factors: CompactFactors, thetas, grads):
    """Construct the approximations at a stack of B trajectory points at once.

    ``factors`` is a stack of B compact factors with a common pair count, and
    ``thetas`` and ``grads`` are the (B, N) trajectory positions and their
    log-density gradients; each mean takes one quasi-Newton step from its
    point.  Returns the stacked FactoredNormal and a (B,) mask of rows whose
    inner matrix is positive definite; rows outside the mask carry an
    identity placeholder for ``lt`` and must not be used.
    """
    alpha = factors.alpha
    B, N = alpha.shape
    logdet_diag = np.sum(np.log(alpha), axis=1)
    base_mu = thetas + alpha * grads
    if factors.num_pairs == 0:
        approx = FactoredNormal(
            mu=base_mu, alpha=alpha, qmat=np.zeros((B, N, 0)),
            lt=np.zeros((B, 0, 0)), logdet=logdet_diag,
        )
        return approx, np.ones(B, dtype=bool)

    beta = factors.beta
    gamma = factors.gamma
    rank = factors.rank
    eye = np.eye(rank)
    inv_sqrt_alpha = 1.0 / np.sqrt(alpha)
    qmat, rmat = np.linalg.qr(inv_sqrt_alpha[:, :, None] * beta, mode="reduced")
    ortho_err = np.abs(qmat.transpose(0, 2, 1) @ qmat - eye).max(axis=(1, 2))
    redo = ortho_err > QR_ORTHO_TOL
    if np.any(redo):
        q2, r2 = np.linalg.qr(qmat[redo], mode="reduced")
        qmat[redo] = q2
        rmat[redo] = r2 @ rmat[redo]

    inner = eye + rmat @ gamma @ rmat.transpose(0, 2, 1)
    inner = 0.5 * (inner + inner.transpose(0, 2, 1))
    ok = np.ones(B, dtype=bool)
    try:
        lt = np.linalg.cholesky(inner)
    except np.linalg.LinAlgError:
        # One failing row spoils the stacked call; factor this stack row by row.
        lt = np.broadcast_to(eye, inner.shape).copy()
        for b in range(B):
            try:
                lt[b] = np.linalg.cholesky(inner[b:b + 1])[0]
            except np.linalg.LinAlgError:
                ok[b] = False

    diag_lt = np.diagonal(lt, axis1=1, axis2=2)
    logdet = logdet_diag + 2.0 * np.sum(np.log(diag_lt), axis=1)
    gbeta = gamma @ (beta.transpose(0, 2, 1) @ grads[:, :, None])
    mu = base_mu + (beta @ gbeta)[:, :, 0]
    return FactoredNormal(mu=mu, alpha=alpha, qmat=qmat, lt=lt, logdet=logdet), ok


def build(factors: CompactFactors, theta, grad) -> FactoredNormal:
    """Construct the approximation located at a trajectory point.

    ``theta`` and ``grad`` are the trajectory position and its log-density
    gradient; the mean takes one quasi-Newton step from there.  Raises
    CholeskyFailError when the inner matrix is not positive definite, which
    callers treat as a failed candidate rather than a fatal error.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.asarray(grad, dtype=float)
    approx, ok = build_many(select_rows(factors, None), theta[None], grad[None])
    if not ok[0]:
        raise CholeskyFailError("inner matrix not positive definite")
    return select_rows(approx, 0)


def transform(approx: FactoredNormal, u) -> DrawBatch:
    """Map (B, M, N) standard-normal inputs through a stack of B approximations.

    The log density of each draw follows directly from the squared norm of
    its standard-normal input, so no solve is needed here.
    """
    n = u.shape[2]
    flat = u.reshape(-1, n)
    u_norms_sq = np.einsum("ij,ij->i", flat, flat).reshape(u.shape[:2])
    if approx.rank > 0:
        qtu = u @ approx.qmat                        # (B, M, 2J')
        lt_minus_eye = approx.lt - np.eye(approx.rank)
        x = u + (qtu @ lt_minus_eye.transpose(0, 2, 1)) @ approx.qmat.transpose(0, 2, 1)
    else:
        x = u
    draws = approx.mu[:, None, :] + np.sqrt(approx.alpha)[:, None, :] * x
    logq = -0.5 * (approx.logdet[:, None] + u_norms_sq + n * LOG_2PI)
    return DrawBatch(draws=draws, logq=logq, u_norms_sq=u_norms_sq)


def sample(approx: FactoredNormal, num_draws: int, rng: np.random.Generator) -> DrawBatch:
    """Draw ``num_draws`` samples, one fresh standard-normal N-vector each."""
    if num_draws < 1:
        raise ValueError("num_draws must be >= 1")
    u = rng.standard_normal((num_draws, approx.dim))
    return select_rows(transform(select_rows(approx, None), u[None]), 0)


def eval_logq(approx: FactoredNormal, x) -> float:
    """Exact log density of ``x`` under the approximation, in O(NJ + J^2)."""
    x = np.asarray(x, dtype=float)
    w = (x - approx.mu) / np.sqrt(approx.alpha)
    if approx.rank > 0:
        qtw = approx.qmat.T @ w
        v = solve_triangular(approx.lt, qtw, lower=True)
        mahal = float(v @ v) + float(w @ w) - float(qtw @ qtw)
    else:
        mahal = float(w @ w)
    return -0.5 * (approx.logdet + mahal + approx.dim * LOG_2PI)
