"""Diagonal inverse-Hessian recovery and compact covariance factors.

Walks an optimization trajectory once to rebuild, for every iteration, the
per-coordinate diagonal seed of the inverse Hessian estimate together with
indicators of which position/gradient update pairs are usable.  The compact
factors beta and gamma of the low-rank-plus-diagonal covariance

    Sigma = diag(alpha) + beta @ gamma @ beta.T

are then assembled for any iteration from the windowed pairs.  Factors are
computed for stacks of iterations that share a pair count at once; the
per-iteration functions are the stack-of-one case.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import SingularEError
from .lbfgs import Trajectory

# Pair acceptance threshold: s'z must exceed ALPHA_PAIR_EPS * ||z||^2, i.e.
# the gradient change may not be more than 1e12 times the position change
# along z.  This is deliberately stricter than the optimizer's own history
# gate and keeps the diagonal update well posed.
ALPHA_PAIR_EPS = 1e-12


def select_rows(stacked, index):
    """Index every field of a dataclass along its leading (stack) axis.

    ``index`` may be an integer (one unstacked instance), a mask or index
    array (a smaller stack), or None (a stack of one from an unstacked
    instance).
    """
    return type(stacked)(**{
        f.name: np.asarray(getattr(stacked, f.name))[index]
        for f in dataclasses.fields(stacked)
    })


@dataclass
class AlphaRecovery:
    """Per-iteration diagonal seeds and pair bookkeeping for a trajectory.

    All four arrays have one entry per optimization step: ``alphas[l]`` is the
    strictly positive diagonal in effect after step l+1, ``xis[l]`` flags
    whether that step's (s, z) pair was accepted, and rejected steps carry the
    previous alpha forward unchanged.
    """

    alphas: np.ndarray   # (L, N)
    xis: np.ndarray      # (L,) of {0, 1}
    s_list: np.ndarray   # (L, N) position updates
    z_list: np.ndarray   # (L, N) updates of the negative-log-density gradient

    @property
    def num_iters(self) -> int:
        return len(self.xis)


@dataclass
class CompactFactors:
    """Windowed pair matrices and the derived low-rank factors at one iteration.

    ``S`` and ``Z`` hold the most recent accepted pairs (latest in the last
    column), ``E`` is the upper-triangular matrix of S_i'Z_j products with
    strictly positive diagonal ``eta``, and ``beta``/``gamma`` give
    Sigma = diag(alpha) + beta gamma beta'.  Empty factors (rank 0) encode a
    purely diagonal covariance.  A stack of B iterations with a common pair
    count carries a leading axis of length B on every field.
    """

    S: np.ndarray        # (N, J')
    Z: np.ndarray        # (N, J')
    E: np.ndarray        # (J', J') upper triangular
    eta: np.ndarray      # (J',)
    beta: np.ndarray     # (N, 2J')
    gamma: np.ndarray    # (2J', 2J')
    alpha: np.ndarray    # (N,)

    @property
    def num_pairs(self) -> int:
        return self.S.shape[-1]

    @property
    def rank(self) -> int:
        return 2 * self.S.shape[-1]


def alpha_recover(trajectory: Trajectory) -> AlphaRecovery:
    """Recover per-coordinate diagonal inverse-Hessian seeds along a trajectory.

    The seed starts at the all-ones vector.  For each accepted pair the
    diagonal is refreshed coordinate-wise from the quadratic forms
    a = z'diag(alpha)z, b = z's, c = s'diag(alpha)^-1 s; pairs failing the
    curvature condition, or whose update would drive any component of alpha
    non-positive, are rejected and leave alpha untouched.  The history window
    is applied later, at factor-assembly time.
    """
    thetas = trajectory.thetas
    grads = trajectory.grads
    L = trajectory.num_iters
    N = thetas.shape[1]

    alphas = np.empty((L, N))
    xis = np.zeros(L, dtype=int)
    s_list = thetas[1:] - thetas[:-1]
    z_list = grads[:-1] - grads[1:]

    alpha = np.ones(N)
    for l in range(L):
        s = s_list[l]
        z = z_list[l]
        b = float(s @ z)
        if b > ALPHA_PAIR_EPS * float(z @ z):
            a = float(z @ (alpha * z))
            c = float(s @ (s / alpha))
            inv = a / (b * alpha) + (z * z) / b - (a * s * s) / (b * c * alpha * alpha)
            with np.errstate(divide="ignore", invalid="ignore"):
                candidate = 1.0 / inv
            if np.all(np.isfinite(candidate)) and np.all(candidate > 0.0):
                alpha = candidate
                xis[l] = 1
        alphas[l] = alpha
    return AlphaRecovery(alphas, xis, s_list, z_list)


def pair_counts(recovery: AlphaRecovery, history_size: int) -> np.ndarray:
    """Number of windowed pairs J' for each iteration 1..L, in order.

    J' counts the accepted pairs up to the iteration, capped at
    ``history_size`` and at N // 2 so the low-rank dimension 2J' never
    exceeds N (needed by the thin-QR step downstream).  It never decreases
    along the trajectory.
    """
    N = recovery.alphas.shape[1]
    return np.minimum(np.cumsum(recovery.xis), min(history_size, N // 2))


def window(recovery: AlphaRecovery, iters, num_pairs: int):
    """Stacked pair matrices and seeds for iterations ``iters`` (1-based).

    Every iteration must have ``num_pairs`` windowed pairs (see
    ``pair_counts``): the most recent accepted pairs up to it, oldest first.
    Returns S and Z of shape (B, N, J') and alpha of shape (B, N).
    """
    iters = np.asarray(iters, dtype=int)
    accepted = np.flatnonzero(recovery.xis == 1)
    seen = np.cumsum(recovery.xis)[iters - 1]
    keep = accepted[seen[:, None] - num_pairs + np.arange(num_pairs)]    # (B, J')
    S = recovery.s_list[keep].transpose(0, 2, 1)
    Z = recovery.z_list[keep].transpose(0, 2, 1)
    return S, Z, recovery.alphas[iters - 1]


def stacked_factors(S, Z, alpha):
    """Compact factors for a stack of (B, N, J') pair matrices and (B, N) seeds.

    Returns the stacked CompactFactors and a (B,) mask of rows whose E has a
    strictly positive diagonal.  Rows outside the mask carry placeholder
    beta/gamma and must not be used.
    """
    B, N, J = S.shape
    if J == 0:
        return CompactFactors(
            S=S, Z=Z, E=np.zeros((B, 0, 0)), eta=np.zeros((B, 0)),
            beta=np.zeros((B, N, 0)), gamma=np.zeros((B, 0, 0)), alpha=alpha,
        ), np.ones(B, dtype=bool)

    E = np.triu(S.transpose(0, 2, 1) @ Z)
    eta = np.diagonal(E, axis1=1, axis2=2).copy()
    ok = np.all(eta > 0.0, axis=1)
    eye = np.eye(J)
    einv = solve_triangular(np.where(ok[:, None, None], E, eye), eye, lower=False)
    einv_t = einv.transpose(0, 2, 1)

    alpha_z = alpha[:, :, None] * Z
    beta = np.concatenate([alpha_z, S], axis=2)
    inner = Z.transpose(0, 2, 1) @ alpha_z
    inner[:, np.arange(J), np.arange(J)] += eta
    bottom_right = einv_t @ inner @ einv
    bottom_right = 0.5 * (bottom_right + bottom_right.transpose(0, 2, 1))
    gamma = np.zeros((B, 2 * J, 2 * J))
    gamma[:, :J, J:] = -einv
    gamma[:, J:, :J] = -einv_t
    gamma[:, J:, J:] = bottom_right
    factors = CompactFactors(S=S, Z=Z, E=E, eta=eta, beta=beta, gamma=gamma, alpha=alpha)
    return factors, ok


def factors_from_pairs(S, Z, alpha) -> CompactFactors:
    """Build E, eta, beta, gamma for given (N, J') pair matrices and diagonal seed."""
    S = np.asarray(S, dtype=float)
    Z = np.asarray(Z, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if S.ndim != 2:
        S = Z = np.zeros((alpha.size, 0))
    factors, ok = stacked_factors(S[None], Z[None], alpha[None])
    if not ok[0]:
        raise SingularEError("accepted pairs must have positive s'z on the diagonal")
    return select_rows(factors, 0)


def assemble_factors(recovery: AlphaRecovery, l: int, history_size: int) -> CompactFactors:
    """Compact factors for iteration ``l`` (1-based) of a recovered trajectory.

    Takes the last at-most-``history_size`` accepted pairs up to iteration l,
    additionally dropping the oldest pairs so the low-rank dimension 2J' never
    exceeds N (needed by the thin-QR step downstream).
    """
    if not 1 <= l <= recovery.num_iters:
        raise IndexError(f"iteration {l} outside 1..{recovery.num_iters}")
    num_pairs = int(pair_counts(recovery, history_size)[l - 1])
    S, Z, alpha = window(recovery, [l], num_pairs)
    return factors_from_pairs(S[0], Z[0], alpha[0])
