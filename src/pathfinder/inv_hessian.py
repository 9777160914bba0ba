"""The one home of the compact inverse-Hessian form, and its diagonal recovery.

``stacked_factors`` builds the Byrd-Nocedal-Schnabel (1994) factors of

    Sigma = diag(alpha) + beta @ gamma @ beta.T

and ``low_rank_product`` applies beta gamma beta'.  The optimizer's direction,
each approximation's mean and its covariance factors all come from these.
``recover_chunk`` steps through all paths' trajectories together, one chunk
of steps at a time, rebuilding every iteration's diagonal seed and which
update pairs are usable.  Factors are computed for stacks of iterations
sharing a pair count; per-iteration and per-path functions are the
stack-of-one case.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .errors import SingularEError

# Pair acceptance threshold: s'z must exceed ALPHA_PAIR_EPS * ||z||^2, i.e.
# the gradient change may not be more than 1e12 times the position change
# along z.  This is deliberately stricter than the optimizer's own history
# gate and keeps the diagonal update well posed.
ALPHA_PAIR_EPS = 1e-12

# Steps whose pairs recover_chunk forms at once, and so the steps whose
# candidates single_path scores at once: the pairs of all steps at once
# would raise peak memory on long paths.
RECOVER_CHUNK = 64


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

    ``alphas`` and ``xis`` have one entry per optimization step: ``alphas[l]``
    is the strictly positive diagonal in effect after step l+1, ``xis[l]``
    flags whether that step's (s, z) pair was accepted, and rejected steps
    carry the previous alpha forward unchanged.  The trajectory's own
    ``thetas`` and ``grads`` are kept, not copied, and each step's pair is
    formed from them where it is used; while ``recover_chunk`` advances,
    they may hold rows past the steps recovered so far.
    """

    alphas: np.ndarray   # (L, N)
    xis: np.ndarray      # (L,) of {0, 1}
    thetas: np.ndarray   # (L+1, N) trajectory positions, or more
    grads: np.ndarray    # (L+1, N) trajectory log-density gradients, or more

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


def _rowdot(a, b):
    """Products of matching rows of stacked vectors, each with the bits of ``a[i] @ b[i]``."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def recover_chunk(recoveries) -> list:
    """Extend every path's diagonal recovery by its next RECOVER_CHUNK steps, in place.

    ``recoveries[p]`` holds path p's trajectory so far and its seeds and flags
    up to step lo, the same for every path with steps left.  A seed starts at
    all ones and is refreshed coordinate-wise from a = z'diag(alpha)z, b = z's,
    c = s'diag(alpha)^-1 s; pairs failing the curvature condition, or whose
    update would make alpha non-positive, leave it untouched.  Each row
    product is a stacked matmul with the bits of the path's own ``s @ z``, so
    no path's recovery depends on its stack or chunks.  Returns each path's
    number of new steps; the history window is applied at factor assembly.
    """
    lo = max(rec.num_iters for rec in recoveries)
    counts = [min(max(len(rec.thetas) - 1 - lo, 0), RECOVER_CHUNK) for rec in recoveries]
    alpha = np.array([rec.alphas[-1] if rec.num_iters else np.ones(rec.alphas.shape[1])
                      for rec in recoveries])
    S, Z, A = np.zeros((3, len(recoveries), max(counts), alpha.shape[1]))
    taken = np.zeros(S.shape[:2], dtype=bool)
    for p, (rec, n) in enumerate(zip(recoveries, counts)):
        S[p, :n] = rec.thetas[lo + 1:lo + n + 1] - rec.thetas[lo:lo + n]
        Z[p, :n] = rec.grads[lo:lo + n] - rec.grads[lo + 1:lo + n + 1]
    b_all = _rowdot(S, Z)
    gate = b_all > ALPHA_PAIR_EPS * _rowdot(Z, Z)   # zero padding never passes
    # Every row computes an update (refused rows may divide by zero); taken rows keep it.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for j in range(S.shape[1]):
            s, z, b = S[:, j], Z[:, j], b_all[:, j, None]
            a = _rowdot(z, alpha * z)[:, None]
            c = _rowdot(s, s / alpha)[:, None]
            candidate = 1.0 / (a / (b * alpha) + (z * z) / b
                               - (a * s * s) / (b * c * alpha * alpha))
            take = gate[:, j] & np.isfinite(candidate).all(1) & (candidate > 0.0).all(1)
            alpha = candidate if take.all() else np.where(take[:, None], candidate, alpha)
            taken[:, j] = take
            A[:, j] = alpha
    for rec, chunk_alphas, chunk_taken, n in zip(recoveries, A, taken, counts):
        rec.alphas = np.concatenate([rec.alphas, chunk_alphas[:n]])
        rec.xis = np.concatenate([rec.xis, chunk_taken[:n]])
    return counts


def stacked_alpha_recover(trajectories) -> list:
    """Recover per-coordinate diagonal inverse-Hessian seeds along ``lbfgs.Trajectory``s,
    one ``recover_chunk`` of all paths at a time."""
    recoveries = [AlphaRecovery(np.empty((0, t.thetas.shape[1])), np.zeros(0, dtype=int),
                                t.thetas, t.grads) for t in trajectories]
    while recoveries and any(recover_chunk(recoveries)):
        pass
    return recoveries


def alpha_recover(trajectory) -> AlphaRecovery:
    """``stacked_alpha_recover`` of one trajectory."""
    return stacked_alpha_recover([trajectory])[0]


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
    thetas, grads = recovery.thetas, recovery.grads
    S = (thetas[keep + 1] - thetas[keep]).transpose(0, 2, 1)
    Z = (grads[keep] - grads[keep + 1]).transpose(0, 2, 1)
    return S, Z, recovery.alphas[iters - 1]


@functools.cache
def _upper_triangle(J: int) -> np.ndarray:
    """The shared, read-only (J, J) upper-triangle mask; ``np.triu`` builds one per call."""
    mask = np.triu(np.ones((J, J), dtype=bool))
    mask.flags.writeable = False
    return mask


def stacked_factors(S, Z, alpha):
    """Compact factors for a stack of (B, N, J') pair matrices and (B, N) seeds.

    Returns the stacked CompactFactors and a (B,) mask of rows whose E is
    finite with a strictly positive diagonal.  Rows outside the mask carry
    placeholder beta/gamma and must not be used.
    """
    B, N, J = S.shape
    with np.errstate(over="ignore", invalid="ignore"):  # spoils masked-out rows only
        E = np.where(_upper_triangle(J), S.transpose(0, 2, 1) @ Z, 0.0)
        eta = E.diagonal(0, 1, 2).copy()
        ok = (eta > 0.0).all(1) & np.isfinite(E).all((1, 2))
        # An upper-triangular E with a positive diagonal needs no pivoting,
        # so the stacked LU inverse is exact triangular back substitution.
        einv = np.linalg.inv(E if ok.all() else np.where(ok[:, None, None], E, np.eye(J)))
        einv_t = einv.transpose(0, 2, 1)

        alpha_z = alpha[:, :, None] * Z
        beta = np.concatenate([alpha_z, S], axis=2)
        inner = Z.transpose(0, 2, 1) @ alpha_z
        inner.reshape(B, J * J)[:, ::J + 1] += eta   # the diagonals; a view, as inner is contiguous
        bottom_right = einv_t @ inner @ einv
        bottom_right = 0.5 * (bottom_right + bottom_right.transpose(0, 2, 1))
    gamma = np.zeros((B, 2 * J, 2 * J))
    gamma[:, :J, J:] = minus_einv = -einv
    gamma[:, J:, :J] = minus_einv.transpose(0, 2, 1)
    gamma[:, J:, J:] = bottom_right
    factors = CompactFactors(S=S, Z=Z, E=E, eta=eta, beta=beta, gamma=gamma, alpha=alpha)
    return factors, ok


def factors_from_pairs(S, Z, alpha) -> CompactFactors:
    """Compact factors for (N, J') pair matrices and a diagonal seed: a stack of one.

    ``S`` may be None for no pairs.  Raises SingularEError when E is not
    finite or has a non-positive diagonal.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.ndim(S) != 2:
        S = Z = np.zeros((alpha.size, 0))
    factors, ok = stacked_factors(
        np.asarray(S, dtype=float)[None], np.asarray(Z, dtype=float)[None], alpha[None])
    if not ok[0]:
        raise SingularEError("pair matrix E must be finite with a positive s'z diagonal")
    return select_rows(factors, 0)


def low_rank_product(factors: CompactFactors, v) -> np.ndarray:
    """beta gamma beta' v, so Sigma v = factors.alpha * v + this, in O(N J').

    Takes one set of factors and an (N,) ``v``, or a stack of B and (B, N).
    """
    beta = factors.beta
    gbv = factors.gamma @ (beta.swapaxes(-1, -2) @ v[..., None])
    return (beta @ gbv)[..., 0]


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
