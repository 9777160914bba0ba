"""Single-path Pathfinder: optimize, score candidate approximations, draw from the best.

One run optimizes the log density from a random initialization, rebuilds a
normal approximation at every trajectory point, scores each by Monte Carlo
ELBO, and returns draws from the ELBO-maximizing approximation.  Both modes
run paths through ``run_paths``, one contiguous shard per usable core, each
shard but the first in a forked process (Linux only).  A shard is one
``lbfgs.lockstep`` on the target itself, each path's counts read from its
stepper state, then ``finish_runs``: a ``_Scorer`` recovers the diagonal
seeds one chunk of RECOVER_CHUNK steps at a time and scores each chunk's
candidates in stacked blocks sharing a pair count, with one factorization,
seeding and target call per block.  ``run_single`` is one shard of one
path, one row per batched call; given a spare core, a forked ``_Scorer``
scores each chunk of its steps while the path optimizes on.

Runs never raise on pathological geometry: a run that cannot produce any
valid approximation returns its last trajectory point as a single draw
flagged with +inf approximation log density, which guarantees zero
importance weight downstream.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import sys
import threading
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import elbo, normal_approx
# The scoring pass calls elbo.elbo_estimate on whole blocks and recovers all
# paths in one call; elbo_estimate and alpha_recover stay importable here,
# where the benchmark's tracer (bench/layers.py) looks for them.
from .elbo import elbo_estimate  # noqa: F401
from .errors import AllFailedError, NonFiniteError
from .inv_hessian import alpha_recover  # noqa: F401
from .inv_hessian import (
    RECOVER_CHUNK, AlphaRecovery, assemble_factors, pair_counts, recover_chunk, select_rows,
    stacked_factors, window,
)
from .lbfgs import LbfgsOptions, Termination, Trajectory, lockstep, optimize_steps
# run_paths drives lbfgs.lockstep itself; optimize, the lockstep of one
# stepper, stays importable here for the benchmark's tracer.
from .lbfgs import optimize  # noqa: F401
from .options import POSITIVE, POSITIVE_INT, check_settings, setting
from .seeding import STREAM_CANDIDATE, STREAM_FINAL, STREAM_INIT, substream, substreams

# Floats in one stacked (B, N, 2J') array of a scoring block, which holds
# the candidates of a shard's paths that share a pair count.  Blocks bound
# memory; they change no result where logp_many rows do not depend on the
# batch, which holds for every target but logistic regression, whose rows
# are BLAS matrix products: the fixed block size keeps its results
# reproducible.  The same holds for the lockstep batches, for blocks that
# mix paths and for the cut into shards, so a logistic path run by
# ``run_multi`` is not bit-identical to ``run_single`` with its path index,
# and ``run_multi`` output depends on the shard count: on one machine it is
# still a function of (target, options, seed).
BLOCK_FLOATS = 2**14

# Why a candidate approximation was disqualified, in the order checked:
# E with a non-positive diagonal, a non-positive-definite inner matrix, a
# non-finite mean or log determinant, and (after sampling) a non-finite ELBO.
DISQUALIFY_REASONS = ("singular_e", "cholesky", "nonfinite_approx", "nonfinite_elbo")
TALLIES = ("scored",) + DISQUALIFY_REASONS  # a path's scoring counts


@dataclass(frozen=True)
class PathfinderOptions:
    """Tuning settings for one optimization path.

    ELBO draws per candidate, output draws and the initialization half-width
    are set here; the optimizer's settings, including the history size that
    also bounds each candidate's pair count, live in ``lbfgs``.
    """

    elbo_draws: int = setting(5, POSITIVE_INT, "Monte Carlo draws per ELBO estimate")
    num_draws: int = setting(100, POSITIVE_INT, "draws per path")
    init_radius: float = setting(2.0, POSITIVE, "uniform initialization half-width")
    lbfgs: LbfgsOptions = field(default_factory=LbfgsOptions)

    def __post_init__(self):
        check_settings(self)


@dataclass
class PathfinderRun:
    """Output of one path.

    A failed run carries exactly one draw (the last trajectory point) with
    ``logq == +inf``; otherwise ``l_star`` is the 1-based trajectory iteration
    whose approximation won the ELBO argmax.  ``disqualified`` counts the
    candidates dropped for each of DISQUALIFY_REASONS; all but
    ``nonfinite_elbo`` were never sampled.  ``logp`` stays None until a
    pooling step evaluates target log densities for the draws.
    """

    draws: np.ndarray
    logq: np.ndarray
    elbo_trace: np.ndarray
    l_star: Optional[int]
    failed: bool
    n_logp: int
    n_grad: int
    num_iters: int
    termination: Optional[Termination]
    scored_candidates: int
    lbfgs_n_logp: int
    lbfgs_n_grad: int
    disqualified: dict = field(default_factory=lambda: dict.fromkeys(DISQUALIFY_REASONS, 0))
    logp: Optional[np.ndarray] = None
    approx: Optional[normal_approx.FactoredNormal] = None


def select_argmax(elbo_trace) -> int:
    """1-based index of the largest finite ELBO, ties broken toward smaller index.

    Raises AllFailedError when no entry is finite.
    """
    trace = np.asarray(elbo_trace, dtype=float)
    finite = np.isfinite(trace)
    if trace.size == 0 or not np.any(finite):
        raise AllFailedError("no candidate produced a finite ELBO")
    masked = np.where(finite, trace, -np.inf)
    return int(np.argmax(masked)) + 1


def _blocks(counts, dim):
    """Blocks of candidates sharing a pair count, across paths, cut to BLOCK_FLOATS.

    ``counts`` holds each path's pair counts for its candidates 1..L.
    Yields (num_pairs, owners, iters): each candidate's position in
    ``counts`` and its 1-based iteration, ordered by path and then
    iteration.  Pair counts never decrease along a trajectory, so with one
    path each count is one run of consecutive candidates.
    """
    if not counts:
        return
    flat = np.concatenate(counts)
    owners = np.repeat(np.arange(len(counts)), [len(c) for c in counts])
    iters = np.concatenate([np.arange(1, len(c) + 1) for c in counts])
    order = np.argsort(flat, kind="stable")
    flat, owners, iters = flat[order], owners[order], iters[order]
    starts = np.flatnonzero(np.diff(flat, prepend=-1))
    stops = np.append(starts[1:], len(flat))
    for first, stop in zip(starts.tolist(), stops.tolist()):
        num_pairs = int(flat[first])
        size = max(1, BLOCK_FLOATS // (dim * max(2 * num_pairs, 1)))
        for lo in range(first, stop, size):
            hi = min(lo + size, stop)
            yield num_pairs, owners[lo:hi], iters[lo:hi]


def _windows(recoveries, owners, iters, num_pairs):
    """``window`` of each path's candidates in a block, joined along the stack axis.

    Each path's S and Z keep the memory layout ``window`` gives them, so a
    candidate's factors do not depend on the paths it is scored with.
    """
    S, Z, alpha = zip(*(window(recoveries[k], iters[owners == k], num_pairs)
                        for k in np.unique(owners)))
    return (np.concatenate([m.swapaxes(1, 2) for m in S]).swapaxes(1, 2),
            np.concatenate([m.swapaxes(1, 2) for m in Z]).swapaxes(1, 2),
            np.concatenate(alpha))


def _rows(arrays, owners, iters):
    """Row ``iters[i]`` of ``arrays[owners[i]]`` for each i; owners ascend, as in a block."""
    return np.concatenate([arrays[k][iters[owners == k]] for k in np.unique(owners)])


def _score_candidates(target, indices, recoveries, new, tallies, opts, seed):
    """Score the candidates of each path's ``new`` latest recovered steps in cross-path blocks.

    Returns each path's ELBOs of them (-inf where disqualified) and adds its
    counts to ``tallies`` (columns TALLIES).  Each block makes one
    ``target.logp_many`` call.  Each candidate draws from its own (path,
    candidate) substream, all of a block's made in one call, so the scores
    do not depend on how the blocks are cut.
    """
    dim = target.dim
    first = np.array([rec.num_iters - n for rec, n in zip(recoveries, new)])
    traces = [np.full(n, -np.inf) for n in new]

    def tally(column, owners):
        tallies[:, TALLIES.index(column)] += np.bincount(owners, minlength=len(tallies))

    counts = [pair_counts(rec, opts.lbfgs.history_size)[lo:] for rec, lo in zip(recoveries, first)]
    for num_pairs, owners, iters in _blocks(counts, dim):
        iters = iters + first[owners]
        factors, ok_e = stacked_factors(*_windows(recoveries, owners, iters, num_pairs))
        tally("singular_e", owners[~ok_e])
        if not ok_e.all():
            factors, owners, iters = select_rows(factors, ok_e), owners[ok_e], iters[ok_e]
            if iters.size == 0:
                continue
        approx, ok_chol = normal_approx.build_many(
            factors, _rows([rec.thetas for rec in recoveries], owners, iters),
            _rows([rec.grads for rec in recoveries], owners, iters))
        finite = np.isfinite(approx.logdet) & np.isfinite(approx.mu).all(axis=1)
        tally("cholesky", owners[~ok_chol])
        tally("nonfinite_approx", owners[ok_chol & ~finite])
        alive = ok_chol & finite
        if not alive.all():
            approx, owners, iters = select_rows(approx, alive), owners[alive], iters[alive]
            if iters.size == 0:
                continue
        tally("scored", owners)
        u = np.stack([
            rng.standard_normal((opts.elbo_draws, dim))
            for rng in substreams(seed, indices[owners], STREAM_CANDIDATE, iters)
        ])
        batch = normal_approx.transform(approx, u)
        logp_vals = target.logp_many(batch.draws.reshape(-1, dim)).reshape(batch.logq.shape)
        values = elbo.elbo_estimate(logp_vals, batch.logq).value
        tally("nonfinite_elbo", owners[~np.isfinite(values)])
        for k in np.unique(owners):
            traces[k][iters[owners == k] - first[k] - 1] = values[owners == k]
    return traces


class _Scorer:
    """Recovers and scores paths' candidates one chunk of RECOVER_CHUNK steps at a time.

    A candidate's window holds no pair past its own step, so the trajectories
    may grow between ``advance`` calls; ``runs`` then draws from each winner.
    """

    def __init__(self, target, indices, opts, seed):
        self.target, self.indices, self.opts, self.seed = target, np.array(indices), opts, seed
        self.recoveries = [AlphaRecovery(np.empty((0, target.dim)), np.zeros(0, dtype=int), None, None)
                           for _ in indices]
        self.traces, self.tallies = [], np.zeros((len(indices), len(TALLIES)), dtype=int)

    def advance(self, trajectories) -> bool:
        """Score each path's next chunk of ``trajectories`` as they stand; False if none had one."""
        for rec, trajectory in zip(self.recoveries, trajectories):
            rec.thetas, rec.grads = trajectory.thetas, trajectory.grads
        new = recover_chunk(self.recoveries)
        self.traces.append(_score_candidates(self.target, self.indices, self.recoveries, new,
                                             self.tallies, self.opts, self.seed))
        return any(new)

    def runs(self, paths) -> list:
        """The runs of ``paths``, whose every step has been scored."""
        return [_draw_from_winner(path, rec, np.concatenate([t[k] for t in self.traces]),
                                  self.tallies[k], self.opts, self.seed)
                for k, (path, rec) in enumerate(zip(paths, self.recoveries))]


def _run(path, draws, logq, elbo_trace=(), tally=(0,) * len(TALLIES), elbo_draws=0,
         l_star=None, approx=None):
    """A path's run; failed, flagged by its one draw's logq = +inf, when ``l_star`` is None."""
    trajectory, scored = path.trajectory, int(tally[0])
    return PathfinderRun(
        draws=draws,
        logq=logq,
        elbo_trace=np.asarray(elbo_trace, dtype=float),
        l_star=l_star,
        failed=l_star is None,
        n_logp=path.n_logp + scored * elbo_draws,
        n_grad=path.n_grad,
        num_iters=0 if trajectory is None else trajectory.num_iters,
        termination=None if trajectory is None else trajectory.termination,
        scored_candidates=scored,
        lbfgs_n_logp=path.n_logp,
        lbfgs_n_grad=path.n_grad,
        disqualified=dict(zip(DISQUALIFY_REASONS, map(int, tally[1:]))),
        approx=approx,
    )


def _failed_run(path, *score):
    """The run of a path with no valid approximation: its last point, flagged by logq = +inf."""
    last = path.theta0 if path.trajectory is None else path.trajectory.thetas[-1]
    return _run(path, np.asarray(last, dtype=float)[None, :], np.array([np.inf]), *score)


def initial_point(dim: int, opts: PathfinderOptions, seed: int, path_index: int) -> np.ndarray:
    """The path's uniform random start in [-init_radius, init_radius]^dim."""
    rng_init = substream(seed, path_index, STREAM_INIT)
    return rng_init.uniform(-opts.init_radius, opts.init_radius, dim)


@dataclass
class OptimizedPath:
    """A path whose optimizer has stopped, waiting to be scored.

    ``n_logp`` and ``n_grad`` count the optimizer's evaluations;
    ``trajectory`` is None when the initial point ``theta0`` had a
    non-finite log density or gradient.
    """

    index: int
    theta0: np.ndarray
    trajectory: Optional[Trajectory]
    n_logp: int
    n_grad: int


def usable_cores() -> int:
    """The CPUs this process may run on; 1 off Linux, where nothing is forked."""
    return len(os.sched_getaffinity(0)) if sys.platform.startswith("linux") else 1


def run_paths(target, opts: PathfinderOptions, seed: int, indices) -> list:
    """Runs of the paths ``indices`` (one in single mode), in k contiguous shards.

    k = min(len(indices), usable_cores()), or 1 while another Python thread
    runs, whose locks a child could block on.  The first shard runs here, the
    others in forked children.  A lone path with a spare core instead has its
    candidates scored by a forked child while it optimizes (``_Feed``).  Run
    i equals the run of path i alone wherever the target's batched rows do
    not depend on the batch.
    """
    indices = list(indices)
    alone = threading.active_count() == 1
    k = max(1, min(len(indices), usable_cores())) if alone else 1
    cuts = [len(indices) * j // k for j in range(k + 1)]
    children, replies = [], []
    feed = _Feed(target, opts, seed, indices[0], children) if (
        len(indices) == 1 and alone and usable_cores() > 1) else None
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            children.append(_fork(target, lambda shard=indices[lo:hi]: _run_shard(
                target, opts, seed, shard)))
        runs = _run_shard(target, opts, seed, indices[:cuts[1]], feed)
        replies = [pipe.read() for _, pipe in children]
    finally:
        if feed and feed.fd is not None:
            os.close(feed.fd)
        for pid, pipe in children:
            if not replies:  # this shard or a read raised: leave no child running
                os.kill(pid, 9)  # SIGKILL
            pipe.close()
            os.waitpid(pid, 0)
    for reply in replies:
        reply = pickle.loads(reply) if reply else RuntimeError("a path shard died unanswered")
        if isinstance(reply, BaseException):
            raise reply
        runs += reply[0]
        target._n_fused += reply[1]
        target._n_logp_only += reply[2]
    return runs


def _fork(target, work):
    """(pid, pipe) of a child piping back the pickled (runs ``work()`` returns, fused
    and logp-only evaluations), or its error, which the caller re-raises."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on a fork with several OS threads, and
            # OpenBLAS always runs its own: its atfork handlers make the fork
            # safe (unverified there; the tests run on Python 3.11).
            warnings.filterwarnings("ignore", "This process .* multi-threaded", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    try:
        target._n_fused = target._n_logp_only = 0  # the child counts its own evaluations
        try:
            reply = pickle.dumps((work(), target._n_fused, target._n_logp_only))
        except BaseException as exc:
            try:
                reply = pickle.dumps(exc)
                pickle.loads(reply)
            except Exception:  # send a RuntimeError whose traceback shows both errors
                reply = pickle.dumps(RuntimeError(f"path shard error:\n{traceback.format_exc()}"))
        with open(write_fd, "wb") as pipe:
            pipe.write(reply)
    finally:
        os._exit(0)


class _Feed:
    """The caller's end of a lone path's forked scorer, called with each trajectory point.

    At RECOVER_CHUNK steps it forks the scorer into ``children``, unless a
    thread runs then, and pipes it each RECOVER_CHUNK steps' rows as they
    come; ``send`` pipes the finished path last.
    """

    def __init__(self, target, opts, seed, index, children):
        self.work = target, opts, seed, index, np.geterr()  # the caller's, not the loop's
        self.children, self.rows, self.fd = children, [], None

    def __call__(self, *point):
        self.rows.append(point)
        if len(self.rows) != RECOVER_CHUNK + (self.fd is None):  # the first chunk has row 0 too
            return
        if self.fd is None:
            if threading.active_count() > 1:
                return  # and never will: the caller scores the path
            read_fd, self.fd = os.pipe()
            try:
                self.children.append(_fork(self.work[0], lambda: self._serve(read_fd)))
            finally:
                os.close(read_fd)
        self.send(tuple(np.array(rows) for rows in zip(*self.rows)))
        self.rows = []

    def send(self, message):
        """Pipe ``message``; a scorer that has left replies with its reason instead."""
        data = memoryview(pickle.dumps(message))
        with contextlib.suppress(BrokenPipeError):
            while data:  # a signal may cut a write short
                data = data[os.write(self.fd, data):]

    def _serve(self, read_fd):
        """The forked scorer: score each chunk as it comes, then the finished path's run."""
        os.close(self.fd)
        target, opts, seed, index, err = self.work
        scorer = _Scorer(target, [index], opts, seed)
        rows = Trajectory(*np.empty((2, 0, target.dim)), None, None)  # the rows piped so far
        with np.errstate(**err), open(read_fd, "rb") as pipe:
            while not isinstance(message := pickle.load(pipe), OptimizedPath):
                rows.thetas, rows.grads = map(np.concatenate, zip((rows.thetas, rows.grads), message))
                scorer.advance([rows])
            while scorer.advance([message.trajectory]):
                pass
            return scorer.runs([message])


def _run_shard(target, opts: PathfinderOptions, seed: int, indices, feed=None) -> list:
    """Runs of the paths ``indices``: one ``lbfgs.lockstep``, then ``finish_runs``,
    or none for a lone path whose ``feed`` forked a scorer, which replies with it."""
    theta0s = [initial_point(target.dim, opts, seed, i) for i in indices]
    states = lockstep(target, [optimize_steps(theta0, opts.lbfgs, feed) for theta0 in theta0s])
    paths = [OptimizedPath(i, theta0, None if isinstance(s.outcome, NonFiniteError) else s.outcome,
                           s.n_fused + s.n_logp_only, s.n_fused)
             for i, theta0, s in zip(indices, theta0s, states)]
    if feed and feed.fd is not None:
        feed.send(paths[0])
        return []
    return finish_runs(target, paths, opts, seed)


def run_single(target, opts: PathfinderOptions, seed: int, path_index: int = 0) -> PathfinderRun:
    """Run one path against ``target`` under the given master seed.

    This is ``run_paths`` over the one path ``path_index``: with a spare
    core, a forked child scores its candidates while it optimizes, with
    none, they are scored here after.  All randomness comes from substreams
    keyed by (path_index, purpose, candidate index), so results are
    bit-identical for a fixed (target, opts, seed, path_index), whatever the
    core count; BLOCK_FLOATS says when the blocking cannot change them.
    """
    return run_paths(target, opts, seed, [path_index])[0]


def finish_runs(target, paths: list, opts: PathfinderOptions, seed: int) -> list:
    """Score the candidates along optimized paths and draw from each path's winner.

    ``paths`` are OptimizedPath records; the runs come back in their order.
    A ``_Scorer`` steps through all paths' trajectories together, one chunk
    of RECOVER_CHUNK steps at a time, so a path's run equals its run scored
    alone wherever the target's batched rows do not depend on the batch.
    """
    scorable = [i for i, path in enumerate(paths) if path.trajectory and path.trajectory.num_iters]
    runs = [None if i in scorable else _failed_run(path) for i, path in enumerate(paths)]
    scorer = _Scorer(target, [paths[i].index for i in scorable], opts, seed)
    while scorable and scorer.advance([paths[i].trajectory for i in scorable]):
        pass
    for i, run in zip(scorable, scorer.runs([paths[i] for i in scorable])):
        runs[i] = run
    return runs


def _draw_from_winner(path, recovery, elbo_trace, tally, opts, seed):
    """The run of a scored path: draws from its ELBO-best candidate, or a failed run."""
    trajectory = path.trajectory
    try:
        l_star = select_argmax(elbo_trace)
    except AllFailedError:
        return _failed_run(path, elbo_trace, tally, opts.elbo_draws)

    # Rebuild the winner through the same stacked code, as a stack of one,
    # and draw a fresh batch of output draws.
    factors = assemble_factors(recovery, l_star, opts.lbfgs.history_size)
    approx = normal_approx.build(factors, trajectory.thetas[l_star], trajectory.grads[l_star])
    batch = normal_approx.sample(approx, opts.num_draws, substream(seed, path.index, STREAM_FINAL))
    return _run(path, batch.draws, batch.logq, elbo_trace, tally, opts.elbo_draws, l_star, approx)
