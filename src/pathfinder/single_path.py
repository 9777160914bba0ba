"""Single-path Pathfinder: optimize, score candidate approximations, draw from the best.

One run optimizes the log density from a random initialization, rebuilds a
normal approximation at every trajectory point, scores each by Monte Carlo
ELBO, and returns draws from the ELBO-maximizing approximation.  Both modes
run paths through ``run_paths``, one contiguous shard per usable core, each
shard but the first in a forked process (Linux only).  A shard is one
``lbfgs.lockstep`` on the target itself, each path's counts read from its
stepper state, then ``_Scorer.finish``, which recovers the diagonal
seeds one chunk of RECOVER_CHUNK steps at a time and scores each chunk's
candidates in stacked blocks sharing a pair count, with one factorization,
seeding and target call per block, keeping each path's best approximation
as its block built it; the output draws come from that one.  ``run_single``
is one shard of one path, one row per batched call; given a spare core, a
forked ``_Scorer`` scores each chunk of its steps while the path optimizes.

Runs never raise on pathological geometry: a search direction without a
valid pair matrix E ends its path as ``line_search_fail``, a refused start
ends it as ``nonfinite_at_init``, and a run that cannot produce any valid
approximation returns its last trajectory point as a single draw flagged
with +inf approximation log density, which guarantees zero importance
weight downstream.
"""

from __future__ import annotations

import contextlib
import math
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
# The scoring pass calls elbo.elbo_estimate on whole blocks, recovers all
# paths in one call and keeps each winner as its block built it;
# elbo_estimate, alpha_recover and assemble_factors stay importable here,
# where the benchmark's tracer (bench/layers.py) looks for them.
from .elbo import elbo_estimate  # noqa: F401
from .inv_hessian import alpha_recover, assemble_factors  # noqa: F401
from .inv_hessian import (
    RECOVER_CHUNK, AlphaRecovery, pair_counts, recover_chunk, select_rows, stacked_factors, window,
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
    whose approximation won the ELBO argmax.  ``termination`` says why its
    optimizer stopped, ``NONFINITE_AT_INIT`` for a refused start, whose one
    draw is that start.  ``disqualified`` counts the candidates dropped for
    each of DISQUALIFY_REASONS; all but ``nonfinite_elbo`` were never
    sampled.  ``logp`` stays None until a pooling step evaluates target log
    densities for the draws.
    """

    draws: np.ndarray
    logq: np.ndarray
    elbo_trace: np.ndarray
    l_star: Optional[int]
    failed: bool
    n_logp: int
    n_grad: int
    num_iters: int
    termination: Termination
    scored_candidates: int
    lbfgs_n_logp: int
    lbfgs_n_grad: int
    disqualified: dict = field(default_factory=lambda: dict.fromkeys(DISQUALIFY_REASONS, 0))
    logp: Optional[np.ndarray] = None
    approx: Optional[normal_approx.FactoredNormal] = None


def _blocks(counts, dim):
    """Blocks of candidates sharing a pair count, across paths, cut to BLOCK_FLOATS.

    ``counts`` holds each path's pair counts for its candidates 1..L.
    Yields (num_pairs, owners, iters): each candidate's position in
    ``counts`` and its 1-based iteration, ordered by path and then
    iteration.  Pair counts never decrease along a trajectory, so with one
    path each count is one run of consecutive candidates.
    """
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


def _score_candidates(target, indices, recoveries, new, tallies, winners, opts, seed):
    """Score the candidates of each path's ``new`` latest recovered steps in cross-path blocks.

    Returns each path's ELBOs of them (-inf where disqualified), adds its
    counts to ``tallies`` (columns TALLIES) and keeps its best scored
    candidate so far in ``winners``, as (ELBO, iteration, approximation as a
    stack of one that owns its memory).  A path's candidates come in
    iteration order, so replacing the kept one only on a strictly greater
    finite ELBO breaks ties toward the earliest.
    Each block makes one ``target.logp_many`` call.  Each candidate draws
    from its own (path, candidate) substream, all of a block's made in one
    call, so the scores do not depend on how the blocks are cut.
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
        values = elbo.elbo_estimate(logp_vals, batch.logq)
        tally("nonfinite_elbo", owners[~np.isfinite(values)])
        for k in np.unique(owners):
            mine = np.flatnonzero(owners == k)
            traces[k][iters[mine] - first[k] - 1] = values[mine]
            top = mine[np.argmax(values[mine])]
            if values[top] > winners[k][0]:  # kept as a copy: a row view would pin the block
                winners[k] = values[top], int(iters[top]), select_rows(approx, [top])
    return traces


class _Scorer:
    """Recovers and scores paths' candidates one chunk of RECOVER_CHUNK steps at a time.

    A candidate's window holds no pair past its own step, so the trajectories
    may grow between ``advance`` calls; ``finish`` then draws from each winner.
    A path's run equals its run scored alone wherever the target's batched
    rows do not depend on the batch.
    """

    def __init__(self, target, indices, opts, seed):
        self.target, self.indices, self.opts, self.seed = target, np.array(indices), opts, seed
        self.recoveries = [AlphaRecovery(np.empty((0, target.dim)), np.zeros(0, dtype=int), None, None)
                           for _ in indices]
        self.traces, self.tallies = [], np.zeros((len(indices), len(TALLIES)), dtype=int)
        self.winners = [(-np.inf, None, None)] * len(indices)

    def advance(self, trajectories) -> bool:
        """Score each path's next chunk of ``trajectories`` as they stand; False if none had one."""
        for rec, trajectory in zip(self.recoveries, trajectories):
            rec.thetas, rec.grads = trajectory.thetas, trajectory.grads
        new = recover_chunk(self.recoveries)
        self.traces.append(_score_candidates(self.target, self.indices, self.recoveries, new,
                                             self.tallies, self.winners, self.opts, self.seed))
        return any(new)

    def finish(self, paths) -> list:
        """The runs of the stopped OptimizedPaths ``paths``, in order, once every step is scored.

        A path with no step has no candidate, so it gets the failed run.
        """
        while paths and self.advance([path.trajectory for path in paths]):
            pass
        return [_draw_from_winner(path, winner, np.concatenate([t[k] for t in self.traces]),
                                  self.tallies[k], self.opts, self.seed)
                for k, (path, winner) in enumerate(zip(paths, self.winners))]


def initial_point(dim: int, opts: PathfinderOptions, seed: int, path_index: int) -> np.ndarray:
    """The path's uniform random start in [-init_radius, init_radius]^dim."""
    rng_init = substream(seed, path_index, STREAM_INIT)
    return rng_init.uniform(-opts.init_radius, opts.init_radius, dim)


@dataclass
class OptimizedPath:
    """A path whose optimizer has stopped, waiting to be scored.

    ``n_logp`` and ``n_grad`` count the optimizer's evaluations; a refused
    start leaves a one-point ``trajectory`` ended as ``NONFINITE_AT_INIT``.
    """

    index: int
    trajectory: Trajectory
    n_logp: int
    n_grad: int


def usable_cores() -> int:
    """The CPUs this process may run on; 1 off Linux, where nothing is forked."""
    return len(os.sched_getaffinity(0)) if sys.platform.startswith("linux") else 1


def _check_key(name, value, end=math.inf):
    """``value``, unless it is not an integer in [0, ``end``): then a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not 0 <= value < end:
        raise ValueError(f"{name} must be an integer in [0, {end}), got {value!r}")
    return value


def run_paths(target, opts: PathfinderOptions, seed: int, indices) -> list:
    """Runs of the paths ``indices`` (one in single mode), in k contiguous shards.

    k = min(len(indices), usable_cores()), or 1 while another Python thread
    runs, whose locks a child could block on.  The first shard runs here, the
    others in forked children.  A lone path with a spare core instead has its
    candidates scored by a forked child while it optimizes (``_Feed``).  Run
    i equals the run of path i alone wherever the target's batched rows do
    not depend on the batch.  A seed that is not a non-negative integer, or
    an index outside [0, 2**32), raises ValueError before any evaluation.
    """
    _check_key("seed", seed)
    indices = [_check_key("path_index", i, 2**32) for i in indices]
    cores = usable_cores() if threading.active_count() == 1 else 1
    k = max(1, min(len(indices), cores))
    cuts = [len(indices) * j // k for j in range(k + 1)]
    children, replies = [], []
    feed = (_Feed(target, opts, seed, indices[0], children)
            if len(indices) == 1 and cores > 1 else None)
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
        target.add_counts(*reply[1:])
    return runs


def _fork(target, work):
    """(pid, pipe) of a child piping back the pickled (runs ``work()`` returns, and the
    gradient and log-density evaluations it added to ``target``'s counts), or its
    error, which the caller re-raises."""
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
        n_grad, n_logp = target.eval_count_grad, target.eval_count_logp
        try:
            reply = pickle.dumps((work(), target.eval_count_grad - n_grad,
                                  target.eval_count_logp - n_logp))
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
            return scorer.finish([message])


def _run_shard(target, opts: PathfinderOptions, seed: int, indices, feed=None) -> list:
    """Runs of the paths ``indices``: one ``lbfgs.lockstep``, then ``_Scorer.finish``,
    or none for a lone path whose ``feed`` forked a scorer, which replies with it."""
    states = lockstep(target, [optimize_steps(initial_point(target.dim, opts, seed, i),
                                              opts.lbfgs, feed) for i in indices])
    paths = [OptimizedPath(i, s.outcome, s.n_fused + s.n_logp_only, s.n_fused)
             for i, s in zip(indices, states)]
    if feed and feed.fd is not None:
        feed.send(paths[0])
        return []
    return _Scorer(target, indices, opts, seed).finish(paths)


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


def _draw_from_winner(path, winner, elbo_trace, tally, opts, seed):
    """The run of a scored path: draws from its ELBO-best candidate, or, with none, a failed
    run, whose one draw is the path's last point, flagged by logq = +inf."""
    _, l_star, approx = winner
    if approx is None:
        draws, logq = path.trajectory.thetas[-1:], np.array([np.inf])
    else:
        # The winner as its scoring block built it, and a fresh batch of output draws.
        approx = select_rows(approx, 0)
        batch = normal_approx.sample(approx, opts.num_draws,
                                     substream(seed, path.index, STREAM_FINAL))
        draws, logq = batch.draws, batch.logq
    scored = int(tally[0])
    return PathfinderRun(
        draws=draws,
        logq=logq,
        elbo_trace=elbo_trace,
        l_star=l_star,
        failed=l_star is None,
        n_logp=path.n_logp + scored * opts.elbo_draws,
        n_grad=path.n_grad,
        num_iters=path.trajectory.num_iters,
        termination=path.trajectory.termination,
        scored_candidates=scored,
        lbfgs_n_logp=path.n_logp,
        lbfgs_n_grad=path.n_grad,
        disqualified=dict(zip(DISQUALIFY_REASONS, map(int, tally[1:]))),
        approx=approx,
    )
