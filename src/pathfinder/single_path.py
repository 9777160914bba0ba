"""Single-path Pathfinder: optimize, score candidate approximations, draw from the best.

One run optimizes the log density from a random initialization, rebuilds a
normal approximation at every trajectory point, scores each by Monte Carlo
ELBO, and returns draws from the ELBO-maximizing approximation.  Both modes
run paths through ``run_paths``, one contiguous shard per usable core, each
shard but the first in a forked process (Linux only), or in the caller where
no process can be had.  A shard is one
``lbfgs.lockstep`` on the target itself, each path's counts read from its
stepper state, then ``_Scorer.finish``, which recovers the diagonal
seeds one chunk of RECOVER_CHUNK steps at a time, gathers each chunk's
candidate windows and makes their substreams at once, and scores the
candidates in stacked blocks sharing a pair count, with one factorization
and one target call per block, keeping each path's best approximation as
its block built it; the output draws come from that one.  ``run_single``
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
import functools
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
# up to max(1, BLOCK_FLOATS // (N max(2J', 1))) candidates of a shard's paths
# that share a pair count J'.  Each chunk of RECOVER_CHUNK steps is cut into
# blocks of its own, so a chunk's n candidates with J' pairs take
# ceil(n / size) blocks.  A block's arrays take about five times
# BLOCK_FLOATS floats; 2**16 was no faster than 2**15 on a 1000 x 50
# logistic shard and added about 3 MB to an eight-schools run's peak RSS.
# Blocks change no result where logp_many rows do not depend on the batch:
# the log densities of every built-in target, logistic regression's BLAS
# products included in every batch of two or more rows tried.  Logistic
# gradients do depend on the batch, so a logistic path run by ``run_multi``
# is not bit-identical to ``run_single`` with its path index, and
# ``run_multi`` output depends on the shard count: on one machine it is
# still a function of (target, options, seed).
BLOCK_FLOATS = 2**15

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


@dataclass(frozen=True)
class PathfinderRun:
    """Output of one path.

    A failed run carries exactly one draw (the last trajectory point) with
    ``logq == +inf``; otherwise ``l_star`` is the 1-based trajectory iteration
    whose approximation won the ELBO argmax.  ``termination`` says why its
    optimizer stopped, ``NONFINITE_AT_INIT`` for a refused start, whose one
    draw is that start.  ``disqualified`` counts the candidates dropped for
    each of DISQUALIFY_REASONS; all but ``nonfinite_elbo`` were never
    sampled.  The draws' target log densities are not part of a run: pooling
    evaluates them, into ``WeightedSample.log_p``.
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
    approx: Optional[normal_approx.FactoredNormal] = None


class _Scorer:
    """Recovers and scores paths' candidates one chunk of RECOVER_CHUNK steps at a time.

    Each chunk gathers its candidates' windows and makes their substreams at
    once, so a block (see BLOCK_FLOATS) costs its linear algebra, one
    ``target.logp_many`` call and its ELBOs.  A candidate's window holds no
    pair past its own step, so the trajectories may grow between ``advance``
    calls; ``finish`` then draws from each path's best scored candidate.
    Each candidate draws from its own (path, candidate) substream, so a
    path's run equals its run scored alone wherever the target's batched
    rows do not depend on the batch.
    """

    def __init__(self, target, indices, opts, seed):
        self.target, self.indices, self.opts, self.seed = target, np.array(indices), opts, seed
        self.recoveries = [AlphaRecovery(np.empty((0, target.dim)), np.zeros(0, dtype=int), None, None)
                           for _ in indices]
        self.scored = []  # per block: paths, iterations, ELBOs and TALLIES columns
        # Each path's best scored candidate: its ELBO, and its iteration and
        # (stack, row) in a copy of its block's approximations.
        self.best = np.full(len(indices), -np.inf)
        self.winners = [None] * len(indices)

    def advance(self, trajectories) -> bool:
        """Score each path's next chunk of ``trajectories`` as they stand; False if none had one.

        Blocks follow the chunk's pair counts upward, and pair counts never
        decrease along a path, so each path's candidates are scored in
        iteration order.
        """
        for rec, trajectory in zip(self.recoveries, trajectories):
            rec.thetas, rec.grads = trajectory.thetas, trajectory.grads
        new = recover_chunk(self.recoveries)
        if not any(new):
            return False
        owners = np.repeat(np.arange(len(new)), new)
        iters = np.concatenate([np.arange(rec.num_iters - n, rec.num_iters) + 1
                                for rec, n in zip(self.recoveries, new)])
        pairs = np.concatenate([pair_counts(rec, self.opts.lbfgs.history_size)[rec.num_iters - n:]
                                for rec, n in zip(self.recoveries, new)])
        rngs = substreams(self.seed, self.indices[owners], STREAM_CANDIDATE, iters)
        windows = window(self.recoveries, owners, iters, pairs)
        for num_pairs in np.unique(pairs).tolist():
            group = np.flatnonzero(pairs == num_pairs)
            size = max(1, BLOCK_FLOATS // (self.target.dim * max(2 * num_pairs, 1)))
            for lo in range(0, len(group), size):
                cand = group[lo:lo + size]
                self._score_block(windows, num_pairs, cand, owners[cand], iters[cand],
                                  [rngs[c] for c in cand.tolist()])
        return True

    def _score_block(self, windows, num_pairs, cand, owners, iters, rngs):
        """Score the candidates ``cand`` of ``windows``, of paths ``owners`` at iterations
        ``iters``: record their ELBOs (-inf where disqualified) and TALLIES columns, and
        keep each path's best.  A block of disqualified candidates runs on empty (0, N, 2J')
        stacks, which numpy's linalg accepts (verified on 2.4.6, not on the 1.24 floor)."""
        values = np.full(len(cand), -np.inf)
        columns = np.zeros(len(cand), dtype=int)  # "scored" unless disqualified
        factors, ok_e = stacked_factors(*windows.pairs(cand, num_pairs))
        columns[~ok_e] = 1
        live = np.flatnonzero(ok_e)
        if live.size < len(cand):
            factors = select_rows(factors, live)
        rows = windows.rows[cand[live]]
        approx, ok_chol = normal_approx.build_many(factors, windows.thetas[rows],
                                                   windows.grads[rows])
        finite = np.isfinite(approx.logdet) & np.isfinite(approx.mu).all(axis=1)
        columns[live[~ok_chol]] = 2
        columns[live[ok_chol & ~finite]] = 3
        alive = ok_chol & finite
        if not alive.all():
            approx, live = select_rows(approx, alive), live[alive]
        dim = self.target.dim
        u = np.empty((live.size, self.opts.elbo_draws, dim))
        for out, k in zip(u, live.tolist()):
            rngs[k].standard_normal(out=out)
        batch = normal_approx.transform(approx, u)
        logp_vals = self.target.logp_many(batch.draws.reshape(-1, dim)).reshape(batch.logq.shape)
        values[live] = elbo.elbo_estimate(logp_vals, batch.logq)
        columns[live[~np.isfinite(values[live])]] = 4
        self._keep_winners(owners[live], iters[live], values[live], approx)
        self.scored.append((owners, iters, values, columns))

    def _keep_winners(self, owners, iters, values, approx):
        """Keep each path's best candidate of a block, stacked in ``approx`` with ascending
        ``owners``, where its ELBO is greater than the kept one's.  A path's candidates
        come in iteration order, so ties go to the earliest, as ``np.argmax`` picks."""
        top = np.lexsort((-values, owners))[np.flatnonzero(np.diff(owners, prepend=-1))]
        top = top[values[top] > self.best[owners[top]]]  # -inf never wins
        if top.size:
            paths = owners[top]
            self.best[paths] = values[top]
            kept = select_rows(approx, top)  # a copy: a row view would pin the block
            for row, (path, l) in enumerate(zip(paths.tolist(), iters[top].tolist())):
                self.winners[path] = l, kept, row

    def finish(self, paths) -> list:
        """The runs of the stopped OptimizedPaths ``paths``, in order, once every step is scored.

        A path with no step has no candidate, so it gets the failed run.
        """
        while paths and self.advance([path.trajectory for path in paths]):
            pass
        owners, iters, values, columns = (map(np.concatenate, zip(*self.scored)) if self.scored
                                          else np.zeros((4, 0), dtype=int))
        starts = np.cumsum([0] + [rec.num_iters for rec in self.recoveries])
        traces = np.full(starts[-1], -np.inf)
        traces[starts[owners] + iters - 1] = values
        tallies = np.bincount(owners * len(TALLIES) + columns,
                              minlength=len(paths) * len(TALLIES)).reshape(-1, len(TALLIES))
        tallies[:, 0] += tallies[:, -1]  # a non-finite ELBO was still scored
        return [_draw_from_winner(path, winner and (winner[0], select_rows(*winner[1:])),
                                  traces[starts[k]:starts[k + 1]], tallies[k], self.opts, self.seed)
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


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, found once per
    process by its exported symbols in the library numpy loaded, or None without one."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            path = next(line.split(maxsplit=5)[-1].rstrip("\n") for line in maps
                        if "libscipy_openblas64_" in line)
        lib = ctypes.CDLL(path)
        return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, StopIteration, AttributeError):
        return None


def check_key(name, value, end=math.inf):
    """``value``, unless it is not an integer in [0, ``end``): then a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not 0 <= value < end:
        raise ValueError(f"{name} must be an integer in [0, {end}), got {value!r}")
    return value


def run_paths(target, opts: PathfinderOptions, seed: int, indices) -> list:
    """Runs of the paths ``indices`` (one in single mode), in k contiguous shards.

    k = min(len(indices), usable_cores()), or 1 while another Python thread
    runs.  The first shard runs here, the others in children forked by
    ``_fork``; a shard that cannot fork runs here after the first, with the
    same bits.  A lone path with a spare core instead has its candidates
    scored by a forked child while it optimizes (``_Feed``).  Run i equals
    the run of path i alone wherever the target's batched rows do not depend
    on the batch.  A seed that is not a non-negative integer, or an index
    outside [0, 2**32), raises ValueError before any evaluation.  The run's
    ExitStack holds what the forks set and opened, and undoes it when the
    run ends, also when it raises.
    """
    check_key("seed", seed)
    indices = [check_key("path_index", i, 2**32) for i in indices]
    # _fork forks nothing while a thread runs; one lockstep then beats shards run in turn.
    cores = usable_cores() if threading.active_count() == 1 else 1
    k = max(1, min(len(indices), cores))
    shards = [indices[len(indices) * j // k:len(indices) * (j + 1) // k] for j in range(k)]
    with contextlib.ExitStack() as run:
        feed = _Feed(target, opts, seed, indices[0], run) if len(indices) == 1 and cores > 1 else None
        pipes = [_fork(target, functools.partial(_run_shard, target, opts, seed, shard), run)
                 for shard in shards[1:]]
        runs = _run_shard(target, opts, seed, shards[0], feed)
        for shard, pipe in zip(shards[1:], pipes):
            runs += _reply(target, pipe) if pipe else _run_shard(target, opts, seed, shard)
    return runs


def _fork(target, work, run):
    """The read end of a pipe on which a forked child sends the pickled runs ``work()``
    returns and the evaluations it added to ``target``'s counts, or its error, for
    ``_reply``; None while another Python thread runs or where no pipe or process is to be
    had (under a process limit, say).  Past the thread check, each call sets numpy's
    OpenBLAS to one thread, which the child inherits: no process oversubscribes the cores,
    and work the caller does after a refused fork keeps a child's bits.  When the run ends,
    its ExitStack ``run`` restores the count, closes the pipe, and kills and reaps the child."""
    if threading.active_count() > 1:  # a child could block on a lock another thread holds
        return None
    if threads := _openblas_threads():
        run.callback(threads[1], threads[0]())
        threads[1](1)
    try:
        read_fd, write_fd = os.pipe()
        pipe, out = run.enter_context(open(read_fd, "rb")), run.enter_context(open(write_fd, "wb"))
        with warnings.catch_warnings():
            # Python >= 3.12 warns on a fork with several OS threads, and
            # OpenBLAS always runs its own: its atfork handlers make the fork
            # safe (unverified there; the tests run on Python 3.11).
            warnings.filterwarnings("ignore", "This process .* multi-threaded", DeprecationWarning)
            pid = os.fork()
    except OSError:
        return None
    if pid:
        out.close()
        run.callback(os.waitpid, pid, 0)
        # Killed also after its reply is read: such a child is already exiting,
        # and under the default SIGCHLD handling it stays a zombie until the
        # waitpid above, so the kill cannot reach another process.
        run.callback(os.kill, pid, 9)  # SIGKILL
        return pipe
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
        out.write(reply)
        out.close()
    finally:
        os._exit(0)


def _reply(target, pipe):
    """The runs a forked child piped back on ``pipe``, whose evaluations it adds to
    ``target``'s counts through ``add_counts``; the child's error, raised with its type
    and message, or a RuntimeError for a child that died without a reply."""
    reply = pipe.read()
    reply = pickle.loads(reply) if reply else RuntimeError("a path shard died unanswered")
    if isinstance(reply, BaseException):
        raise reply
    target.add_counts(*reply[1:])
    return reply[0]


class _Feed:
    """The caller's end of a lone path's forked scorer, called with each trajectory point.

    At RECOVER_CHUNK steps it forks the scorer through ``_fork`` on the run's
    ExitStack ``run``, which also closes the feed's pipe, and pipes it each
    RECOVER_CHUNK steps' rows as they come; ``send`` pipes the finished path
    last, and ``reply`` is the pipe the scorer answers on.  Where ``_fork``
    forks nothing, the caller scores the path.
    """

    def __init__(self, target, opts, seed, index, run):
        self.work = target, opts, seed, index, np.geterr()  # the caller's, not the loop's
        self.run, self.rows, self.reply = run, [], None

    def __call__(self, *point):
        self.rows.append(point)
        if len(self.rows) != RECOVER_CHUNK + (self.reply is None):  # the first chunk has row 0 too
            return
        if self.reply is None:  # tried once: the row count only grows after
            try:
                read_fd, self.fd = os.pipe()
            except OSError:
                return
            self.run.callback(os.close, self.fd)
            self.reply = _fork(self.work[0], lambda: self._serve(read_fd), self.run)
            os.close(read_fd)
            if self.reply is None:
                return
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
    or, for a lone path whose ``feed`` forked a scorer, the scorer's ``_reply``."""
    states = lockstep(target, [optimize_steps(initial_point(target.dim, opts, seed, i),
                                              opts.lbfgs, feed) for i in indices])
    paths = [OptimizedPath(i, s.outcome, s.n_fused + s.n_logp_only, s.n_fused)
             for i, s in zip(indices, states)]
    if feed and feed.reply:
        feed.send(paths[0])
        return _reply(target, feed.reply)
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
    """The run of a scored path: draws from its ELBO-best candidate, ``winner`` =
    (iteration, approximation as its scoring block built it), or, with none, a failed
    run, whose one draw is the path's last point, flagged by logq = +inf."""
    l_star, approx = winner or (None, None)
    if approx is None:
        draws, logq = path.trajectory.thetas[-1:], np.array([np.inf])
    else:
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
