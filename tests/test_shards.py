"""``run_paths`` cuts the paths into one forked lockstep shard per usable core,
and scores a lone path's candidates in one forked child while it optimizes.

The core count is patched, so every shard count runs on any Linux machine.
A shard count must not change any output bit on targets whose batched rows
do not depend on the batch, nor may the core count change single mode's
output on any target; errors raised in a child must reach the caller, and
no child may outlive the call.
"""

import os
import select
import signal
import sys
import threading

import numpy as np
import pytest

from pathfinder import (
    LbfgsOptions,
    MultipathOptions,
    PathfinderOptions,
    eval_logq,
    lbfgs,
    make_target,
    run_multi,
    run_single,
    single_path,
)
from pathfinder.inv_hessian import RECOVER_CHUNK
from pathfinder.single_path import initial_point, usable_cores
from pathfinder.targets import CounterView

from oracles import PointTarget

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks on Linux only")

OPTS = MultipathOptions(num_paths=7, num_resample=50, single=PathfinderOptions(
    num_draws=40, lbfgs=LbfgsOptions(max_iters=150)))
PARENT = os.getpid()


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cores(monkeypatch):
    """Set the usable core count; returns the list of forked pids (parent side)."""
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)

    def set_cores(count):
        monkeypatch.setattr(single_path, "usable_cores", lambda: count)
        return forked

    yield set_cores
    assert_no_children()


def run_with(cores, count, name, params, opts=OPTS, seed=21):
    forked = cores(count)
    forked.clear()
    target = make_target(name, **params)
    result = run_multi(target, opts, seed)
    assert len(forked) == min(count, opts.num_paths) - 1
    assert (target.eval_count_grad, target.eval_count_logp) == (result.n_grad, result.n_logp)
    return result


def assert_same_result(a, b):
    assert a.draws.tobytes() == b.draws.tobytes()
    assert a.pooled.log_w_smoothed.tobytes() == b.pooled.log_w_smoothed.tobytes()
    assert (a.n_grad, a.n_logp, a.pool_n_logp) == (b.n_grad, b.n_logp, b.pool_n_logp)
    assert len(a.runs) == len(b.runs)
    for x, y in zip(a.runs, b.runs):
        assert_same_run(x, y)


def assert_same_run(x, y):
    for field in ("draws", "logq", "elbo_trace"):
        assert getattr(x, field).tobytes() == getattr(y, field).tobytes()
    assert (x.l_star, x.failed, x.num_iters, x.scored_candidates) == (
        y.l_star, y.failed, y.num_iters, y.scored_candidates)
    assert x.termination is y.termination
    assert (x.n_logp, x.n_grad, x.lbfgs_n_logp, x.lbfgs_n_grad) == (
        y.n_logp, y.n_grad, y.lbfgs_n_logp, y.lbfgs_n_grad)
    assert x.disqualified == y.disqualified
    assert (x.approx is None) == (y.approx is None)
    if x.approx is not None:
        for name, value in vars(x.approx).items():
            assert np.asarray(value).tobytes() == np.asarray(getattr(y.approx, name)).tobytes()


MVN_COV = (np.diag([4.0, 1.0, 0.25, 2.0]) + 0.3).tolist()
ROW_STABLE = [
    ("eight_schools_centered", {}),
    ("neal_funnel", {"dim": 10}),
    ("std_normal", {"dim": 4}),
    ("mvn", {"mu": [1.0, -0.5, 0.25, 0.0], "cov": MVN_COV}),
]


def ill_conditioned_mvn(dim):
    """A dense normal with eigenvalues 0.01..100, whose paths run hundreds of steps."""
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((dim, dim)))
    cov = (q * np.geomspace(0.01, 100.0, dim)) @ q.T
    return {"mu": np.linspace(-1.0, 1.0, dim).tolist(), "cov": (0.5 * (cov + cov.T)).tolist()}


def ill_conditioned_logistic(n=200, p=10):
    """Logistic data with column scales 0.1..10, whose paths run past RECOVER_CHUNK
    steps whether the optimizer's diagonal seed is ||z||^2/(s'z) or its inverse."""
    rng = np.random.default_rng(3)
    scales = np.geomspace(0.1, 10.0, p)
    X = rng.standard_normal((n, p)) * scales
    logits = X @ (rng.standard_normal(p) / scales)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    return {"X": X.tolist(), "y": y.tolist()}


# Single-mode cases whose paths run past RECOVER_CHUNK steps, so a spare core
# forks a scorer: several chunks of a row-stable target, and logistic rows.
LONG_MVN = ("mvn", ill_conditioned_mvn(10))
LONG = [LONG_MVN, ("logistic_regression", ill_conditioned_logistic())]


def single_with(cores, count, name, params, seed=21, path_index=3):
    """run_single on ``count`` usable cores; checks the fork rule and the counters."""
    forked = cores(count)
    forked.clear()
    target = make_target(name, **params)
    run = run_single(target, PathfinderOptions(), seed, path_index)
    assert len(forked) == int(count > 1 and run.num_iters >= RECOVER_CHUNK)
    assert (target.eval_count_grad, target.eval_count_logp) == (run.n_grad, run.n_logp)
    return run


class TestShardCount:
    @pytest.mark.parametrize("name, params", ROW_STABLE)
    def test_shard_count_does_not_change_output(self, cores, name, params):
        one = run_with(cores, 1, name, params)
        for count in (2, 3):
            assert_same_result(run_with(cores, count, name, params), one)

    def test_fewer_paths_than_cores(self, cores):
        opts = MultipathOptions(num_paths=2, num_resample=20,
                                single=PathfinderOptions(num_draws=20))
        one = run_with(cores, 1, "eight_schools_noncentered", {}, opts, seed=3)
        assert_same_result(run_with(cores, 5, "eight_schools_noncentered", {}, opts, seed=3), one)

    def test_logistic_repeats_at_a_fixed_shard_count(self, cores):
        # Logistic rows depend on the batch, so the output may depend on the
        # shard count; at a fixed count it must repeat bit for bit.
        params = {"n": 40, "p": 4, "data_seed": 3}
        for count in (1, 2, 3):
            assert_same_result(run_with(cores, count, "logistic_regression", params),
                               run_with(cores, count, "logistic_regression", params))

    def test_single_mode_forks_one_scorer_for_a_long_path(self, cores):
        forked = cores(4)
        capped = PathfinderOptions(num_draws=40, lbfgs=LbfgsOptions(max_iters=RECOVER_CHUNK - 1))
        short = run_single(make_target("neal_funnel", dim=10), capped, 5, path_index=3)
        assert short.num_iters < RECOVER_CHUNK and forked == []
        long = run_single(make_target("eight_schools_centered"), OPTS.single, 5, path_index=3)
        assert long.num_iters >= RECOVER_CHUNK and len(forked) == 1
        assert_no_children()


class TestSingleModeScorer:
    @pytest.mark.parametrize("name, params", ROW_STABLE + LONG)
    def test_core_count_does_not_change_single_mode_output(self, cores, name, params):
        for seed, path_index in ((21, 3), (4, 0)):
            alone = single_with(cores, 1, name, params, seed, path_index)
            assert_same_run(single_with(cores, 2, name, params, seed, path_index), alone)

    def test_long_cases_fork(self, cores):
        for name, params in LONG:
            assert single_with(cores, 2, name, params).num_iters >= RECOVER_CHUNK

    def test_interval_timer_does_not_change_output(self, cores):
        # The benchmark's Stopwatch interrupts every millisecond with SIGALRM,
        # which can cut a pipe write short.
        name, params = "mvn", ill_conditioned_mvn(30)
        alone = single_with(cores, 1, name, params)
        ticks = []
        previous = signal.signal(signal.SIGALRM, lambda *_: ticks.append(1))
        signal.setitimer(signal.ITIMER_REAL, 1e-3, 1e-3)
        try:
            timed = single_with(cores, 2, name, params)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert ticks and timed.num_iters >= 2 * RECOVER_CHUNK
        assert_same_run(timed, alone)

    def test_no_scorer_while_another_thread_runs(self, cores):
        alone = single_with(cores, 1, *LONG_MVN)
        forked = cores(2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            run = run_single(make_target(*LONG_MVN[:1], **LONG_MVN[1]), PathfinderOptions(), 21, 3)
        finally:
            stop.set()
            thread.join()
        assert forked == []
        assert_same_run(run, alone)

    def test_no_scorer_once_a_thread_has_started(self, cores, monkeypatch):
        # The rule holds when the scorer would fork, not only when the run starts.
        alone = single_with(cores, 1, *LONG_MVN)
        forked = cores(2)
        target = make_target(LONG_MVN[0], **LONG_MVN[1])
        fused, stop = target.logp_grad_many, threading.Event()
        thread = threading.Thread(target=stop.wait)

        def starting_a_thread(points):
            if target.eval_count_grad == 10:
                thread.start()
            return fused(points)

        monkeypatch.setattr(target, "logp_grad_many", starting_a_thread)
        try:
            run = run_single(target, PathfinderOptions(), 21, 3)
        finally:
            stop.set()
            thread.join()
        assert forked == [] and run.num_iters >= RECOVER_CHUNK
        assert_same_run(run, alone)


class TestCounterView:
    @pytest.mark.parametrize("count", [1, 2])
    def test_forked_evaluations_reach_the_view_and_its_base(self, cores, count):
        # A child counts its evaluations through the view; the caller adds
        # them to the view, which passes them on to its base.
        name = "eight_schools_centered"
        bare_multi = run_with(cores, count, name, {})
        bare_single = single_with(cores, count, name, {})
        assert bare_single.num_iters >= RECOVER_CHUNK  # a forked scorer at 2 cores
        base = make_target(name)
        view = CounterView(base)
        result = run_multi(view, OPTS, 21)
        assert_same_result(result, bare_multi)
        for target in (view, base):
            assert (target.eval_count_grad, target.eval_count_logp) == (result.n_grad, result.n_logp)
        base = make_target(name)
        view = CounterView(base)
        run = run_single(view, PathfinderOptions(), 21, 3)
        assert_same_run(run, bare_single)
        for target in (view, base):
            assert (target.eval_count_grad, target.eval_count_logp) == (run.n_grad, run.n_logp)


class TestRankZero:
    @pytest.mark.parametrize("count", [1, 2])
    def test_one_dimension_gives_diagonal_candidates(self, cores, count):
        # N // 2 = 0 pairs fit, so every candidate is a diagonal normal: its
        # draws' log densities depend on mu and alpha alone.
        cores(count)
        runs = [run_single(make_target("std_normal", dim=1), OPTS.single, 5, path_index=3)]
        runs += run_multi(make_target("std_normal", dim=1), OPTS, 5).runs
        for run in runs:
            approx = run.approx
            assert approx.rank == 0
            diagonal = -0.5 * np.sum(np.log(2.0 * np.pi * approx.alpha)
                                     + (run.draws - approx.mu) ** 2 / approx.alpha, axis=1)
            np.testing.assert_allclose(run.logq, diagonal, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose([eval_logq(approx, x) for x in run.draws], diagonal,
                                       rtol=0.0, atol=1e-12)


class TestOneShard:
    def test_non_linux_platform_gives_one_core(self, monkeypatch):
        assert usable_cores() == len(os.sched_getaffinity(0))
        monkeypatch.setattr(sys, "platform", "darwin")
        assert usable_cores() == 1

    def test_no_paths_give_no_runs(self, cores):
        forked = cores(3)
        assert single_path.run_paths(make_target("std_normal", dim=2), OPTS.single, 1, []) == []
        assert forked == []

    def test_no_fork_while_another_thread_runs(self, cores):
        forked = cores(3)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            run_multi(make_target("std_normal", dim=3), OPTS, 2)
        finally:
            stop.set()
            thread.join()
        assert forked == []


class ShardError(Exception):
    pass


class Unpicklable(Exception):
    """Pickles, but cannot be rebuilt from its args."""

    def __init__(self, code, detail):
        super().__init__(f"code {code}: {detail}")


class Raising(PointTarget):
    """A standard normal that raises ``make_error()`` when evaluated in ``where``."""

    def __init__(self, make_error, where="child"):
        super().__init__(3, "raising")
        self.make_error, self.where = make_error, where

    def _logp_grad_point(self, theta):
        if (os.getpid() == PARENT) == (self.where == "parent"):
            raise self.make_error()
        return -0.5 * float(theta @ theta), -theta


class TestErrors:
    def test_child_error_keeps_type_and_message(self, cores):
        cores(2)
        with pytest.raises(ShardError, match="^bad density in a child$"):
            run_multi(Raising(lambda: ShardError("bad density in a child")), OPTS, 1)

    @pytest.mark.parametrize("make_error", [
        lambda: ShardError("holds a lock", threading.Lock()),
        lambda: Unpicklable(7, "no rebuild"),
    ], ids=["cannot_pickle", "cannot_unpickle"])
    def test_unpicklable_child_error_comes_back_as_runtime_error(self, cores, make_error):
        cores(3)
        with pytest.raises(RuntimeError, match="(?s)path shard error:.*_logp_grad_point"):
            run_multi(Raising(make_error), OPTS, 1)

    def test_child_that_dies_without_a_reply_is_an_error(self, cores):
        cores(2)
        with pytest.raises(RuntimeError, match="a path shard died unanswered"):
            run_multi(Raising(lambda: os._exit(3)), OPTS, 1)

    def test_own_shard_error_kills_the_children(self, cores):
        forked = cores(3)
        with pytest.raises(ShardError, match="in the caller"):
            run_multi(Raising(lambda: ShardError("in the caller"), where="parent"), OPTS, 1)
        assert len(forked) == 2  # both reaped: the fixture finds no child left

    def test_singular_direction_in_a_child_ends_only_its_path(self, cores, monkeypatch):
        # Every direction with pairs lacks a valid E in the child only: run_multi
        # completes, each of the child's paths ends as line_search_fail exactly
        # as run_single ends it when poisoned everywhere, and each path of the
        # caller's shard equals its unpoisoned run.
        name = "eight_schools_noncentered"
        clean = run_with(cores, 2, name, {}, seed=3)
        stacked_directions = lbfgs.stacked_directions

        def singular(everywhere):
            def directions(S, Z, alpha, grad):
                deltas, ok = stacked_directions(S, Z, alpha, grad)
                if S.shape[2] > 0 and (everywhere or os.getpid() != PARENT):
                    ok = np.zeros_like(ok)
                return deltas, ok
            return directions

        monkeypatch.setattr(lbfgs, "stacked_directions", singular(False))
        sharded = run_with(cores, 2, name, {}, seed=3)
        monkeypatch.setattr(lbfgs, "stacked_directions", singular(True))
        child = range(OPTS.num_paths // 2, OPTS.num_paths)  # the second shard's paths
        for i, run in enumerate(sharded.runs):
            if i in child:
                assert run.termination is lbfgs.Termination.LINE_SEARCH_FAIL
                assert run.num_iters < clean.runs[i].num_iters
                assert_same_run(run, run_single(make_target(name), OPTS.single, 3, path_index=i))
            else:
                assert_same_run(run, clean.runs[i])

    def test_refused_initial_point_in_a_child_is_a_failed_run(self, cores):
        class Walled(PointTarget):
            def __init__(self):
                super().__init__(2, "walled")

            def _logp_grad_point(self, theta):
                if theta[0] > 1.5:
                    return -np.inf, np.full(2, np.nan)
                return -50.0 * float(theta @ theta), -100.0 * theta

        opts = MultipathOptions(num_paths=8, num_resample=20,
                                single=PathfinderOptions(num_draws=10))
        cores(2)
        result = run_multi(Walled(), opts, seed=4)
        starts = [initial_point(2, opts.single, 4, i) for i in range(8)]
        refused = [i for i in range(4, 8) if starts[i][0] > 1.5]  # the child's shard
        assert refused
        for i in refused:
            run = result.runs[i]
            assert run.failed and run.logq.tolist() == [np.inf]
            np.testing.assert_array_equal(run.draws, starts[i][None, :])


class Walled(PointTarget):
    """A narrow normal whose density is refused past theta_0 = 1.5."""

    def __init__(self):
        super().__init__(2, "walled")

    def _logp_grad_point(self, theta):
        if theta[0] > 1.5:
            return -np.inf, np.full(2, np.nan)
        return -50.0 * float(theta @ theta), -100.0 * theta


class TestRefusedStart:
    @pytest.mark.parametrize("count", [1, 2])
    def test_refused_start_ends_as_nonfinite_at_init(self, cores, count):
        # The path stops for a stated reason with its start as the one draw,
        # in single mode and in every shard of run_multi.
        cores(count)
        opts = MultipathOptions(num_paths=8, num_resample=20,
                                single=PathfinderOptions(num_draws=10))
        starts = [initial_point(2, opts.single, 9, i) for i in range(8)]
        refused = [i for i in range(8) if starts[i][0] > 1.5]
        assert refused and refused[0] < 4 <= refused[-1]  # one in each shard at 2 cores
        result = run_multi(Walled(), opts, seed=9)
        for i in range(8):
            run, alone = result.runs[i], run_single(Walled(), opts.single, 9, path_index=i)
            assert_same_run(run, alone)
            if i in refused:
                assert run.termination is lbfgs.Termination.NONFINITE_AT_INIT
                assert (run.num_iters, run.n_grad, run.n_logp, run.failed) == (0, 1, 1, True)
                assert run.draws.tobytes() == starts[i][None, :].tobytes()
                assert run.logq.tolist() == [np.inf]


class Ledge(PointTarget):
    """A narrow normal, flat (zero gradient) past theta_0 = 1 and refused below theta_0 = -1."""

    def __init__(self):
        super().__init__(2, "ledge")

    def _logp_grad_point(self, theta):
        if theta[0] < -1.0:
            return -np.inf, np.full(2, np.nan)
        if theta[0] > 1.0:
            return -1e3, np.zeros(2)
        return -50.0 * float(theta @ theta), -100.0 * theta


class TestZeroStepPaths:
    @pytest.mark.parametrize("count", [1, 2])
    def test_zero_step_paths_in_a_shard_get_the_sentinel_run(self, cores, count):
        # A shard's scorer takes its zero-step paths with the others: each
        # gets the failed run at its start, and no other path changes.
        cores(count)
        opts = MultipathOptions(num_paths=8, num_resample=20,
                                single=PathfinderOptions(num_draws=10))
        starts = [initial_point(2, opts.single, 9, i) for i in range(8)]
        flat, refused = lbfgs.Termination.ZERO_GRADIENT_AT_INIT, lbfgs.Termination.NONFINITE_AT_INIT
        stops = {i: flat if start[0] > 1.0 else refused
                 for i, start in enumerate(starts) if abs(start[0]) > 1.0}
        for shard in (range(4), range(4, 8)):  # each shard at 2 cores has every kind
            assert {stops.get(i) for i in shard} == {flat, refused, None}
        result = run_multi(Ledge(), opts, seed=9)
        for i, run in enumerate(result.runs):
            if i not in stops:
                assert not run.failed and run.num_iters > 0
                assert_same_run(run, run_single(Ledge(), opts.single, 9, path_index=i))
                continue
            assert (run.termination, run.num_iters, run.failed) == (stops[i], 0, True)
            assert run.draws.tobytes() == starts[i][None, :].tobytes()
            assert run.logq.tolist() == [np.inf]
            assert run.elbo_trace.size == 0 and run.scored_candidates == 0
            assert run.n_logp == run.lbfgs_n_logp


class TestScorerErrors:
    """A lone path's forked scorer follows the shards' rules on errors."""

    def patched_target(self, monkeypatch, method, replacement):
        target = make_target(LONG_MVN[0], **LONG_MVN[1])
        monkeypatch.setattr(target, method, replacement(getattr(target, method)))
        return target

    @pytest.mark.parametrize("count", [1, 2])
    def test_scoring_runs_under_the_callers_error_state(self, cores, monkeypatch, count):
        # The scorer forks inside the optimizer loop, which ignores overflow;
        # scoring must still see the caller's error state, as in process.
        def overflowing(logp_many):
            def call(points):
                if len(points) > 1:  # scoring blocks; the line search sends one row
                    np.exp(np.array([1e3]))
                return logp_many(points)
            return call

        forked = cores(count)
        target = self.patched_target(monkeypatch, "logp_many", overflowing)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            run_single(target, PathfinderOptions(), 21, 3)
        assert len(forked) == count - 1

    def test_scoring_error_keeps_type_and_message(self, cores, monkeypatch):
        def in_the_scorer(logp_many):
            def call(points):
                if os.getpid() != PARENT:
                    raise ShardError("bad density in the scorer")
                return logp_many(points)
            return call

        forked = cores(2)
        target = self.patched_target(monkeypatch, "logp_many", in_the_scorer)
        with pytest.raises(ShardError, match="^bad density in the scorer$"):
            run_single(target, PathfinderOptions(), 21, 3)
        assert len(forked) == 1

    def test_scorer_that_dies_without_a_reply_is_an_error(self, cores, monkeypatch):
        # The scorer leaves at its first chunk, so the caller's later chunks
        # meet a closed pipe: the error must say the scorer died.
        def dying(logp_many):
            def call(points):
                if os.getpid() != PARENT:
                    os._exit(3)
                return logp_many(points)
            return call

        cores(2)
        target = self.patched_target(monkeypatch, "logp_many", dying)
        with pytest.raises(RuntimeError, match="a path shard died unanswered"):
            run_single(target, PathfinderOptions(), 21, 3)

    def test_optimizer_error_after_the_fork_kills_the_scorer(self, cores, monkeypatch):
        def failing_late(logp_grad_many):
            calls = []

            def call(points):
                calls.append(len(points))
                if len(calls) > 2 * RECOVER_CHUNK:
                    raise ShardError("optimizer failed in the caller")
                return logp_grad_many(points)
            return call

        forked = cores(2)
        target = self.patched_target(monkeypatch, "logp_grad_many", failing_late)
        with pytest.raises(ShardError, match="optimizer failed in the caller"):
            run_single(target, PathfinderOptions(), 21, 3)
        assert len(forked) == 1  # and reaped: the fixture finds no child left

    def test_scorer_leaves_when_its_caller_dies(self, cores, monkeypatch):
        # A caller that dies without raising kills no scorer, so the scorer
        # must see its feed close and leave.  Both hold ``holders``' write end,
        # so its read end reaches EOF once both have gone.
        def dying_late(logp_grad_many):
            calls = []

            def call(points):
                calls.append(len(points))
                if len(calls) > 2 * RECOVER_CHUNK:
                    os._exit(0)
                return logp_grad_many(points)
            return call

        holders, holding = os.pipe()
        caller = os.fork()
        if caller == 0:
            try:
                os.close(holders)
                cores(2)
                run_single(self.patched_target(monkeypatch, "logp_grad_many", dying_late),
                           PathfinderOptions(), 21, 3)
            finally:
                os._exit(1)
        os.close(holding)
        try:
            assert select.select([holders], [], [], 60)[0] and os.read(holders, 1) == b""
        finally:
            os.close(holders)
            assert os.waitpid(caller, 0)[1] == 0  # it died in its target, mid-run


def test_sharded_run_loads_no_process_pool_module():
    # os and pickle are loaded by ``import pathfinder``; sharding must not
    # add the import cost of multiprocessing or concurrent.futures.
    from test_imports import run_fresh

    loaded = run_fresh(
        "import json, sys\n"
        "from pathfinder import MultipathOptions, make_target, run_multi, single_path\n"
        "single_path.usable_cores = lambda: 2\n"
        "opts = MultipathOptions(num_paths=4, num_resample=20)\n"
        "run_multi(make_target('std_normal', dim=3), opts, 1)\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] in ('multiprocessing', 'concurrent'))))")
    assert loaded == []


def test_single_mode_scorer_loads_no_process_pool_module():
    from test_imports import run_fresh

    loaded = run_fresh(
        "import json, sys\n"
        "from pathfinder import PathfinderOptions, make_target, run_single, single_path\n"
        "single_path.usable_cores = lambda: 2\n"
        "run = run_single(make_target('eight_schools_centered'), PathfinderOptions(), 1)\n"
        "assert run.num_iters >= 64, run.num_iters\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] in ('multiprocessing', 'concurrent'))))")
    assert loaded == []
