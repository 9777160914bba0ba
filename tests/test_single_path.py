"""Tests for the single-path driver."""

import numpy as np
import pytest

from pathfinder import (
    LbfgsOptions,
    MultipathOptions,
    PathfinderOptions,
    Termination,
    elbo,
    make_target,
    run_multi,
    run_single,
    single_path,
)
from pathfinder.inv_hessian import RECOVER_CHUNK

from oracles import PointTarget, select_argmax


class Plateau(PointTarget):
    """Constant log density: zero gradient everywhere."""

    def __init__(self, dim=3):
        super().__init__(dim, "plateau")

    def _logp_grad_point(self, theta):
        return -1.0, np.zeros(self.dim)


def record_fused_logps(target):
    """Log, on the target instance, each fused evaluation's log density (None if refused)."""
    logps = []
    evaluate = target._evaluate

    def recording(points, need_grad):
        answer = evaluate(points, need_grad)
        if need_grad:
            logp, _, ok = answer
            logps.extend(value if good else None for value, good in zip(logp.tolist(), ok.tolist()))
        return answer

    target._evaluate = recording
    return logps


class TestSelectArgmax:
    def test_max_selected(self):
        assert select_argmax([-5.0, -1.0, -3.0]) == 2

    def test_ties_break_to_earliest(self):
        assert select_argmax([-1.0, -1.0]) == 1

    def test_all_failed(self):
        with pytest.raises(ValueError):
            select_argmax([-np.inf, -np.inf])
        with pytest.raises(ValueError):
            select_argmax([])

    def test_non_finite_entries_skipped(self):
        assert select_argmax([-np.inf, -2.0, np.nan, -1.0]) == 4


@pytest.mark.parametrize("block_floats", [single_path.BLOCK_FLOATS, 1])
def test_equal_elbos_go_to_each_paths_first_scored_candidate(monkeypatch, block_floats):
    # With every ELBO equal, each path's winner must be its first scored
    # candidate, whatever blocks, chunks and shards its candidates are scored
    # in, and in the forked single-mode scorer too: ties break toward the
    # earliest, as in select_argmax.  The patch reaches forked children.
    # With one pair of history nearly every candidate has one pair, so a
    # path's first candidates share their block with its later ones.
    monkeypatch.setattr(single_path, "BLOCK_FLOATS", block_floats)
    monkeypatch.setattr(elbo, "elbo_estimate", lambda logp, logq: np.zeros(np.shape(logp)[:-1]))
    target = make_target("eight_schools_centered")
    runs = []
    for history in (6, 1):
        opts = MultipathOptions(num_paths=6, num_resample=30, single=PathfinderOptions(
            lbfgs=LbfgsOptions(history_size=history)))
        runs.append(run_single(target, opts.single, 10))
        assert runs[-1].num_iters > 2 * RECOVER_CHUNK
        runs += run_multi(target, opts, seed=10).runs
    for run in runs:
        scored = np.flatnonzero(run.elbo_trace == 0.0)
        assert scored.size == run.scored_candidates > 0
        assert run.l_star == scored[0] + 1 == select_argmax(run.elbo_trace)


class TestStdNormalRecovery:
    def test_selected_approximation_recovers_target(self):
        target = make_target("std_normal", dim=5)
        run = run_single(target, PathfinderOptions(), seed=7)
        assert not run.failed
        assert np.abs(run.approx.mu).max() <= 0.05
        from pathfinder.normal_approx import sample

        batch = sample(run.approx, 10_000, np.random.default_rng(2))
        emp_cov = np.cov(batch.draws.T)
        assert np.abs(emp_cov - np.eye(5)).max() < 0.05
        assert np.abs(batch.draws.mean(axis=0)).max() < 0.05


class TestFailureSentinel:
    def test_plateau_fails_with_sentinel(self):
        target = Plateau()
        run = run_single(target, PathfinderOptions(), seed=0)
        assert run.failed
        assert run.draws.shape == (1, 3)
        assert run.logq[0] == np.inf
        assert run.l_star is None
        assert run.termination is Termination.ZERO_GRADIENT_AT_INIT

    def test_sentinel_draw_is_last_trajectory_point(self):
        # the plateau fails at the init point itself
        target = Plateau()
        run = run_single(target, PathfinderOptions(init_radius=0.5), seed=3)
        assert run.failed
        assert np.all(np.abs(run.draws[0]) <= 0.5)


class TestFunnelSelection:
    def test_interior_candidate_usually_wins(self):
        target = make_target("neal_funnel", dim=2)
        opts = PathfinderOptions()
        interior = 0
        for seed in range(30):
            run = run_single(target, opts, seed=seed)
            if not run.failed and run.l_star < run.num_iters:
                interior += 1
        assert interior >= 25


class TestCounters:
    def test_accounting_identities(self):
        target = make_target("eight_schools_centered")
        opts = PathfinderOptions()
        run = run_single(target, opts, seed=11)
        assert run.n_grad == run.lbfgs_n_grad
        assert run.n_logp == run.lbfgs_n_logp + opts.elbo_draws * run.scored_candidates
        assert run.n_logp >= opts.elbo_draws * run.scored_candidates
        # the shared target accumulated exactly this run's evaluations
        assert target.eval_count_logp == run.n_logp
        assert target.eval_count_grad == run.n_grad

    @pytest.mark.parametrize("name, params", [
        ("std_normal", {"dim": 4}), ("mvn", {"dim": 3}), ("neal_funnel", {"dim": 5}),
        ("eight_schools_centered", {}), ("eight_schools_noncentered", {}),
        ("logistic_regression", {"n": 30, "p": 3}),
    ])
    def test_one_gradient_per_accepted_step(self, name, params):
        # Line-search trials are logp-only, so the optimizer's gradients are
        # one at the start and one per accepted step, plus one for each fused
        # evaluation that was refused or did not beat the best so far.
        opts = PathfinderOptions(num_draws=20, lbfgs=LbfgsOptions(max_iters=200))
        extras = []
        for path_index in range(4):
            target = make_target(name, **params)
            logps = record_fused_logps(target)
            run = run_single(target, opts, seed=11, path_index=path_index)
            best, extra = -np.inf, 0
            for logp in logps:
                if logp is None or logp <= best:
                    extra += 1
                else:
                    best = logp
            assert run.lbfgs_n_grad == len(logps) == run.num_iters + 1 + extra
            extras.append(extra)
        assert 0 in extras

    def test_elbo_adds_no_gradient_evaluations(self):
        target = make_target("std_normal", dim=4)
        run = run_single(target, PathfinderOptions(), seed=5)
        assert target.eval_count_grad == run.lbfgs_n_grad


class TestReproducibility:
    def test_same_seed_bit_identical(self):
        opts = PathfinderOptions()
        runs = []
        for _ in range(2):
            target = make_target("neal_funnel", dim=3)
            runs.append(run_single(target, opts, seed=42))
        a, b = runs
        np.testing.assert_array_equal(a.draws, b.draws)
        np.testing.assert_array_equal(a.logq, b.logq)
        np.testing.assert_array_equal(a.elbo_trace, b.elbo_trace)
        assert a.l_star == b.l_star

    def test_distinct_paths_differ(self):
        target = make_target("std_normal", dim=3)
        r0 = run_single(target, PathfinderOptions(), seed=1, path_index=0)
        r1 = run_single(target, PathfinderOptions(), seed=1, path_index=1)
        assert not np.array_equal(r0.draws, r1.draws)

    @pytest.mark.parametrize("seed", [1.5, True, -1, np.float64(2.0)])
    def test_a_bad_seed_is_refused_before_any_evaluation(self, seed):
        target = make_target("eight_schools_noncentered")
        with pytest.raises(ValueError, match="^seed must be an integer"):
            run_single(target, PathfinderOptions(), seed=seed)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            run_multi(target, MultipathOptions(), seed=seed)
        assert (target.eval_count_grad, target.eval_count_logp) == (0, 0)

    @pytest.mark.parametrize("path_index", [1.5, True, -1, 2**32])
    def test_a_bad_path_index_is_refused_before_any_evaluation(self, path_index):
        target = make_target("eight_schools_noncentered")
        with pytest.raises(ValueError, match="^path_index must be an integer"):
            run_single(target, PathfinderOptions(), seed=1, path_index=path_index)
        assert (target.eval_count_grad, target.eval_count_logp) == (0, 0)

    def test_integer_keys_of_any_size_and_type_are_taken(self):
        # A numpy integer is the same key as the Python one, and a seed takes
        # any number of words.
        target = make_target("std_normal", dim=2)
        want = run_single(target, PathfinderOptions(), seed=7, path_index=3)
        got = run_single(target, PathfinderOptions(), seed=np.int64(7), path_index=np.uint32(3))
        np.testing.assert_array_equal(got.draws, want.draws)
        big = run_single(target, PathfinderOptions(), seed=2**70, path_index=2**32 - 1)
        assert not big.failed and not np.array_equal(big.draws, want.draws)


def test_output_draw_count_matches_options():
    target = make_target("std_normal", dim=2)
    run = run_single(target, PathfinderOptions(num_draws=37), seed=0)
    assert run.draws.shape == (37, 2)
    assert run.logq.shape == (37,)
