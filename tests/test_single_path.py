"""Tests for the single-path driver."""

import numpy as np
import pytest

from pathfinder import (
    AllFailedError,
    PathfinderOptions,
    Termination,
    make_target,
    run_single,
    select_argmax,
)
from pathfinder.targets import LogDensityTarget


class Plateau(LogDensityTarget):
    """Constant log density: zero gradient everywhere."""

    def __init__(self, dim=3):
        super().__init__(dim, "plateau")

    def _logp_grad_impl(self, theta):
        return -1.0, np.zeros(self.dim)


class TestSelectArgmax:
    def test_max_selected(self):
        assert select_argmax([-5.0, -1.0, -3.0]) == 2

    def test_ties_break_to_earliest(self):
        assert select_argmax([-1.0, -1.0]) == 1

    def test_all_failed(self):
        with pytest.raises(AllFailedError):
            select_argmax([-np.inf, -np.inf])
        with pytest.raises(AllFailedError):
            select_argmax([])

    def test_non_finite_entries_skipped(self):
        assert select_argmax([-np.inf, -2.0, np.nan, -1.0]) == 4


class TestStdNormalRecovery:
    def test_selected_approximation_recovers_target(self):
        target = make_target("std_normal", dim=5)
        run = run_single(target, PathfinderOptions(), seed=7)
        assert not run.failed
        assert np.abs(run.approx.mu).max() <= 0.05
        from pathfinder import sample

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


def test_output_draw_count_matches_options():
    target = make_target("std_normal", dim=2)
    run = run_single(target, PathfinderOptions(num_draws=37), seed=0)
    assert run.draws.shape == (37, 2)
    assert run.logq.shape == (37,)
