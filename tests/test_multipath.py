"""Tests for pooling, Pareto smoothing, and importance resampling."""

import numpy as np
import pytest

from pathfinder import (
    AllPathsFailedError,
    LbfgsOptions,
    MultipathOptions,
    NoFiniteWeightsError,
    PathfinderOptions,
    Termination,
    inv_hessian,
    lbfgs,
    make_target,
    run_multi,
    run_single,
    single_path,
)
from pathfinder.lbfgs import optimize
from pathfinder.multipath import (
    KHAT_SENTINEL, fit_generalized_pareto, pool_runs, psis_smooth, resample, tail_length,
)
from pathfinder.single_path import PathfinderRun, initial_point

from oracles import PointTarget, gpd_sample
from test_shards import assert_same_run


class Plateau(PointTarget):
    def __init__(self, dim=2):
        super().__init__(dim, "plateau")

    def _logp_grad_point(self, theta):
        return -1.0, np.zeros(self.dim)


def failed_run(point):
    point = np.asarray(point, dtype=float)
    return PathfinderRun(
        draws=point[None, :],
        logq=np.array([np.inf]),
        elbo_trace=np.array([]),
        l_star=None,
        failed=True,
        n_logp=1,
        n_grad=1,
        num_iters=0,
        termination=None,
        scored_candidates=0,
        lbfgs_n_logp=1,
        lbfgs_n_grad=1,
    )


class TestTailLength:
    def test_rule(self):
        assert tail_length(4000) == min(int(np.ceil(0.2 * 4000)), int(np.ceil(3 * np.sqrt(4000))))
        assert tail_length(100) == 20
        assert tail_length(25) == 5


class TestGeneralizedParetoFit:
    def test_recovers_known_shapes(self):
        rng = np.random.default_rng(0)
        for k in (0.2, 0.5, 0.8):
            x = gpd_sample(rng, k, 1.0, 4000)
            k_hat, sigma = fit_generalized_pareto(x)
            assert abs(k_hat - k) < 0.05
            assert 0.8 < sigma < 1.25

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            fit_generalized_pareto(np.zeros(100))
        with pytest.raises(ValueError):
            fit_generalized_pareto([1.0, 2.0])


class TestPsisSmooth:
    def test_equal_weights_pass_through(self):
        log_w = np.full(200, -3.0)
        smoothed, k_hat = psis_smooth(log_w)
        np.testing.assert_array_equal(smoothed, log_w)
        assert k_hat == KHAT_SENTINEL

    def test_pareto_tail_recovered(self):
        # raw weights drawn from a generalized Pareto with shape 0.5: the
        # fitted shape must land near the truth (single seeded instance)
        rng = np.random.default_rng(42)
        w = gpd_sample(rng, 0.5, 1.0, 4000) + 0.1
        smoothed, k_hat = psis_smooth(np.log(w))
        assert 0.4 <= k_hat <= 0.6

    def test_minus_inf_passes_through(self):
        rng = np.random.default_rng(3)
        log_w = np.log(gpd_sample(rng, 0.3, 1.0, 500) + 0.05)
        log_w[7] = -np.inf
        smoothed, _ = psis_smooth(log_w)
        assert smoothed[7] == -np.inf
        assert np.isfinite(smoothed[np.arange(500) != 7]).all()

    def test_smoothed_capped_at_raw_maximum(self):
        rng = np.random.default_rng(8)
        log_w = np.log(gpd_sample(rng, 0.7, 1.0, 1000) + 0.01)
        smoothed, _ = psis_smooth(log_w)
        assert smoothed.max() <= log_w.max() + 1e-12

    def test_non_tail_weights_untouched(self):
        rng = np.random.default_rng(5)
        log_w = np.log(gpd_sample(rng, 0.4, 1.0, 400) + 0.01)
        smoothed, _ = psis_smooth(log_w.copy())
        m = tail_length(400)
        order = np.argsort(log_w)
        body = order[: 400 - m]
        np.testing.assert_array_equal(smoothed[body], log_w[body])

    def test_small_samples_returned_raw(self):
        log_w = np.array([-1.0, -2.0, -0.5])
        smoothed, k_hat = psis_smooth(log_w)
        np.testing.assert_array_equal(smoothed, log_w)
        assert k_hat == KHAT_SENTINEL

    def test_no_finite_weights(self):
        with pytest.raises(NoFiniteWeightsError):
            psis_smooth(np.array([-np.inf, -np.inf]))

    def test_variance_reduced_on_heavy_tails(self):
        rng = np.random.default_rng(11)
        log_w = np.log(gpd_sample(rng, 0.9, 1.0, 2000) + 0.01)
        smoothed, _ = psis_smooth(log_w.copy())

        def norm_var(lw):
            w = np.exp(lw - lw.max())
            w = w / w.sum()
            return float(np.var(w))

        assert norm_var(smoothed) <= norm_var(log_w) + 1e-15


class TestResample:
    def test_all_weight_on_one_index(self):
        log_w = np.full(10, -np.inf)
        log_w[3] = 0.0
        idx = resample(np.zeros((10, 1)), log_w, 50, np.random.default_rng(0))
        assert np.all(idx == 3)

    def test_two_equal_weights_split_evenly(self):
        log_w = np.array([1.0, 1.0])
        idx = resample(np.zeros((2, 1)), log_w, 10_000, np.random.default_rng(1))
        count = int(np.sum(idx == 0))
        # binomial(10^4, 1/2): 3 sigma = 150
        assert abs(count - 5000) <= 150

    def test_multinomial_frequencies(self):
        log_w = np.log(np.array([2.0, 1.0, 1.0]))
        idx = resample(np.zeros((3, 1)), log_w, 10_000, np.random.default_rng(2))
        freq0 = np.mean(idx == 0)
        assert abs(freq0 - 0.5) <= 3 * np.sqrt(0.25 / 10_000)

    def test_deterministic_under_seed(self):
        log_w = np.random.default_rng(5).normal(size=100)
        i1 = resample(np.zeros((100, 1)), log_w, 500, np.random.default_rng(9))
        i2 = resample(np.zeros((100, 1)), log_w, 500, np.random.default_rng(9))
        np.testing.assert_array_equal(i1, i2)

    def test_no_finite_weights(self):
        with pytest.raises(NoFiniteWeightsError):
            resample(np.zeros((2, 1)), np.array([-np.inf, -np.inf]), 5,
                     np.random.default_rng(0))


class TestPooling:
    def test_n1_mixture_factors_cancel(self):
        # scoring against the augmented equally-weighted mixture target is
        # identical to scoring against the component: the log(I) terms cancel
        # algebraically, so the explicitly discounted form agrees with the
        # stored weights to float roundoff
        target = make_target("std_normal", dim=3)
        runs = [run_single(target, PathfinderOptions(num_draws=50), seed=0, path_index=i)
                for i in range(4)]
        pooled = pool_runs(runs, target)
        num_components = 4
        log_q_tilde = pooled.log_q - np.log(num_components)
        log_p_tilde = pooled.log_p - np.log(num_components)
        np.testing.assert_allclose(log_p_tilde - log_q_tilde, pooled.log_w_raw,
                                   rtol=0, atol=1e-12)

    def test_normalization_constant_invariance(self):
        rng = np.random.default_rng(0)
        log_w = rng.normal(size=300)
        i1 = resample(np.zeros((300, 1)), log_w, 200, np.random.default_rng(4))
        i2 = resample(np.zeros((300, 1)), log_w + 123.4, 200, np.random.default_rng(4))
        np.testing.assert_array_equal(i1, i2)

    def test_failed_component_never_resampled(self):
        target = make_target("std_normal", dim=2)
        good = run_single(target, PathfinderOptions(), seed=1, path_index=0)
        bad = failed_run([5.0, 5.0])
        pooled = pool_runs([good, bad], target)
        assert pooled.log_w_raw[-1] == -np.inf
        smoothed, _ = psis_smooth(pooled.log_w_raw)
        idx = resample(pooled.draws, smoothed, 100_000, np.random.default_rng(0))
        assert np.all(pooled.component_ids[idx] == 0)

    def test_pool_counts_logp_once_per_draw(self):
        # Refused rows, a non-finite input or a density that overflows, count
        # as evaluations too, as the target counts them.
        target = make_target("std_normal", dim=2)
        good = [run_single(target, PathfinderOptions(num_draws=30), seed=0, path_index=i)
                for i in range(3)]
        for refused in ([], [[np.nan, 0.0], [1e200, 0.0]]):
            runs = good + [failed_run(point) for point in refused]
            rows = 90 + len(refused)
            before = (target.eval_count_logp, target.eval_count_grad)
            pooled = pool_runs(runs, target)
            assert (target.eval_count_logp, target.eval_count_grad) == (before[0] + rows, before[1])
            assert pooled.draws.shape == (rows, 2)
            assert np.all(pooled.log_p[90:] == -np.inf)
            assert np.all(pooled.log_w_raw[90:] == -np.inf)
            for run in runs:
                assert run.logp is not None and len(run.logp) == len(run.draws)


class TestRunMulti:
    def test_std_normal_resampled_mean(self):
        target = make_target("std_normal", dim=3)
        opts = MultipathOptions(num_paths=4, num_resample=400,
                                single=PathfinderOptions(num_draws=200))
        res = run_multi(target, opts, seed=3)
        assert res.draws.shape == (400, 3)
        assert not any(r.failed for r in res.runs)
        # mean of resampled draws within 3 standard errors of zero
        se = 1.0 / np.sqrt(400)
        assert np.abs(res.draws.mean(axis=0)).max() < 3 * se

    def test_self_normalized_estimate_matches_true_mean(self):
        rng = np.random.default_rng(1)
        cov = np.array([[1.0, 0.4, 0.0], [0.4, 1.0, 0.2], [0.0, 0.2, 0.8]])
        mu = np.array([0.5, -1.0, 0.25])
        target = make_target("mvn", mu=mu.tolist(), cov=cov.tolist())
        opts = MultipathOptions(num_paths=4, num_resample=100,
                                single=PathfinderOptions(num_draws=200))
        res = run_multi(target, opts, seed=5)
        lw = res.pooled.log_w_smoothed
        fin = np.isfinite(lw)
        w = np.exp(lw[fin] - lw[fin].max())
        w = w / w.sum()
        est = w @ res.pooled.draws[fin]
        # delta-method standard error of the self-normalized estimator
        for j in range(3):
            se = np.sqrt(np.sum(w**2 * (res.pooled.draws[fin, j] - est[j]) ** 2))
            assert abs(est[j] - mu[j]) < 3 * se + 1e-3

    def test_counters_reconcile(self):
        target = make_target("std_normal", dim=2)
        opts = MultipathOptions(num_paths=3, num_resample=50,
                                single=PathfinderOptions(num_draws=40))
        res = run_multi(target, opts, seed=0)
        assert res.n_logp == sum(r.n_logp for r in res.runs) + res.pool_n_logp
        assert res.pool_n_logp == len(res.pooled.draws) == 3 * 40
        assert res.n_grad == sum(r.n_grad for r in res.runs)
        assert target.eval_count_logp == res.n_logp
        assert target.eval_count_grad == res.n_grad

    def test_all_paths_failed(self):
        with pytest.raises(AllPathsFailedError):
            run_multi(Plateau(), MultipathOptions(num_paths=3, num_resample=10), seed=0)

    def test_repeat_run_is_bit_identical(self):
        outs = []
        for _ in range(2):
            target = make_target("neal_funnel", dim=3)
            opts = MultipathOptions(num_paths=4, num_resample=50)
            outs.append(run_multi(target, opts, seed=7))
        np.testing.assert_array_equal(outs[0].draws, outs[1].draws)
        np.testing.assert_array_equal(outs[0].indices, outs[1].indices)
        np.testing.assert_array_equal(outs[0].pooled.log_w_smoothed,
                                      outs[1].pooled.log_w_smoothed)

    def test_resample_budget_validated(self):
        with pytest.raises(ValueError):
            MultipathOptions(num_paths=2, num_resample=300,
                             single=PathfinderOptions(num_draws=100))


class TestLockstep:
    """``run_multi`` advances its paths together, at most two batched target
    calls per round (logp-only trials and fused evaluations); wherever a batched row equals the per-point evaluation, each path
    must equal the path ``run_single`` runs alone."""

    @pytest.mark.parametrize("name, params", [
        ("std_normal", {"dim": 4}),
        ("neal_funnel", {"dim": 5}),
        ("eight_schools_centered", {}),
        ("eight_schools_noncentered", {}),
    ])
    def test_each_path_equals_run_single(self, name, params):
        opts = MultipathOptions(num_paths=5, num_resample=50, single=PathfinderOptions(
            num_draws=40, lbfgs=LbfgsOptions(max_iters=150)))
        target = make_target(name, **params)
        res = run_multi(target, opts, seed=21)
        for i, run in enumerate(res.runs):
            alone = run_single(make_target(name, **params), opts.single, 21, path_index=i)
            assert run.failed == alone.failed and run.l_star == alone.l_star
            assert run.termination is alone.termination
            for field in ("draws", "logq", "elbo_trace"):
                np.testing.assert_array_equal(getattr(run, field), getattr(alone, field))
            assert (run.n_logp, run.n_grad, run.lbfgs_n_logp, run.lbfgs_n_grad) == (
                alone.n_logp, alone.n_grad, alone.lbfgs_n_logp, alone.lbfgs_n_grad)
            assert run.disqualified == alone.disqualified
            assert (run.scored_candidates, run.num_iters) == (
                alone.scored_candidates, alone.num_iters)
        assert target.eval_count_grad == res.n_grad
        assert target.eval_count_logp == res.n_logp

    def test_disqualified_candidate_leaves_other_paths_alone(self, monkeypatch):
        # Break the inner matrix of one candidate in a scoring block that
        # holds several paths: only that path loses that candidate, and every
        # other path still equals run_single.
        name = "eight_schools_noncentered"
        opts = MultipathOptions(num_paths=5, num_resample=50, single=PathfinderOptions(
            num_draws=40, lbfgs=LbfgsOptions(max_iters=150)))
        window, stacked_factors = single_path.window, single_path.stacked_factors
        segments, hit = [], []

        def remember_segment(recovery, iters, num_pairs):
            segments.append((recovery.thetas[0], len(iters)))
            return window(recovery, iters, num_pairs)

        def break_one_row(S, Z, alpha):
            factors, ok = stacked_factors(S, Z, alpha)
            block = list(segments)
            segments.clear()
            row = block[0][1]  # the first candidate of the block's second path
            if not hit and len(block) >= 2 and factors.num_pairs > 0 and ok[row]:
                factors.gamma[row] = -50.0 * np.eye(factors.rank)
                hit.append(block[1][0])
            return factors, ok

        # One shard: the patches record what they saw, and a forked child's
        # records would stay in the child.
        monkeypatch.setattr(single_path, "usable_cores", lambda: 1)
        monkeypatch.setattr(single_path, "window", remember_segment)
        monkeypatch.setattr(single_path, "stacked_factors", break_one_row)
        res = run_multi(make_target(name), opts, seed=21)
        monkeypatch.undo()

        assert hit
        starts = [initial_point(10, opts.single, 21, i) for i in range(5)]
        victim = [i for i, start in enumerate(starts) if np.array_equal(start, hit[0])]
        assert len(victim) == 1
        for i, run in enumerate(res.runs):
            alone = run_single(make_target(name), opts.single, 21, path_index=i)
            if i == victim[0]:
                assert run.disqualified["cholesky"] == alone.disqualified["cholesky"] + 1
                assert run.scored_candidates == alone.scored_candidates - 1
                assert run.n_logp == alone.n_logp - opts.single.elbo_draws
                changed = np.flatnonzero(run.elbo_trace != alone.elbo_trace)
                assert changed.size <= 1 and np.all(run.elbo_trace[changed] == -np.inf)
                continue
            for field in ("draws", "elbo_trace"):
                np.testing.assert_array_equal(getattr(run, field), getattr(alone, field))
            assert run.disqualified == alone.disqualified
            assert (run.n_logp, run.n_grad, run.lbfgs_n_logp, run.lbfgs_n_grad,
                    run.scored_candidates) == (alone.n_logp, alone.n_grad, alone.lbfgs_n_logp,
                                               alone.lbfgs_n_grad, alone.scored_candidates)

    def test_singular_direction_ends_only_its_path(self, monkeypatch):
        # Mark the fourth direction request of path 2 (found by its pairs and
        # seed) as having no valid E, in ``stacked_factors``, which builds the
        # factors of both the stacked directions and ``search_direction``:
        # run_multi completes, path 2 ends as line_search_fail exactly as
        # run_single ends it under the same poison, and every other path
        # equals its unpoisoned run.
        name = "eight_schools_noncentered"
        opts = MultipathOptions(num_paths=4, num_resample=20, single=PathfinderOptions(
            num_draws=10, lbfgs=LbfgsOptions(max_iters=50)))
        clean = run_multi(make_target(name), opts, seed=3)
        stacked_factors = inv_hessian.stacked_factors
        requests = []

        def recording(S, Z, alpha):
            requests.append((S.copy(), alpha.copy()))
            return stacked_factors(S, Z, alpha)

        monkeypatch.setattr(inv_hessian, "stacked_factors", recording)
        monkeypatch.setattr(lbfgs, "stacked_factors", recording)
        probe = optimize(make_target(name), initial_point(10, opts.single, 3, 2), opts.single.lbfgs)
        assert probe.num_iters > 3
        poison_S, poison_alpha = requests[3]
        assert poison_S.shape[2] > 0

        def singular_at_poison(S, Z, alpha):
            factors, ok = stacked_factors(S, Z, alpha)
            if S.shape[1:] == poison_S.shape[1:]:
                ok &= ~(np.all(S == poison_S, axis=(1, 2)) & np.all(alpha == poison_alpha, axis=1))
            return factors, ok

        monkeypatch.setattr(inv_hessian, "stacked_factors", singular_at_poison)
        monkeypatch.setattr(lbfgs, "stacked_factors", singular_at_poison)
        target = make_target(name)
        res = run_multi(target, opts, seed=3)
        assert (target.eval_count_grad, target.eval_count_logp) == (res.n_grad, res.n_logp)
        poisoned = res.runs[2]
        assert poisoned.termination is Termination.LINE_SEARCH_FAIL
        assert poisoned.num_iters == 3 < clean.runs[2].num_iters
        assert_same_run(poisoned, run_single(make_target(name), opts.single, 3, path_index=2))
        for i in (0, 1, 3):
            assert_same_run(res.runs[i], clean.runs[i])

    def test_refused_points_fail_only_their_own_path(self):
        # A narrow normal whose density is refused past theta_0 = 1.5: paths
        # that start there fail at their first round, and trial points that
        # overshoot into it are halved, while the batch carries on for the
        # other paths.
        class Walled(PointTarget):
            def __init__(self):
                super().__init__(2, "walled")

            def _logp_grad_point(self, theta):
                if theta[0] > 1.5:
                    return -np.inf, np.full(2, np.nan)
                return -50.0 * float(theta @ theta), -100.0 * theta

        opts = MultipathOptions(num_paths=8, num_resample=20,
                                single=PathfinderOptions(num_draws=10))
        target = Walled()
        res = run_multi(target, opts, seed=4)
        starts = [initial_point(2, opts.single, 4, i) for i in range(8)]
        refused = [start[0] > 1.5 for start in starts]
        assert any(refused) and not all(refused)
        for i, (run, start, bad) in enumerate(zip(res.runs, starts, refused)):
            assert run.failed == bad
            if bad:
                np.testing.assert_array_equal(run.draws, start[None, :])
                assert (run.termination, run.n_grad) == (Termination.NONFINITE_AT_INIT, 1)
            alone = run_single(Walled(), opts.single, 4, path_index=i)
            np.testing.assert_array_equal(run.draws, alone.draws)
            assert (run.n_grad, run.n_logp) == (alone.n_grad, alone.n_logp)
        assert target.eval_count_grad == res.n_grad
        assert target.eval_count_logp == res.n_logp

    def test_logistic_runs_repeat_bit_for_bit(self):
        # Logistic rows are BLAS products that depend on the batch, so a path
        # need not equal run_single; run_multi must still repeat exactly.
        outs = []
        for _ in range(2):
            target = make_target("logistic_regression", n=40, p=4, data_seed=3)
            opts = MultipathOptions(num_paths=4, num_resample=30,
                                    single=PathfinderOptions(num_draws=25))
            outs.append(run_multi(target, opts, seed=5))
        assert outs[0].draws.tobytes() == outs[1].draws.tobytes()
        assert outs[0].pooled.log_w_smoothed.tobytes() == outs[1].pooled.log_w_smoothed.tobytes()
        for a, b in zip(outs[0].runs, outs[1].runs):
            assert a.elbo_trace.tobytes() == b.elbo_trace.tobytes()
            assert (a.n_grad, a.n_logp) == (b.n_grad, b.n_logp)


def test_lockstep_batches_linear_algebra_across_paths(monkeypatch):
    # Default run_multi on eight_schools_centered at seed 1 (20 paths).  The
    # counts are deterministic.  Per-path work would make 2,714 direction
    # calls (one per request) and 102 scoring target calls (blocks cut per
    # path); batched, a direction round makes one direction call per pair
    # count among its requests, and the scoring pass one target call per
    # cross-path block of each chunk of RECOVER_CHUNK steps.  Each lockstep
    # round answers one kind of request, so rounds are counted where the
    # lockstep answers them.
    target = make_target("eight_schools_centered")
    calls, blocks, rounds, in_scoring, scoring_calls = [], [], [], [False], [0]
    stacked_directions, cut = lbfgs.stacked_directions, single_path._blocks
    directions, evaluate = lbfgs._directions, lbfgs._evaluate
    score = single_path._score_candidates
    logp_many = target.logp_many

    def counting_directions(S, Z, alpha, grad):
        calls.append((len(rounds), S.shape[2], len(grad)))
        return stacked_directions(S, Z, alpha, grad)

    def direction_round(states):
        rounds.append(("direction", len(states)))
        return directions(states)

    def point_round(target, states):
        rounds.append(("fused" if states[0].request[1] else "trial", len(states)))
        return evaluate(target, states)

    def counting_blocks(*args):
        for block in cut(*args):
            blocks.append(block)
            yield block

    def scoring(*args):
        in_scoring[0] = True
        try:
            return score(*args)
        finally:
            in_scoring[0] = False

    def counting_logp_many(points):
        scoring_calls[0] += in_scoring[0]
        return logp_many(points)

    # One shard: a forked child's counts would stay in the child.
    monkeypatch.setattr(single_path, "usable_cores", lambda: 1)
    monkeypatch.setattr(lbfgs, "stacked_directions", counting_directions)
    monkeypatch.setattr(lbfgs, "_directions", direction_round)
    monkeypatch.setattr(lbfgs, "_evaluate", point_round)
    monkeypatch.setattr(single_path, "_blocks", counting_blocks)
    monkeypatch.setattr(single_path, "_score_candidates", scoring)
    monkeypatch.setattr(target, "logp_many", counting_logp_many)
    run_multi(target, MultipathOptions(), seed=1)

    assert sum(rows for _, _, rows in calls) == 2714  # one row per direction request
    assert len(calls) == 281
    assert len({(round_, pairs) for round_, pairs, _ in calls}) == len(calls)
    assert all(answered >= 1 for _, answered in rounds)
    per_kind = {kind: sum(k == kind for k, _ in rounds) for kind in ("direction", "trial", "fused")}
    assert per_kind == {"direction": 261, "trial": 829, "fused": 261}
    assert {round_ for round_, _, _ in calls} == {
        i + 1 for i, (kind, _) in enumerate(rounds) if kind == "direction"}
    assert scoring_calls[0] == len(blocks) == 22
