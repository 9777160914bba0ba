"""Tests for scoring candidates in stacked blocks.

The stacked factorization is checked against dense oracles; the scoring pass
is checked for independence from how candidates are blocked, and for
disqualifying exactly the failing candidate of a block.
"""

import os
import sys

import numpy as np
import pytest

from pathfinder import PathfinderOptions, make_target, normal_approx, run_single, single_path
from pathfinder.inv_hessian import (
    RECOVER_CHUNK, alpha_recover, pair_counts, stacked_factors, window,
)
from pathfinder.lbfgs import Termination, Trajectory
from pathfinder.normal_approx import build_many, transform

from oracles import dense_mvn_logpdf, dense_sigma, random_curvature_pairs


def short_trajectory(n, steps, seed):
    """A trajectory whose first pair fails the curvature test and the rest pass."""
    rng = np.random.default_rng(seed)
    thetas = [rng.standard_normal(n)]
    grads = [rng.standard_normal(n)]
    s = rng.standard_normal(n)
    thetas.append(thetas[-1] + s)
    grads.append(grads[-1] + s)  # z = -s, so s'z < 0
    for _ in range(steps - 1):
        S, Z = random_curvature_pairs(rng, n, 1, min_cos=0.2)
        thetas.append(thetas[-1] + S[:, 0])
        grads.append(grads[-1] - Z[:, 0])
    thetas = np.array(thetas)
    return Trajectory(thetas, np.array(grads), np.arange(steps + 1.0), Termination.MAX_ITER)


@pytest.mark.parametrize("history_size", [1, 6])
def test_every_candidate_matches_dense_oracle(history_size):
    n, steps, draws = 5, 8, 4
    traj = short_trajectory(n, steps, seed=3)
    rec = alpha_recover(traj)
    counts = pair_counts(rec, history_size)
    cap = min(history_size, n // 2)
    assert counts[0] == 0 and counts.max() == cap

    rng = np.random.default_rng(0)
    checked = 0
    for num_pairs in np.unique(counts):
        iters = np.flatnonzero(counts == num_pairs) + 1
        factors, ok_e = stacked_factors(*window(rec, iters, num_pairs))
        approx, ok_chol = build_many(factors, traj.thetas[iters], traj.grads[iters])
        assert ok_e.all() and ok_chol.all()
        batch = transform(approx, rng.standard_normal((len(iters), draws, n)))
        for b, l in enumerate(iters):
            accepted = [i for i in range(l) if rec.xis[i] == 1]
            keep = accepted[len(accepted) - num_pairs:]
            S = (traj.thetas[1:] - traj.thetas[:-1])[keep].T
            Z = (traj.grads[:-1] - traj.grads[1:])[keep].T
            sigma = dense_sigma(S if keep else None, Z, rec.alphas[l - 1])
            mu = traj.thetas[l] + sigma @ traj.grads[l]
            np.testing.assert_allclose(approx.mu[b], mu, rtol=1e-9, atol=1e-9)
            assert approx.logdet[b] == pytest.approx(np.linalg.slogdet(sigma)[1], abs=1e-9)
            np.testing.assert_allclose(
                batch.logq[b], dense_mvn_logpdf(batch.draws[b], mu, sigma), rtol=1e-9)
            checked += 1
    assert checked == steps


@pytest.mark.parametrize("name, params", [
    ("neal_funnel", {"dim": 3}),
    ("eight_schools_noncentered", {}),
])
def test_block_size_does_not_change_output(monkeypatch, name, params):
    opts = PathfinderOptions()
    blocked = run_single(make_target(name, **params), opts, seed=9)
    monkeypatch.setattr(single_path, "BLOCK_FLOATS", 1)
    one_by_one = run_single(make_target(name, **params), opts, seed=9)
    np.testing.assert_array_equal(blocked.elbo_trace, one_by_one.elbo_trace)
    np.testing.assert_array_equal(blocked.draws, one_by_one.draws)
    assert blocked.l_star == one_by_one.l_star
    assert (blocked.n_logp, blocked.n_grad) == (one_by_one.n_logp, one_by_one.n_grad)


def corrupting(monkeypatch, module, name, edit):
    """Patch ``module.name`` so ``edit`` can alter its result in place per block.

    Returns the list of 1-based candidates that ``edit`` reported corrupting.
    """
    original = getattr(module, name)
    hit = []

    def patched(*args):
        result = original(*args)
        hit.extend(edit(args, result))
        return result

    monkeypatch.setattr(module, name, patched)
    return hit


def break_cholesky(monkeypatch):
    """Make the second candidate of every block of 3+ with pairs fail its Cholesky."""
    starts = []

    def remember_block(args, result):
        starts.append(int(args[1][0]))
        return []

    def break_second_row(args, result):
        factors, _ = result
        if len(factors.alpha) < 3 or factors.num_pairs == 0:
            return []
        # Late candidates' pairs are tiny, so a modest -I * c would leave
        # I + R gamma R' positive definite.
        factors.gamma[1] = -1e100 * np.eye(factors.rank)
        return [starts[-1] + 1]

    corrupting(monkeypatch, single_path, "window", remember_block)
    return corrupting(monkeypatch, single_path, "stacked_factors", break_second_row)


def overflow_pair_products(monkeypatch):
    """Make s_1'z_2 overflow for the second candidate of every block of 3+ with 2+ pairs."""
    def overflow_second_row(args, result):
        S, Z, _ = result
        if S.shape[0] < 3 or S.shape[2] < 2:
            return []
        # E keeps a positive finite diagonal while s_1'z_2 overflows, so
        # only the finiteness check on E can catch it.
        S[1, :, 0] *= 1e200
        Z[1, :, 1] *= 1e200
        return [int(args[1][1])]

    return corrupting(monkeypatch, single_path, "window", overflow_second_row)


def test_failing_cholesky_disqualifies_only_that_candidate(monkeypatch):
    # One core: the patches record the candidates they break in this process.
    monkeypatch.setattr(single_path, "usable_cores", lambda: 1)
    target_args = ("eight_schools_noncentered",)
    opts = PathfinderOptions()
    clean = run_single(make_target(*target_args), opts, seed=9)
    broken = break_cholesky(monkeypatch)
    run = run_single(make_target(*target_args), opts, seed=9)

    assert broken
    failed = np.array(broken) - 1
    assert np.all(run.elbo_trace[failed] == -np.inf)
    others = np.setdiff1d(np.arange(run.num_iters), failed)
    np.testing.assert_array_equal(run.elbo_trace[others], clean.elbo_trace[others])
    assert run.disqualified["cholesky"] == len(broken)
    assert run.scored_candidates == clean.scored_candidates - len(broken)


def test_overflowing_pair_products_disqualify_only_that_candidate(monkeypatch):
    monkeypatch.setattr(single_path, "usable_cores", lambda: 1)
    opts = PathfinderOptions()
    clean = run_single(make_target("eight_schools_noncentered"), opts, seed=9)
    broken = overflow_pair_products(monkeypatch)
    run = run_single(make_target("eight_schools_noncentered"), opts, seed=9)

    assert broken
    failed = np.array(broken) - 1
    assert np.all(run.elbo_trace[failed] == -np.inf)
    others = np.setdiff1d(np.arange(run.num_iters), failed)
    np.testing.assert_array_equal(run.elbo_trace[others], clean.elbo_trace[others])
    assert run.disqualified["singular_e"] == len(broken)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks on Linux only")
@pytest.mark.parametrize("corrupt, reason", [
    (break_cholesky, "cholesky"), (overflow_pair_products, "singular_e"),
])
def test_forked_scorer_disqualifies_the_same_candidates(monkeypatch, corrupt, reason):
    # The twins of the two tests above with a spare core: the patches run in
    # the forked scorer, so only the run shows what they broke.
    # The centered target's paths run long at either diagonal seed scale.
    monkeypatch.setattr(single_path, "usable_cores", lambda: 1)
    broken = corrupt(monkeypatch)
    alone = run_single(make_target("eight_schools_centered"), PathfinderOptions(), seed=9)
    recorded = list(broken)
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(single_path, "usable_cores", lambda: 2)
    forked = run_single(make_target("eight_schools_centered"), PathfinderOptions(), seed=9)

    assert len(forks) == 1 and forked.num_iters >= RECOVER_CHUNK
    assert broken == recorded  # nothing was broken in this process
    assert forked.disqualified[reason] == len(recorded) > 0
    assert forked.disqualified == alone.disqualified
    assert forked.scored_candidates == alone.scored_candidates
    assert forked.elbo_trace.tobytes() == alone.elbo_trace.tobytes()
    assert forked.draws.tobytes() == alone.draws.tobytes()


def test_disqualification_counts_add_up(monkeypatch):
    def zero_a_pair(args, result):
        S, _, _ = result
        if S.shape[0] >= 2 and S.shape[2] > 0:
            S[1, :, 0] = 0.0          # zero diagonal of E: singular_e
        return []

    def spoil_a_mean(args, result):
        approx, _ = result
        approx.mu[-1, 0] = np.nan     # nonfinite_approx
        return []

    corrupting(monkeypatch, single_path, "window", zero_a_pair)
    corrupting(monkeypatch, normal_approx, "build_many", spoil_a_mean)
    run = run_single(make_target("neal_funnel", dim=3), PathfinderOptions(), seed=4)
    reasons = run.disqualified
    assert reasons["singular_e"] > 0 and reasons["nonfinite_approx"] > 0
    assert (reasons["singular_e"] + reasons["cholesky"] + reasons["nonfinite_approx"]
            == run.num_iters - run.scored_candidates)
    assert reasons["nonfinite_elbo"] == int(np.sum(~np.isfinite(run.elbo_trace))) - (
        run.num_iters - run.scored_candidates)
