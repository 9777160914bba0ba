"""Tests for scoring candidates in stacked blocks.

The stacked factorization is checked against dense oracles; the scoring pass
is checked for independence from how candidates are blocked, for cutting
each chunk's blocks only when full but for the last of a pair count, for
disqualifying exactly the failing candidate of a block, and for a memory
peak its blocks and the target's slabs bound.
"""

import copy
import os
import sys
import tracemalloc

import numpy as np
import pytest

from pathfinder import (
    MultipathOptions, PathfinderOptions, inv_hessian, make_target, normal_approx, run_single,
    single_path,
)
from pathfinder.inv_hessian import RECOVER_CHUNK, alpha_recover, pair_counts, stacked_factors
from pathfinder.lbfgs import Termination, Trajectory, lockstep, optimize, optimize_steps
from pathfinder.single_path import OptimizedPath, initial_point
from pathfinder.targets import LogisticRegression
from pathfinder.normal_approx import build_many, transform

from oracles import (
    dense_mvn_logpdf, dense_sigma, random_curvature_pairs, record_blocks, window_of,
)


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
        factors, ok_e = stacked_factors(*window_of(rec, iters, num_pairs))
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


def recording_block_sizes(monkeypatch):
    """Record each scoring block's (pair count, number of candidates), in this process."""
    sizes = []
    score = single_path._Scorer._score_block

    def recording(scorer, windows, num_pairs, cand, *rest):
        sizes.append((num_pairs, len(cand)))
        return score(scorer, windows, num_pairs, cand, *rest)

    monkeypatch.setattr(single_path._Scorer, "_score_block", recording)
    return sizes


@pytest.mark.parametrize("block_floats", [single_path.BLOCK_FLOATS, 2**10])
def test_a_long_path_is_scored_chunk_by_chunk(monkeypatch, block_floats):
    # A 213-step path, more than three chunks of RECOVER_CHUNK steps, scored
    # after it stops (here, with no spare core) takes, summed over its
    # chunks, ceil(n_J' / size_J') blocks for the chunk's n_J' candidates
    # with J' pairs, where a block holds size_J' of them: each chunk is cut
    # on its own.  The single-mode scorer, fed a chunk at a time while the
    # path runs, cuts the same blocks and gives the same run.
    monkeypatch.setattr(single_path, "BLOCK_FLOATS", block_floats)
    monkeypatch.setattr(single_path, "usable_cores", lambda: 1)
    target, opts = make_target("eight_schools_centered"), PathfinderOptions()
    trajectory = optimize(target, initial_point(target.dim, opts, 10, 0), opts.lbfgs)
    counts = pair_counts(alpha_recover(trajectory), opts.lbfgs.history_size)
    sizes = [max(1, block_floats // (target.dim * max(2 * j, 1))) for j in range(counts.max() + 1)]
    expected = [(j, min(size, n - lo))
                for chunk in range(0, len(counts), RECOVER_CHUNK)
                for j, n in enumerate(np.bincount(counts[chunk:chunk + RECOVER_CHUNK]))
                for size in [sizes[j]] for lo in range(0, n, size)]
    assert trajectory.num_iters == 213
    assert len(expected) == (8 if block_floats == 2**15 else 27)

    blocks = recording_block_sizes(monkeypatch)
    run = run_single(target, opts, 10)
    assert blocks == expected

    blocks.clear()
    scorer = single_path._Scorer(target, [0], opts, 10)
    for end in range(RECOVER_CHUNK + 1, len(trajectory.thetas), RECOVER_CHUNK):
        scorer.advance([Trajectory(trajectory.thetas[:end], trajectory.grads[:end], None, None)])
    fed, = scorer.finish([OptimizedPath(0, trajectory, run.lbfgs_n_logp, run.lbfgs_n_grad)])
    assert blocks == expected
    assert fed.elbo_trace.tobytes() == run.elbo_trace.tobytes() and fed.l_star == run.l_star
    assert fed.draws.tobytes() == run.draws.tobytes()


def test_scoring_memory_is_bounded_by_its_blocks_and_slabs():
    # Scoring a 10-path shard of a 1000 x 50 logistic target holds, beside
    # the paths' recovered seeds (steps x 50 floats) and one chunk's gathered
    # windows, one block's stacks and the target's slab buffer.  About six
    # stacks of at most 2**15 floats live at once (the pairs, beta and the
    # copy QR factors, Q, and the draws); the buffer holds three (SLAB_ROWS +
    # 1) x 1000 arrays.  The peak reads 5.0 MiB against a 5.5 MiB bound, and
    # 5.9 MiB with 2**16-float blocks.  Before the slabs, when a batch past
    # 2**18 margins was allocated per call, it read 6.0 MiB with 2**14-float
    # blocks and 13.4 MiB with 2**15.
    target = make_target("logistic_regression", n=1000, p=50, data_seed=5)
    opts, indices = MultipathOptions().single, range(10)
    states = lockstep(target, [optimize_steps(initial_point(50, opts, 1, i), opts.lbfgs)
                               for i in indices])
    paths = [OptimizedPath(i, s.outcome, s.n_fused + s.n_logp_only, s.n_fused)
             for i, s in zip(indices, states)]
    steps = sum(path.trajectory.num_iters for path in paths)
    fresh = copy.deepcopy(target)  # no slab buffer yet
    tracemalloc.start()
    try:
        single_path._Scorer(fresh, list(indices), opts, 1).finish(paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    seeds, chunk = 8 * steps * 50, 2 * 2**20
    stacks, slabs = 6 * 8 * 2**15, 3 * 8 * (LogisticRegression.SLAB_ROWS + 1) * 1000
    assert steps > 10 * RECOVER_CHUNK
    assert peak <= seeds + chunk + stacks + slabs, (peak, steps)


def corrupting(monkeypatch, owner, name, edit):
    """Patch ``owner.name`` so ``edit`` can alter its result in place per block.

    Returns the list of 1-based candidates that ``edit`` reported corrupting.
    """
    original = getattr(owner, name)
    hit = []

    def patched(*args):
        result = original(*args)
        hit.extend(edit(args, result))
        return result

    monkeypatch.setattr(owner, name, patched)
    return hit


def break_cholesky(monkeypatch):
    """Make every candidate with pairs at an iteration of 5 mod 10 fail its Cholesky.

    Such a candidate shares its block with others, whichever way the blocks
    are cut, so only the stacked factorization's row-by-row retry keeps the
    rest of its block scored.
    """
    blocks = record_blocks(monkeypatch)

    def break_rows(args, result):
        factors, _ = result
        rows = np.flatnonzero(blocks[-1][1] % 10 == 5)
        if factors.num_pairs == 0:
            return []
        # Late candidates' pairs are tiny, so a modest -I * c would leave
        # I + R gamma R' positive definite.
        factors.gamma[rows] = -1e100 * np.eye(factors.rank)
        return blocks[-1][1][rows].tolist()

    return corrupting(monkeypatch, single_path, "stacked_factors", break_rows)


def overflow_pair_products(monkeypatch):
    """Make s_1'z_2 overflow for every candidate with 2+ pairs at an iteration of 5 mod 10."""
    blocks = record_blocks(monkeypatch)

    def overflow_rows(args, result):
        S, Z, _ = result
        rows = np.flatnonzero(blocks[-1][1] % 10 == 5)
        if S.shape[2] < 2:
            return []
        # E keeps a positive finite diagonal while s_1'z_2 overflows, so
        # only the finiteness check on E can catch it.
        S[rows, :, 0] *= 1e200
        Z[rows, :, 1] *= 1e200
        return blocks[-1][1][rows].tolist()

    return corrupting(monkeypatch, inv_hessian.Windows, "pairs", overflow_rows)


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

    corrupting(monkeypatch, inv_hessian.Windows, "pairs", zero_a_pair)
    corrupting(monkeypatch, normal_approx, "build_many", spoil_a_mean)
    run = run_single(make_target("neal_funnel", dim=3), PathfinderOptions(), seed=4)
    reasons = run.disqualified
    assert reasons["singular_e"] > 0 and reasons["nonfinite_approx"] > 0
    assert (reasons["singular_e"] + reasons["cholesky"] + reasons["nonfinite_approx"]
            == run.num_iters - run.scored_candidates)
    assert reasons["nonfinite_elbo"] == int(np.sum(~np.isfinite(run.elbo_trace))) - (
        run.num_iters - run.scored_candidates)
