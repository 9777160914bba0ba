"""Tests for diagonal seed recovery and compact factor assembly."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pathfinder
from pathfinder import (
    LbfgsOptions, SingularEError, alpha_recover, assemble_factors, make_target, optimize,
)
from pathfinder.inv_hessian import (
    ALPHA_PAIR_EPS, RECOVER_CHUNK, factors_from_pairs, low_rank_product, stacked_alpha_recover,
    stacked_factors,
)
from pathfinder.lbfgs import Termination, Trajectory, search_direction

from oracles import (
    alpha_recover_loop, bfgs_recursive_sigma, dense_sigma, random_curvature_pairs,
)


def trajectory_from_points(thetas, grads):
    thetas = np.asarray(thetas, float)
    grads = np.asarray(grads, float)
    logps = np.arange(len(thetas), dtype=float)  # strictly increasing stand-in
    return Trajectory(thetas, grads, logps, Termination.MAX_ITER)


def alpha_update_oracle(alpha_prev, s, z):
    """Literal transcription of the per-coordinate diagonal refresh."""
    a = z @ (alpha_prev * z)
    b = z @ s
    c = s @ (s / alpha_prev)
    out = np.empty_like(alpha_prev)
    for n in range(alpha_prev.size):
        out[n] = 1.0 / (
            a / (b * alpha_prev[n])
            + z[n] ** 2 / b
            - a * s[n] ** 2 / (b * c * alpha_prev[n] ** 2)
        )
    return out


class TestAlphaRecover:
    def test_identity_quadratic_keeps_unit_alpha(self):
        # s == z makes every term cancel: alpha stays the ones vector
        rng = np.random.default_rng(0)
        theta0 = rng.standard_normal(4)
        s = rng.standard_normal(4)
        grads = [rng.standard_normal(4)]
        grads.append(grads[0] - s)  # z = g0 - g1 = s
        traj = trajectory_from_points([theta0, theta0 + s], grads)
        rec = alpha_recover(traj)
        assert rec.xis.tolist() == [1]
        np.testing.assert_allclose(rec.alphas[0], np.ones(4), atol=1e-12)

    def test_orthogonal_pair_rejected(self):
        theta0 = np.zeros(2)
        s = np.array([1.0, 0.0])
        g0 = np.array([0.0, 1.0])
        g1 = g0 - np.array([0.0, 2.0])  # z = (0, 2), s'z = 0
        traj = trajectory_from_points([theta0, theta0 + s], [g0, g1])
        rec = alpha_recover(traj)
        assert rec.xis.tolist() == [0]
        np.testing.assert_array_equal(rec.alphas[0], np.ones(2))

    def test_random_pair_matches_formula_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            S, Z = random_curvature_pairs(rng, 3, 1)
            s, z = S[:, 0], Z[:, 0]
            theta0 = rng.standard_normal(3)
            g0 = rng.standard_normal(3)
            traj = trajectory_from_points([theta0, theta0 + s], [g0, g0 - z])
            rec = alpha_recover(traj)
            if rec.xis[0] == 1:
                expected = alpha_update_oracle(np.ones(3), s, z)
                np.testing.assert_allclose(rec.alphas[0], expected, atol=1e-12)

    def test_bookkeeping_invariants(self):
        t = make_target("eight_schools_centered")
        traj = optimize(t, np.random.default_rng(5).uniform(-2, 2, 10),
                        LbfgsOptions(max_iters=50))
        rec = alpha_recover(traj)
        L = traj.num_iters
        assert rec.alphas.shape == (L, 10)
        assert rec.xis.shape == (L,)
        assert np.all(rec.alphas > 0)
        for l in range(1, L):
            if rec.xis[l] == 0:
                np.testing.assert_array_equal(rec.alphas[l], rec.alphas[l - 1])
        assert rec.thetas is traj.thetas and rec.grads is traj.grads

    def test_acceptance_threshold_direction(self):
        # a pair whose gradient change is vastly larger than the position
        # change along z must be filtered out
        theta0 = np.zeros(2)
        s = np.array([1e-14, 0.0])
        z = np.array([1.0, 0.0])  # s'z = 1e-14 < 1e-12 * ||z||^2
        assert s @ z < ALPHA_PAIR_EPS * (z @ z)
        traj = trajectory_from_points([theta0, theta0 + s], [z, np.zeros(2)])
        rec = alpha_recover(traj)
        assert rec.xis.tolist() == [0]


# Pairs in three coordinates, for steps taken from theta = grad = 0 so that
# the trajectory reproduces them exactly.  Both pass the curvature gate, but
# from alpha = 1 the update cancels to a negative (NEGATIVE_UPDATE) or zero
# (ZERO_UPDATE) component of 1 / alpha, so the pair is rejected.
NEGATIVE_UPDATE = (
    np.array([-0.7434956881700057, 4.199986224180719e-09, 7.203878160567384e-09]),
    np.array([-8.751512353713315e-10, 2.4501051562114204, -0.0899262116642555]),
)
ZERO_UPDATE = (np.array([1.0, 0.0, 0.0]), np.array([1e-10, 1.0, 0.0]))


def trajectory_from_kinds(kinds, seed):
    """A 3-d trajectory from the origin whose steps are pairs of the named kinds.

    "good" passes the curvature gate, "gate" fails it (z = -s), and
    "negative"/"zero" are NEGATIVE_UPDATE/ZERO_UPDATE.
    """
    rng = np.random.default_rng(seed)
    thetas, grads = [np.zeros(3)], [np.zeros(3)]
    for kind in kinds:
        if kind == "good":
            S, Z = random_curvature_pairs(rng, 3, 1, min_cos=0.2)
            s, z = S[:, 0], Z[:, 0]
        elif kind == "gate":
            s = rng.standard_normal(3)
            z = -s
        else:
            s, z = {"negative": NEGATIVE_UPDATE, "zero": ZERO_UPDATE}[kind]
        thetas.append(thetas[-1] + s)
        grads.append(grads[-1] - z)
    return trajectory_from_points(thetas, grads)


def assert_matches_loop(trajectories):
    recoveries = stacked_alpha_recover(trajectories)
    assert len(recoveries) == len(trajectories)
    for traj, rec in zip(trajectories, recoveries):
        alphas, xis = alpha_recover_loop(traj.thetas, traj.grads, ALPHA_PAIR_EPS)
        np.testing.assert_array_equal(rec.alphas, alphas, strict=True)
        np.testing.assert_array_equal(rec.xis, xis, strict=True)
    return recoveries


class TestStackedAlphaRecover:
    def test_stack_matches_the_per_step_loop_bit_for_bit(self):
        kinds = [
            ["good"],
            [("gate" if l % 7 == 3 else "good") for l in range(2 * RECOVER_CHUNK + 22)],
            ["negative", "good", "good", "gate", "good"],
            ["zero", "good", "good"],
            ["good"] * RECOVER_CHUNK,
            ["gate"],
        ]
        trajectories = [trajectory_from_kinds(k, seed) for seed, k in enumerate(kinds)]
        recoveries = assert_matches_loop(trajectories)
        # Every case is exercised: gate rejections, and rejected updates of
        # pairs that passed the gate.
        assert recoveries[1].xis.sum() < len(kinds[1]) and recoveries[5].xis.tolist() == [0]
        for rec in recoveries[2:4]:
            s, z = rec.thetas[1] - rec.thetas[0], rec.grads[0] - rec.grads[1]
            assert s @ z > ALPHA_PAIR_EPS * (z @ z) and rec.xis[0] == 0
            np.testing.assert_array_equal(rec.alphas[0], np.ones(3))

    def test_one_path_alone_equals_it_inside_a_stack(self):
        trajectories = [trajectory_from_kinds(["good", "gate"] * (RECOVER_CHUNK + 3), seed)
                        for seed in range(3)]
        stacked = stacked_alpha_recover(trajectories)
        for traj, inside in zip(trajectories, stacked):
            alone = alpha_recover(traj)
            np.testing.assert_array_equal(alone.alphas, inside.alphas, strict=True)
            np.testing.assert_array_equal(alone.xis, inside.xis, strict=True)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["good", "gate", "negative", "zero"]),
                             min_size=1, max_size=RECOVER_CHUNK + 10), min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    def test_random_stacks_match_the_per_step_loop(self, kinds, seed):
        assert_matches_loop([trajectory_from_kinds(k, seed + i) for i, k in enumerate(kinds)])

    @pytest.mark.parametrize("name", ["eight_schools_centered", "neal_funnel"])
    def test_optimizer_trajectories_match_the_per_step_loop(self, name):
        t = make_target(name, dim=10) if name == "neal_funnel" else make_target(name)
        assert_matches_loop([
            optimize(t, np.random.default_rng(seed).uniform(-2, 2, t.dim),
                     LbfgsOptions(max_iters=max_iters))
            for seed, max_iters in enumerate([1, 5, 200, 200, 40])
        ])

    def test_empty_stack(self):
        assert stacked_alpha_recover([]) == []


class TestAssembleFactors:
    def run_recovery(self, seed=3, n=6, steps=12):
        rng = np.random.default_rng(seed)
        thetas = [rng.standard_normal(n)]
        grads = [rng.standard_normal(n)]
        for _ in range(steps):
            S, Z = random_curvature_pairs(rng, n, 1)
            thetas.append(thetas[-1] + S[:, 0])
            grads.append(grads[-1] - Z[:, 0])
        return alpha_recover(trajectory_from_points(thetas, grads))

    def test_no_accepted_pairs_gives_diagonal(self):
        theta0 = np.zeros(2)
        s = np.array([1.0, 0.0])
        z = np.array([0.0, 1.0])
        traj = trajectory_from_points([theta0, theta0 + s], [z, z - z * 0 - z])
        rec = alpha_recover(traj)
        rec.xis[:] = 0
        fac = assemble_factors(rec, 1, 6)
        assert fac.num_pairs == 0
        np.testing.assert_array_equal(dense_sigma(fac.S, fac.Z, fac.alpha),
                                      np.diag(fac.alpha))

    def test_one_pair_dense_sigma_is_spd(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            S, Z = random_curvature_pairs(rng, 2, 1)
            alpha = rng.uniform(0.5, 2.0, 2)
            fac = factors_from_pairs(S, Z, alpha)
            assert fac.E.shape == (1, 1) and fac.gamma.shape == (2, 2)
            sigma = np.diag(alpha) + fac.beta @ fac.gamma @ fac.beta.T
            assert np.all(np.linalg.eigvalsh(sigma) > 1e-12)

    def test_window_keeps_most_recent_pairs(self):
        rec = self.run_recovery(n=16, steps=10)
        assert rec.xis.sum() == 10
        fac = assemble_factors(rec, 10, 6)
        assert fac.num_pairs == 6
        s_list = np.diff(rec.thetas, axis=0)
        np.testing.assert_array_equal(fac.S[:, -1], s_list[9])
        np.testing.assert_array_equal(fac.S[:, 0], s_list[4])

    def test_rank_cap_drops_oldest(self):
        rec = self.run_recovery(n=6, steps=8)
        fac = assemble_factors(rec, 8, 6)
        assert 2 * fac.num_pairs <= 6
        np.testing.assert_array_equal(fac.S[:, -1], np.diff(rec.thetas, axis=0)[7])

    def test_rejected_iterations_contribute_no_columns(self):
        rec = self.run_recovery(steps=8)
        rec.xis[3] = 0
        fac = assemble_factors(rec, 8, 3)
        for col in range(fac.num_pairs):
            assert not np.array_equal(fac.S[:, col], rec.thetas[4] - rec.thetas[3])

    def test_secant_equation_for_latest_pair(self):
        rec = self.run_recovery(n=8, steps=6)
        for l in range(1, 7):
            fac = assemble_factors(rec, l, 3)
            if fac.num_pairs == 0:
                continue
            sigma = dense_sigma(fac.S, fac.Z, fac.alpha)
            np.testing.assert_allclose(sigma @ fac.Z[:, -1], fac.S[:, -1], atol=1e-8)

    def test_matches_recursive_update_oracle(self):
        # compact factors applied to diag(alpha) equal the textbook recursion
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(4, 9))
            j = int(rng.integers(1, 4))
            S, Z = random_curvature_pairs(rng, n, j)
            alpha = rng.uniform(0.4, 2.5, n)
            fac = factors_from_pairs(S, Z, alpha)
            sigma_compact = np.diag(alpha) + fac.beta @ fac.gamma @ fac.beta.T
            pairs = [(S[:, i], Z[:, i]) for i in range(j)]
            sigma_recursive = bfgs_recursive_sigma(alpha, pairs)
            np.testing.assert_allclose(sigma_compact, sigma_recursive, atol=1e-8)

    def test_spd_on_random_instances(self):
        rng = np.random.default_rng(30)
        for _ in range(60):
            n = int(rng.integers(6, 9))
            j = int(rng.integers(1, 4))
            S, Z = random_curvature_pairs(rng, n, j)
            alpha = rng.uniform(0.4, 2.5, n)
            fac = factors_from_pairs(S, Z, alpha)
            sigma = np.diag(alpha) + fac.beta @ fac.gamma @ fac.beta.T
            assert np.all(np.linalg.eigvalsh(sigma) > 1e-12)

    def test_out_of_range_iteration(self):
        rec = self.run_recovery(steps=4)
        with pytest.raises(IndexError):
            assemble_factors(rec, 5, 6)
        with pytest.raises(IndexError):
            assemble_factors(rec, 0, 6)


class TestCompactForm:
    # S'Z overflows off the diagonal only: E = [[1, inf], [0, 1]].
    S_OVER = np.array([[1e200, 0.0], [0.0, 1.0]])
    Z_OVER = np.array([[1e-200, 1e200], [0.0, 1.0]])

    def test_low_rank_product_matches_dense_sigma(self):
        rng = np.random.default_rng(4)
        stack = [random_curvature_pairs(rng, 7, 3) for _ in range(4)]
        S = np.stack([s for s, _ in stack])
        Z = np.stack([z for _, z in stack])
        alpha = rng.uniform(0.5, 2.0, (4, 7))
        v = rng.standard_normal((4, 7))
        factors, ok = stacked_factors(S, Z, alpha)
        assert ok.all()
        stacked = low_rank_product(factors, v)
        for b in range(4):
            expected = (dense_sigma(S[b], Z[b], alpha[b]) - np.diag(alpha[b])) @ v[b]
            np.testing.assert_allclose(stacked[b], expected, rtol=1e-10, atol=1e-12)
            one = factors_from_pairs(S[b], Z[b], alpha[b])
            np.testing.assert_array_equal(low_rank_product(one, v[b]), stacked[b])

    def test_non_finite_e_raises(self):
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(self.S_OVER.T @ self.Z_OVER))
        with pytest.raises(SingularEError):
            factors_from_pairs(self.S_OVER, self.Z_OVER, np.ones(2))
        with pytest.raises(SingularEError):
            search_direction(self.S_OVER, self.Z_OVER, np.ones(2), np.ones(2))

    def test_non_finite_below_the_diagonal_is_valid(self):
        # S_1'z_0 overflows, but E keeps only the upper triangle, which is
        # finite with a positive diagonal: E = [[1, 0], [0, 1]].  Masking by
        # multiplication would turn the inf into inf * 0 = nan.
        S = np.array([[1.0, 0.0], [0.0, 1e308]])
        Z = np.array([[1.0, 0.0], [10.0, 1e-308]])
        with np.errstate(over="ignore"):
            assert np.isinf((S.T @ Z)[1, 0])
        factors, ok = stacked_factors(S[None], Z[None], np.ones((1, 2)))
        assert ok.tolist() == [True]
        assert factors.E[0, 1, 0] == 0.0 and (factors.eta > 0.0).all()
        assert np.isfinite(factors.beta).all() and np.isfinite(factors.gamma).all()

    def test_non_finite_e_marks_only_its_row(self):
        rng = np.random.default_rng(8)
        good = [random_curvature_pairs(rng, 2, 2) for _ in range(2)]
        S = np.stack([good[0][0], self.S_OVER, good[1][0]])
        Z = np.stack([good[0][1], self.Z_OVER, good[1][1]])
        alpha = rng.uniform(0.5, 2.0, (3, 2))
        factors, ok = stacked_factors(S, Z, alpha)
        assert ok.tolist() == [True, False, True]
        alone, ok_alone = stacked_factors(S[[0, 2]], Z[[0, 2]], alpha[[0, 2]])
        assert ok_alone.all()
        for name in ("E", "beta", "gamma"):
            np.testing.assert_array_equal(getattr(factors, name)[[0, 2]], getattr(alone, name))


@pytest.mark.parametrize("module", ["pathfinder.lbfgs", "pathfinder.inv_hessian"])
def test_module_imports_first_in_fresh_interpreter(module):
    src = str(Path(pathfinder.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", f"import {module}"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
