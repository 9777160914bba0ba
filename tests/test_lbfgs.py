"""Tests for the trajectory-recording L-BFGS optimizer."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathfinder import (
    LbfgsOptions,
    LineSearchFailError,
    MultipathOptions,
    NonFiniteError,
    PathfinderOptions,
    SingularEError,
    Termination,
    make_target,
    run_multi,
    run_single,
)
from pathfinder import lbfgs
from pathfinder.lbfgs import (
    MAX_HALVINGS, REL_TOL_FLOOR, DirectionRequest, line_search_steps, lockstep, optimize,
    optimize_steps, search_direction, stacked_directions, wolfe_line_search,
)
from pathfinder.single_path import initial_point
from pathfinder.targets import LogDensityTarget

from oracles import PointTarget, dense_sigma, random_curvature_pairs


class Quadratic1D(PointTarget):
    """log p = -theta^2 / 2."""

    def __init__(self):
        super().__init__(1, "quad1d")

    def _logp_grad_point(self, theta):
        return -0.5 * float(theta @ theta), -theta


class Linear1D(PointTarget):
    """log p = 2 theta; constant gradient."""

    def __init__(self):
        super().__init__(1, "lin1d")

    def _logp_grad_point(self, theta):
        return 2.0 * float(theta[0]), np.array([2.0])


class HalfLine(PointTarget):
    """Quadratic that is undefined past theta = 1.5 (non-finite region)."""

    def __init__(self):
        super().__init__(1, "halfline")

    def _logp_grad_point(self, theta):
        if theta[0] > 1.5:
            return -np.inf, np.array([np.nan])
        return -0.5 * float(theta @ theta) + theta[0], 1.0 - theta


class GradientCliff(PointTarget):
    """A normal centered at (2, -1) whose log density is finite everywhere but
    whose gradient is non-finite past theta_0 = 1, so fused evaluations there
    are refused while logp-only ones are not."""

    def __init__(self):
        super().__init__(2, "gradient_cliff")

    def _logp_grad_point(self, theta):
        diff = theta - np.array([2.0, -1.0])
        grad = -diff if theta[0] <= 1.0 else np.full(2, np.nan)
        return -0.5 * float(diff @ diff), grad


def record_gradient_points(target):
    """Log, on the target instance, every point whose gradient is evaluated."""
    points = []
    density = target._density

    def recording(batch, need_grad):
        if need_grad:
            points.extend(np.array(batch))
        return density(batch, need_grad)

    target._density = recording
    return points


class TestSearchDirection:
    def test_empty_history_unit_alpha(self):
        g = np.array([0.3, -1.2, 2.0])
        delta = search_direction(np.zeros((3, 0)), np.zeros((3, 0)), np.ones(3), g)
        np.testing.assert_array_equal(delta, g)

    def test_empty_history_diagonal(self):
        g = np.array([0.3, -1.2, 2.0])
        a = np.array([2.0, 0.5, 1.5])
        empty = np.zeros((3, 0))
        np.testing.assert_array_equal(search_direction(empty, empty, a, g), a * g)

    def test_one_pair_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        S, Z = random_curvature_pairs(rng, 3, 1)
        alpha = rng.uniform(0.5, 2.0, 3)
        g = rng.standard_normal(3)
        expected = dense_sigma(S, Z, alpha) @ g
        np.testing.assert_allclose(search_direction(S, Z, alpha, g), expected, atol=1e-10)

    def test_thousand_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            j = int(rng.integers(1, min(4, n) + 1))
            S, Z = random_curvature_pairs(rng, n, j)
            alpha = rng.uniform(0.3, 3.0, n)
            g = rng.standard_normal(n)
            expected = dense_sigma(S, Z, alpha) @ g
            got = search_direction(S, Z, alpha, g)
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10)

    def test_singular_pair_matrix_rejected(self):
        S = np.array([[1.0], [0.0]])
        Z = np.array([[0.0], [1.0]])  # s'z == 0
        with pytest.raises(SingularEError):
            search_direction(S, Z, np.ones(2), np.ones(2))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 20), n=st.sampled_from([2, 10, 50]))
def test_stacked_directions_equal_search_direction_row_by_row(seed, rows, n):
    # Requests with mixed pair counts 0..6, grouped by count as the lockstep
    # loop groups them: each row of a stack must equal the direction the
    # row gets alone, bit for bit, and a row with an overflowing E must be
    # masked without touching the others.
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 7, rows)
    requests = []
    for j in counts.tolist():
        S, Z = random_curvature_pairs(rng, n, j) if j else (np.zeros((n, 0)), np.zeros((n, 0)))
        requests.append((S, Z, rng.uniform(0.3, 3.0, n), rng.standard_normal(n)))
    bad = int(rng.integers(rows))
    if counts[bad] >= 2:
        S, Z, alpha, grad = requests[bad]
        S, Z = S.copy(), Z.copy()
        S[:, 0] *= 1e200  # s_1'z_2 overflows while E's diagonal stays finite
        Z[:, 1] *= 1e200
        Z[:, 0] *= 1e-200
        requests[bad] = S, Z, alpha, grad
    for j in np.unique(counts).tolist():
        members = np.flatnonzero(counts == j).tolist()
        deltas, ok = stacked_directions(
            *(np.stack(field) for field in zip(*(requests[i] for i in members))))
        for i, delta, good in zip(members, deltas, ok.tolist()):
            assert good == (i != bad or counts[bad] < 2)
            if good:
                assert delta.tobytes() == search_direction(*requests[i]).tobytes()
            else:
                with pytest.raises(SingularEError):
                    search_direction(*requests[i])


class TestWolfeLineSearch:
    def test_unit_step_onto_quadratic_optimum(self):
        # theta=-1, delta=1 lands exactly on the mode with sufficient increase:
        #   logp(0) = 0 >= -0.5 + 1e-4 * 1 * 1
        t = Quadratic1D()
        theta = np.array([-1.0])
        logp, grad = t.logp_grad(theta)
        res = wolfe_line_search(t, theta, logp, grad, np.array([1.0]), 1e-4)
        assert res.step == 1.0
        assert res.theta[0] == 0.0

    def test_linear_density_accepts_unit_step(self):
        # constant gradient: a curvature condition g1.d <= c2 g0.d would fail
        # for any c2 < 1, but the search enforces only sufficient increase,
        # which is linear in the step, so the unit step is accepted
        t = Linear1D()
        theta = np.array([0.0])
        logp, grad = t.logp_grad(theta)
        res = wolfe_line_search(t, theta, logp, grad, np.array([1.0]), 1e-4)
        assert res.step == 1.0

    def test_non_finite_region_halves_step(self):
        t = HalfLine()
        theta = np.array([0.0])
        logp, grad = t.logp_grad(theta)
        delta = np.array([2.0])  # theta + delta = 2.0 is undefined
        res = wolfe_line_search(t, theta, logp, grad, delta, 1e-4)
        assert res.step <= 0.5

    def test_trials_are_logp_only_and_the_accepted_point_is_fused(self):
        # Step 1 overshoots the mode to x = 2 and fails the test; step 1/2
        # lands on x = 0.5 and passes it.  The test reads each trial's log
        # density only, and the accepted step then gets the one gradient
        # evaluation, whose values are returned.
        t = Quadratic1D()
        theta = np.array([-1.0])
        logp, grad = t.logp_grad(theta)
        res = wolfe_line_search(t, theta, logp, grad, np.array([3.0]), 0.1)
        assert res.step == 0.5 and res.theta[0] == 0.5
        assert (res.logp, res.grad.tolist()) == (-0.125, [-0.5])
        assert (t.eval_count_logp, t.eval_count_grad) == (4, 2)

    def test_refused_gradient_rejects_the_trial(self):
        # From the origin along the gradient (2, -1), step 1 lands on the mode
        # past theta_0 = 1: it passes the Armijo test on its finite log
        # density, but its gradient is refused, so the search halves on to
        # step 1/2, at theta_0 = 1.
        t = GradientCliff()
        theta = np.zeros(2)
        logp, grad = t.logp_grad(theta)
        res = wolfe_line_search(t, theta, logp, grad, grad.copy(), 1e-4)
        assert res.step == 0.5 and res.theta.tolist() == [1.0, -0.5]
        assert (t.eval_count_logp, t.eval_count_grad) == (5, 3)

    def test_fails_when_no_increase_exists(self):
        t = Quadratic1D()
        theta = np.array([0.0])  # at the mode; any move decreases logp
        logp, grad = t.logp_grad(theta)
        with pytest.raises(LineSearchFailError, match=r"2\^-60"):
            wolfe_line_search(t, theta, logp, np.array([1.0]), np.array([1.0]), 1e-4)


def trial_sequence(mode, first_step, grad_limit=np.inf, slope_grad=None, c1=0.5):
    """Drive ``line_search_steps`` on log p = -(theta - mode)^2 / 2 from
    theta = 0 along delta = 1, so each point it asks for is its step.

    With c1 = 1/2 and the true gradient, the Armijo set is the interval
    (0, mode].  Gradients are refused past ``grad_limit``; ``slope_grad``
    replaces the gradient the search is given.  Returns the (step,
    need_grad) requests in order and the search's result, None if it failed.
    """
    theta, grad = np.zeros(1), np.array([mode if slope_grad is None else slope_grad])
    steps = line_search_steps(theta, -0.5 * mode**2, grad, np.ones(1), c1, first_step)
    asked = []
    point, need_grad = next(steps)
    while True:
        x = float(point[0])
        asked.append((x, need_grad))
        logp = -0.5 * (x - mode) ** 2
        if not need_grad:
            reply = logp
        elif x <= grad_limit:
            reply = logp, np.array([mode - x])
        else:
            reply = None
        try:
            point, need_grad = steps.send(reply)
        except StopIteration as stop:
            return asked, stop.value


class TestWarmStartTrials:
    """Exact trial sequences of the warm-started search (logp-only trials
    are ``False``, the fused evaluation of the accepted step ``True``)."""

    def test_cold_start_keeps_the_halving_sequence(self):
        asked, res = trial_sequence(0.3, 1.0)
        assert asked == [(1.0, False), (0.5, False), (0.25, False), (0.25, True)]
        assert res.step == 0.25

    def test_passing_warm_start_doubles_up_to_one(self):
        asked, res = trial_sequence(2.0, 0.25)
        assert asked == [(0.25, False), (0.5, False), (1.0, False), (1.0, True)]
        assert res.step == 1.0

    def test_doubling_stops_at_the_first_failure(self):
        asked, res = trial_sequence(0.3, 0.25)
        assert asked == [(0.25, False), (0.5, False), (0.25, True)]
        assert res.step == 0.25 and res.theta.tolist() == [0.25]

    def test_failing_warm_start_halves(self):
        asked, res = trial_sequence(0.1, 0.5)
        assert asked == [(0.5, False), (0.25, False), (0.125, False),
                         (0.0625, False), (0.0625, True)]
        assert res.step == 0.0625

    @pytest.mark.parametrize("first_step", [1.0, 2.0**-58])
    def test_fails_at_the_floor(self, first_step):
        # At the mode every move decreases log p, while the given gradient
        # claims an ascent: no step passes.
        asked, res = trial_sequence(0.0, first_step, slope_grad=1.0)
        assert res is None
        assert all(not need_grad for _, need_grad in asked)
        assert asked[-1][0] == 2.0**-MAX_HALVINGS == min(step for step, _ in asked)
        assert len(asked) == MAX_HALVINGS + 1 + int(np.log2(first_step))

    def test_refused_gradient_halves_below_an_expanded_step(self):
        # Steps up to 1 pass, but gradients past 0.3 are refused: 1 and then
        # 1/2 are rejected at their fused evaluation, and the passing trial
        # at 1/4 is accepted without growing back.
        asked, res = trial_sequence(2.0, 0.125, grad_limit=0.3)
        assert asked == [(0.125, False), (0.25, False), (0.5, False), (1.0, False),
                         (1.0, True), (0.5, False), (0.5, True), (0.25, False), (0.25, True)]
        assert res.step == 0.25 and res.grad.tolist() == [1.75]


def cold_start_optimize(target, theta, opts):
    """L-BFGS whose every line search halves from step 1: logp-only trials,
    then one fused evaluation of the first passing step.  The warm-started
    search must retrace it wherever the passing steps form an interval."""
    logp, grad = target.logp_grad(theta)
    thetas, grads, logps = [np.asarray(theta, float)], [grad], [logp]
    if np.linalg.norm(grad) < opts.grad_zero_tol:
        return thetas, grads, logps, Termination.ZERO_GRADIENT_AT_INIT
    s_hist, z_hist = deque(maxlen=opts.history_size), deque(maxlen=opts.history_size)
    alpha = np.ones(len(theta))
    for _ in range(opts.max_iters):
        if np.linalg.norm(grads[-1]) < opts.grad_zero_tol:
            return thetas, grads, logps, Termination.CONVERGED
        S, Z = (np.stack(hist, axis=1) if hist else np.zeros((len(theta), 0))
                for hist in (s_hist, z_hist))
        delta = search_direction(S, Z, alpha, grads[-1])
        slope = float(grads[-1] @ delta)
        if not slope > 0.0:
            return thetas, grads, logps, Termination.LINE_SEARCH_FAIL
        for k in range(MAX_HALVINGS + 1):
            step = 0.5**k
            cand = thetas[-1] + step * delta
            if target.logp(cand) >= logps[-1] + opts.c1 * step * slope:
                lp, g = target.logp_grad(cand)
                break
        else:
            return thetas, grads, logps, Termination.LINE_SEARCH_FAIL
        if lp <= logps[-1]:
            return thetas, grads, logps, Termination.CONVERGED
        s, z = cand - thetas[-1], grads[-1] - g
        prev_logp = logps[-1]
        thetas.append(cand)
        grads.append(g)
        logps.append(lp)
        if (lp - prev_logp) / max(abs(prev_logp), REL_TOL_FLOOR) < opts.rel_tol:
            return thetas, grads, logps, Termination.CONVERGED
        if s @ z > opts.pair_eps * (z @ z):
            s_hist.append(s)
            z_hist.append(z)
            alpha = ((z @ z) / (s @ z)) * np.ones(len(theta))
    return thetas, grads, logps, Termination.MAX_ITER


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6),
       log10_cond=st.floats(0.0, 6.0), history=st.integers(1, 8))
def test_warm_start_retraces_cold_start_on_gaussians(seed, dim, log10_cond, history):
    # The Armijo set of a log-concave density along a line is an interval,
    # so starting each search at twice the last step changes no accepted
    # step: only failing trials disappear.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    cov = (q * np.logspace(-log10_cond / 2, log10_cond / 2, dim)) @ q.T
    params = {"mu": rng.standard_normal(dim).tolist(), "cov": ((cov + cov.T) / 2).tolist()}
    theta0 = rng.uniform(-10.0, 10.0, dim)
    opts = LbfgsOptions(history_size=history)
    warm_target, cold_target = make_target("mvn", **params), make_target("mvn", **params)
    warm = optimize(warm_target, theta0, opts)
    thetas, grads, logps, termination = cold_start_optimize(cold_target, theta0, opts)
    np.testing.assert_array_equal(warm.thetas, np.asarray(thetas))
    np.testing.assert_array_equal(warm.grads, np.asarray(grads))
    np.testing.assert_array_equal(warm.logps, np.asarray(logps))
    assert warm.termination is termination
    assert warm_target.eval_count_grad == cold_target.eval_count_grad


# Logp-only trials per accepted step, Σ(lbfgs_n_logp − lbfgs_n_grad) / Σ num_iters,
# of default run_multi at seed 1, measured with the warm-started search (the
# search started at 1 spent 34.29 and 35.33).  The counts are exact, so a
# search that silently starts cold again fails here.
@pytest.mark.parametrize("name, params, measured", [
    ("eight_schools_centered", {}, 3.9644),
    ("neal_funnel", {"dim": 10}, 7.4272),
])
def test_trials_per_accepted_step_stay_low(name, params, measured):
    result = run_multi(make_target(name, **params), MultipathOptions(), seed=1)
    trials = sum(run.lbfgs_n_logp - run.lbfgs_n_grad for run in result.runs)
    accepted = sum(run.num_iters for run in result.runs)
    assert trials / accepted <= 1.5 * measured


class TestOptimize:
    def test_zero_gradient_at_init(self):
        t = make_target("std_normal", dim=5)
        traj = optimize(t, np.zeros(5), LbfgsOptions())
        assert traj.termination is Termination.ZERO_GRADIENT_AT_INIT
        assert traj.num_iters == 0
        assert traj.thetas.shape == (1, 5)

    def test_non_finite_init_raises(self):
        t = make_target("neal_funnel", dim=2)
        with pytest.raises(NonFiniteError):
            optimize(t, np.array([-800.0, 1.0]), LbfgsOptions())

    def test_mvn_reaches_optimum(self):
        # eigenvalues kept <= 0.6 so the 1e-13 relative-improvement stop
        # implies the iterate is within 1e-6 of the optimum
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        cov = q @ np.diag(rng.uniform(0.2, 0.6, 5)) @ q.T
        mu = rng.standard_normal(5)
        t = make_target("mvn", mu=mu.tolist(), cov=cov.tolist())
        traj = optimize(t, rng.uniform(-2, 2, 5), LbfgsOptions())
        assert traj.num_iters <= 100
        np.testing.assert_allclose(traj.thetas[-1], mu, atol=1e-6)

    def test_funnel_converges_to_stationary_point(self):
        # The 2-d funnel density has a genuine stationary maximum at
        # tau = -4.5, beta = 0 (the tau-quadratic beats the scale term), so
        # the path terminates there with monotonically increasing log density.
        t = make_target("neal_funnel", dim=2)
        rng = np.random.default_rng(0)
        init = np.array([2.0, rng.uniform(-2, 2)])
        traj = optimize(t, init, LbfgsOptions())
        assert traj.termination is Termination.CONVERGED
        np.testing.assert_allclose(traj.thetas[-1], [-4.5, 0.0], atol=1e-4)
        assert np.all(np.diff(traj.logps) > 0)

    @pytest.mark.parametrize("name,dim", [("std_normal", 4), ("neal_funnel", 3),
                                          ("eight_schools_centered", 10)])
    def test_logps_strictly_increase(self, name, dim):
        kwargs = {"dim": dim} if name != "eight_schools_centered" else {}
        t = make_target(name, **kwargs)
        rng = np.random.default_rng(8)
        for _ in range(5):
            traj = optimize(t, rng.uniform(-2, 2, t.dim), LbfgsOptions(max_iters=200))
            assert np.all(np.diff(traj.logps) > 0)
            assert len(traj.thetas) == len(traj.grads) == len(traj.logps)

    @pytest.mark.parametrize("name,params", [
        ("std_normal", {"dim": 4}), ("mvn", {"dim": 3}), ("neal_funnel", {"dim": 3}),
        ("eight_schools_centered", {}), ("eight_schools_noncentered", {}),
        ("logistic_regression", {"n": 30, "p": 3}),
    ])
    def test_gradients_only_at_trajectory_points(self, name, params):
        # One fused evaluation at the start and one per accepted step; a final
        # fused evaluation that gives no increase is the only extra one.
        t = make_target(name, **params)
        seen = record_gradient_points(t)
        traj = optimize(t, np.random.default_rng(1).uniform(-2, 2, t.dim),
                        LbfgsOptions(max_iters=150))
        assert traj.num_iters > 0
        np.testing.assert_array_equal(np.array(seen[:len(traj.thetas)]), traj.thetas)
        extra = len(seen) - len(traj.thetas)
        assert extra == 0 or (extra == 1 and traj.termination is Termination.CONVERGED)
        assert t.eval_count_grad == len(seen)

    def test_deterministic(self):
        t = make_target("eight_schools_centered")
        init = np.random.default_rng(4).uniform(-2, 2, 10)
        t1 = optimize(t, init, LbfgsOptions())
        t2 = optimize(t, init, LbfgsOptions())
        np.testing.assert_array_equal(t1.thetas, t2.thetas)
        np.testing.assert_array_equal(t1.logps, t2.logps)
        assert t1.termination == t2.termination


class DenseBfgsReference:
    """Same algorithm, dense algebra: the inverse Hessian is rebuilt each
    iteration by applying the textbook recursive update for every stored pair
    to the current diagonal seed."""

    def __init__(self, opts):
        self.opts = opts

    def run(self, target, theta0):
        opts = self.opts
        logp, grad = target.logp_grad(theta0)
        thetas, grads, logps = [np.asarray(theta0, float)], [grad], [logp]
        pairs = []
        alpha_scalar = 1.0
        n = len(theta0)
        for _ in range(opts.max_iters):
            if np.linalg.norm(grads[-1]) < opts.grad_zero_tol:
                break
            H = np.eye(n) * alpha_scalar
            for s, z in pairs:
                rho = 1.0 / float(z @ s)
                V = np.eye(n) - rho * np.outer(s, z)
                H = V @ H @ V.T + rho * np.outer(s, s)
            delta = H @ grads[-1]
            if grads[-1] @ delta <= 0:
                break
            step = 1.0
            accepted = None
            slope = float(grads[-1] @ delta)
            for _ in range(MAX_HALVINGS + 1):
                cand = thetas[-1] + step * delta
                try:
                    lp, g = target.logp_grad(cand)
                except NonFiniteError:
                    step *= 0.5
                    continue
                if lp >= logps[-1] + opts.c1 * step * slope:
                    accepted = (step, cand, lp, g)
                    break
                step *= 0.5
            if accepted is None:
                break
            step, cand, lp, g = accepted
            if lp <= logps[-1]:
                break
            prev_theta, prev_grad, prev_logp = thetas[-1], grads[-1], logps[-1]
            thetas.append(cand)
            grads.append(g)
            logps.append(lp)
            if (lp - prev_logp) / max(abs(prev_logp), 1e-10) < opts.rel_tol:
                break
            s = cand - prev_theta
            z = prev_grad - g
            if s @ z > opts.pair_eps * (z @ z):
                pairs.append((s, z))
                if len(pairs) > opts.history_size:
                    pairs.pop(0)
                alpha_scalar = float((z @ z) / (s @ z))
        return np.asarray(thetas)


def test_unlimited_history_matches_dense_reference():
    # With history >= max_iters on a quadratic, the compact-factor direction
    # must reproduce the dense recursive-update iterates.
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    cov = A @ A.T + 1.5 * np.eye(4)
    mu = rng.standard_normal(4)
    opts = LbfgsOptions(history_size=64, max_iters=40)
    for seed in range(5):
        init = np.random.default_rng(seed).uniform(-2, 2, 4)
        t1 = make_target("mvn", mu=mu.tolist(), cov=cov.tolist())
        t2 = make_target("mvn", mu=mu.tolist(), cov=cov.tolist())
        fast = optimize(t1, init, opts)
        dense = DenseBfgsReference(opts).run(t2, init)
        assert fast.thetas.shape == dense.shape
        np.testing.assert_allclose(fast.thetas, dense, atol=1e-8)


def test_history_window_is_bounded():
    # indirect check via the trajectory: optimize stores at most J pairs, so
    # directions depend only on the last J accepted steps; verified by
    # matching a reference that drops old pairs the same way (the window is
    # kept short enough that funnel geometry cannot amplify roundoff)
    t = make_target("eight_schools_centered")
    init = np.random.default_rng(10).uniform(-2, 2, 10)
    opts = LbfgsOptions(history_size=3, max_iters=15)
    fast = optimize(t, init, opts)
    t2 = make_target("eight_schools_centered")
    dense = DenseBfgsReference(opts).run(t2, init)
    upto = min(len(fast.thetas), len(dense))
    assert upto >= 10
    np.testing.assert_allclose(fast.thetas[:upto], dense[:upto], atol=1e-8)


def test_refused_gradients_match_dense_reference():
    # The dense reference evaluates every trial with its gradient and halves
    # on any refusal; logp-only trials followed by a refused fused evaluation
    # must retrace it.
    opts = LbfgsOptions(max_iters=30)
    for seed in range(4):
        init = np.random.default_rng(seed).uniform(-2, 0, 2)
        fast_target = GradientCliff()
        fast = optimize(fast_target, init, opts)
        dense = DenseBfgsReference(opts).run(GradientCliff(), init)
        assert fast.thetas.shape == dense.shape
        np.testing.assert_allclose(fast.thetas, dense, atol=1e-8)
        assert fast_target.eval_count_grad > fast.num_iters + 1


GUARD_TARGETS = [("eight_schools_centered", {}), ("logistic_regression", {"n": 30, "p": 3})]


@pytest.mark.parametrize("name, params", GUARD_TARGETS)
def test_single_mode_calls_only_batched_evaluations(monkeypatch, name, params):
    # Single mode runs the lockstep driver with one path, so the per-point
    # evaluations, which a second driver would call, are never needed.
    def refuse(self, theta):
        raise AssertionError("a per-point evaluation was called")

    target = make_target(name, **params)
    theta0 = np.random.default_rng(2).uniform(-2.0, 2.0, target.dim)
    logp, grad, _ = target.logp_grad_many(theta0[None])
    monkeypatch.setattr(LogDensityTarget, "logp", refuse)
    monkeypatch.setattr(LogDensityTarget, "logp_grad", refuse)
    opts = PathfinderOptions(num_draws=20, lbfgs=LbfgsOptions(max_iters=100))
    assert not run_single(target, opts, seed=3).failed
    assert optimize(target, theta0, opts.lbfgs).num_iters > 0
    res = wolfe_line_search(target, theta0, logp[0], grad[0], grad[0], 1e-4)
    assert res.logp >= logp[0] + 1e-4 * res.step * float(grad[0] @ grad[0])


@pytest.mark.parametrize("name, params", GUARD_TARGETS)
def test_one_batched_call_per_round_for_one_path(monkeypatch, name, params):
    # A lockstep of one path answers each point request with its own
    # batched call of one row: as many calls as point evaluations.
    target = make_target(name, **params)
    calls = []
    for method in ("logp_many", "logp_grad_many"):
        def counting(points, batched=getattr(target, method)):
            calls.append(len(points))
            return batched(points)

        monkeypatch.setattr(target, method, counting)
    theta0 = np.random.default_rng(4).uniform(-2.0, 2.0, target.dim)
    traj = optimize(target, theta0, LbfgsOptions(max_iters=100))
    assert traj.num_iters > 0
    assert len(calls) == target.eval_count_logp > traj.num_iters
    assert set(calls) == {1}


class Ramp(LogDensityTarget):
    """log p = 1e-300 theta: finite and increasing up to the largest float."""

    def __init__(self):
        super().__init__(1, "ramp")

    def _density(self, points, need_grad):
        return 1e-300 * points[:, 0], np.full_like(points, 1e-300) if need_grad else None


class TestLoopErrorState:
    # lockstep sets the floating-point error state once around its loop;
    # the steppers set none of their own.
    LOOP_STATE = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}

    def test_steppers_run_under_the_loop_state(self):
        seen = []

        def stepper():
            seen.append(np.geterr())
            yield np.zeros(1), False
            seen.append(np.geterr())
            return "done"

        before = np.geterr()
        lockstep(Quadratic1D(), [stepper(), stepper()])
        assert np.geterr() == before
        assert len(seen) == 4
        for state in seen:
            assert {key: state[key] for key in self.LOOP_STATE} == self.LOOP_STATE
            assert state["under"] == before["under"]

    def test_state_restored_when_a_stepper_raises(self):
        def stepper():
            yield np.zeros(1), True
            raise ValueError("not a NonFiniteError")

        before = np.geterr()
        with pytest.raises(ValueError):
            lockstep(Quadratic1D(), [stepper()])
        assert np.geterr() == before
        with pytest.raises(LineSearchFailError):  # raised once the loop has ended
            wolfe_line_search(Linear1D(), np.zeros(1), 0.0, np.array([2.0]),
                              np.array([-1.0]), 1e-4)
        assert np.geterr() == before

    def test_runs_leave_the_state_as_they_found_it(self):
        before = np.geterr()
        target = make_target("eight_schools_centered")
        run_single(target, PathfinderOptions(num_draws=10), seed=1)
        assert np.geterr() == before
        run_multi(target, MultipathOptions(num_paths=3, num_resample=10,
                                           single=PathfinderOptions(num_draws=10)), seed=1)
        assert np.geterr() == before

    def test_overflowing_trial_is_refused_quietly(self):
        # The first trial 1e308 + 1e308 overflows to inf, which the target
        # refuses; the halved step lands on 1.5e308.  Tier-1 turns a
        # RuntimeWarning into an error, so running this case is the check.
        theta, delta = np.array([1e308]), np.array([1e308])
        states = lockstep(Ramp(), [line_search_steps(theta, 1e8, np.array([1e-300]), delta, 1e-4)])
        result = states[0].outcome
        assert result.step == 0.5 and result.theta[0] == 1.5e308
        assert (states[0].n_logp_only, states[0].n_fused) == (2, 1)


class TestLockstepSchedule:
    # Each round answers one kind of request, the one most pending steppers
    # wait on; a tie goes to directions, then trials, then fused points.
    KINDS = ("direction", "trial", "fused")
    REQUESTS = {
        "direction": DirectionRequest(np.zeros((1, 0)), np.zeros((1, 0)), np.ones(1), np.ones(1)),
        "trial": (np.zeros(1), False),
        "fused": (np.zeros(1), True),
    }

    def scripted(self, name, kinds, pending):
        for kind in kinds:
            pending[name] = kind
            yield self.REQUESTS[kind]
        del pending[name]
        return name

    def run(self, monkeypatch, scripts):
        """Lockstep the scripted steppers; each round's kind, rows and pending tally."""
        pending, rounds = {}, []
        target = Quadratic1D()

        def recording(kind, answer):
            def answered(*args):
                tally = {k: list(pending.values()).count(k) for k in self.KINDS}
                rounds.append((kind, len(args[-1]), tally))
                return answer(*args)
            return answered

        monkeypatch.setattr(lbfgs, "stacked_directions",
                            recording("direction", lbfgs.stacked_directions))
        monkeypatch.setattr(target, "logp_many", recording("trial", target.logp_many))
        monkeypatch.setattr(target, "logp_grad_many", recording("fused", target.logp_grad_many))
        states = lockstep(target, [self.scripted(i, kinds, pending)
                                   for i, kinds in enumerate(scripts)])
        assert [state.outcome for state in states] == list(range(len(scripts)))
        return rounds

    def test_each_round_answers_the_most_numerous_kind(self, monkeypatch):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scripts = [list(rng.choice(self.KINDS, size=rng.integers(1, 12)))
                       for _ in range(rng.integers(1, 9))]
            rounds = self.run(monkeypatch, scripts)
            for kind, rows, tally in rounds:
                most = max(tally.values())
                assert rows == tally[kind] == most >= 1
                assert kind == next(k for k in self.KINDS if tally[k] == most)
            assert len(rounds) <= sum(map(len, scripts))

    @pytest.mark.parametrize("first, expected", [
        (["direction", "trial", "fused"], "direction"),
        (["trial", "fused"], "trial"),
        (["fused", "direction"], "direction"),
    ])
    def test_ties_go_in_the_documented_order(self, monkeypatch, first, expected):
        rounds = self.run(monkeypatch, [[kind, kind] for kind in first for _ in range(2)])
        assert rounds[0][:2] == (expected, 2)

    def test_a_minority_stepper_still_finishes(self, monkeypatch):
        # Five steppers that only ever ask for trials outnumber the one that
        # asks for a fused point and a direction, which waits until they end.
        scripts = [["trial"] * 10 for _ in range(5)] + [["fused", "direction", "fused"]]
        rounds = self.run(monkeypatch, scripts)
        assert [kind for kind, _, _ in rounds] == ["trial"] * 10 + ["fused", "direction", "fused"]
        assert len(rounds) <= sum(map(len, scripts))

    def test_a_stepper_returning_none_ends(self):
        # A line search that finds no step returns None and ends like any stepper.
        failing = line_search_steps(np.zeros(1), 0.0, np.ones(1), np.ones(1), 1e-4, 2.0**-58)
        states = lockstep(Quadratic1D(), [failing, self.scripted(1, ["fused"], {})])
        assert [state.outcome for state in states] == [None, 1]
        assert [(state.n_logp_only, state.n_fused) for state in states] == [(3, 0), (0, 1)]

    @pytest.mark.parametrize("name, params", [
        ("eight_schools_centered", {}), ("neal_funnel", {"dim": 10})])
    def test_every_path_of_a_lockstep_equals_its_lockstep_alone(self, name, params):
        target, opts = make_target(name, **params), PathfinderOptions()
        starts = [initial_point(target.dim, opts, 1, i) for i in range(20)]
        together = lockstep(target, [optimize_steps(x, opts.lbfgs) for x in starts])
        for start, state in zip(starts, together):
            alone = lockstep(target, [optimize_steps(start, opts.lbfgs)])[0]
            for field in ("thetas", "grads", "logps"):
                assert (getattr(state.outcome, field).tobytes()
                        == getattr(alone.outcome, field).tobytes())
            assert state.outcome.termination is alone.outcome.termination
            assert (state.n_logp_only, state.n_fused) == (alone.n_logp_only, alone.n_fused)
