"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines, or
execute the file directly.  Every tolerance is pinned here; nothing is left to
later calibration.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import pathfinder
from pathfinder import (
    MultipathOptions,
    PathfinderOptions,
    eval_logq,
    make_target,
    run_multi,
    run_single,
    wasserstein1,
)
from pathfinder.cli import main
from pathfinder.elbo import elbo_estimate
from pathfinder.inv_hessian import factors_from_pairs
from pathfinder.multipath import (
    KHAT_SENTINEL, fit_generalized_pareto, pool_runs, psis_smooth, resample,
)
from pathfinder.normal_approx import build, sample

from oracles import dense_mvn_logpdf, dense_sigma, gpd_sample, random_curvature_pairs

# Fixed seed set for the eight-schools balance check; pinned because the
# per-seed tau fraction has Monte Carlo spread of roughly +/- 0.12 around 0.6
# at the default pool size (effective sample size ~25 after smoothing).
EIGHT_SCHOOLS_SEEDS = tuple(range(2, 12))


def report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{status} criterion {num:2d}: {name}{suffix}")
    assert passed, f"criterion {num}: {name}{suffix}"


def test_criterion_01_factorization_oracle():
    """Dense covariance equals the thin-QR/Cholesky factorization on 200 instances."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst_sigma = worst_logdet = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        j = int(rng.integers(1, min(3, n // 2) + 1))
        S, Z = random_curvature_pairs(rng, n, j, min_cos=0.02)
        alpha = rng.uniform(0.3, 3.0, n)
        fac = factors_from_pairs(S, Z, alpha)
        ap = build(fac, np.zeros(n), np.zeros(n))
        sigma = dense_sigma(S, Z, alpha)
        middle = ap.qmat @ (ap.lt @ ap.lt.T - np.eye(ap.rank)) @ ap.qmat.T + np.eye(n)
        tt = np.sqrt(alpha)[:, None] * middle * np.sqrt(alpha)[None, :]
        worst_sigma = max(worst_sigma, float(np.abs(tt - sigma).max()))
        _, logdet = np.linalg.slogdet(sigma)
        worst_logdet = max(worst_logdet, abs(ap.logdet - logdet))
    elapsed = time.monotonic() - start
    report(
        1, "factorization oracle",
        worst_sigma < 1e-8 and worst_logdet < 1e-8 and elapsed < 5.0,
        f"max|TT'-Sigma|={worst_sigma:.1e}, max|dlogdet|={worst_logdet:.1e}, {elapsed:.1f}s",
    )


def test_criterion_02_sampling_correctness():
    """Moments and log densities of 1e5 draws from a fixed factored normal."""
    start = time.monotonic()
    rng = np.random.default_rng(202)
    S, Z = random_curvature_pairs(rng, 4, 1, min_cos=0.05)
    alpha = rng.uniform(0.5, 2.0, 4)
    fac = factors_from_pairs(S, Z, alpha)
    ap = build(fac, rng.standard_normal(4), rng.standard_normal(4))
    sigma = dense_sigma(S, Z, alpha)

    m = 100_000
    batch = sample(ap, m, np.random.default_rng(7))
    mean_ok = bool(np.all(
        np.abs(batch.draws.mean(axis=0) - ap.mu) < 3 * np.sqrt(np.diag(sigma) / m)
    ))
    emp_cov = np.cov(batch.draws.T)
    se_cov = np.sqrt((np.outer(np.diag(sigma), np.diag(sigma)) + sigma**2) / m)
    cov_ok = bool(np.all(np.abs(emp_cov - sigma) < 3 * se_cov))

    logq_eval = np.array([eval_logq(ap, d) for d in batch.draws[:2000]])
    logq_dense = dense_mvn_logpdf(batch.draws[:2000], ap.mu, sigma)
    logq_ok = (
        float(np.abs(batch.logq[:2000] - logq_eval).max()) < 1e-8
        and float(np.abs(batch.logq[:2000] - logq_dense).max()) < 1e-8
    )
    elapsed = time.monotonic() - start
    report(
        2, "sampling correctness",
        mean_ok and cov_ok and logq_ok and elapsed < 10.0,
        f"mean_ok={mean_ok}, cov_ok={cov_ok}, logq_ok={logq_ok}, {elapsed:.1f}s",
    )


def test_criterion_03_gradient_hygiene():
    """Finite-difference gradient checks for every built-in target."""
    rng = np.random.default_rng(303)
    cov = np.diag(rng.uniform(0.5, 2.0, 4))
    cov[0, 1] = cov[1, 0] = 0.3
    targets = [
        make_target("std_normal", dim=3),
        make_target("mvn", mu=[1.0, -0.5, 0.25, 0.0], cov=cov.tolist()),
        make_target("neal_funnel", dim=5),
        make_target("eight_schools_centered"),
        make_target("eight_schools_noncentered"),
        make_target("logistic_regression", n=20, p=3, data_seed=1),
    ]
    worst = 0.0
    worst_name = ""
    for target in targets:
        for _ in range(100):
            point = rng.normal(0.0, 1.5, target.dim)
            _, grad = target.logp_grad(point)
            fd = np.empty(target.dim)
            for n in range(target.dim):
                h = 1e-6 * (1.0 + abs(point[n]))
                plus, minus = point.copy(), point.copy()
                plus[n] += h
                minus[n] -= h
                fd[n] = (target.logp(plus) - target.logp(minus)) / (2 * h)
            err = float((np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))).max())
            if err > worst:
                worst, worst_name = err, target.name
    report(3, "gradient hygiene", worst < 1e-4, f"worst rel err {worst:.1e} ({worst_name})")


def _recovery_rate(target_factory, num_seeds=100):
    opts = PathfinderOptions()
    ok = 0
    for seed in range(num_seeds):
        target = target_factory()
        run = run_single(target, opts, seed=seed)
        if run.failed:
            continue
        if np.abs(run.approx.mu).max() > 0.05:
            continue
        batch = sample(run.approx, 10_000, np.random.default_rng(seed + 10_000))
        logp = target.logp_many(batch.draws)
        if abs(elbo_estimate(logp, batch.logq)) <= 0.2:
            ok += 1
    return ok


def test_criterion_04_normal_target_recovery():
    """Single-path recovery of standard-normal and random diagonal targets."""
    start = time.monotonic()
    ok_std = _recovery_rate(lambda: make_target("std_normal", dim=5))
    diag = np.exp(np.random.default_rng(2024).uniform(np.log(0.8), np.log(1.25), 5))
    ok_mvn = _recovery_rate(
        lambda: make_target("mvn", mu=[0.0] * 5, cov=np.diag(diag).tolist())
    )
    elapsed = time.monotonic() - start
    report(
        4, "normal-target recovery",
        ok_std >= 95 and ok_mvn >= 95 and elapsed < 60.0,
        f"std_normal {ok_std}/100, diag mvn {ok_mvn}/100, {elapsed:.1f}s",
    )


def test_criterion_05_funnel_interior_selection():
    """The ELBO maximum usually falls strictly inside the funnel trajectory."""
    start = time.monotonic()
    target = make_target("neal_funnel", dim=2)
    opts = PathfinderOptions()
    interior = 0
    for seed in range(100):
        run = run_single(target, opts, seed=seed)
        if not run.failed and run.l_star < run.num_iters:
            interior += 1
    elapsed = time.monotonic() - start
    report(
        5, "funnel interior selection",
        interior >= 90 and elapsed < 60.0,
        f"{interior}/100 runs selected l* < L', {elapsed:.1f}s",
    )


def test_criterion_06_failure_sentinel():
    """Failed runs return one +inf-logq draw that can never be resampled."""
    from pathfinder.targets import LogDensityTarget

    class PlateauTarget(LogDensityTarget):
        def __init__(self):
            super().__init__(2, "plateau")

        def _logp_grad_impl(self, theta):
            return -1.0, np.zeros(2)

    failed = run_single(PlateauTarget(), PathfinderOptions(), seed=0)
    sentinel_ok = failed.failed and failed.draws.shape == (1, 2) and failed.logq[0] == np.inf

    target = make_target("std_normal", dim=2)
    good = run_single(target, PathfinderOptions(), seed=1, path_index=0)
    pooled = pool_runs([good, failed], target)
    smoothed, _ = psis_smooth(pooled.log_w_raw)
    picks = resample(pooled.draws, smoothed, 100_000, np.random.default_rng(3))
    never_picked = bool(np.all(pooled.component_ids[picks] == 0))
    report(
        6, "failure sentinel",
        sentinel_ok and never_picked,
        f"sentinel_ok={sentinel_ok}, failed-component picks=0 over 1e5: {never_picked}",
    )


def test_criterion_07_psis_recovery():
    """Generalized Pareto shape recovery on synthetic tails, plus degeneracy."""
    hits = {k: 0 for k in (0.2, 0.5, 0.8)}
    for k in hits:
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            x = gpd_sample(rng, k, 1.0, 4000)
            k_hat, _ = fit_generalized_pareto(x)
            if abs(k_hat - k) <= 0.1:
                hits[k] += 1
    fit_ok = all(v >= 90 for v in hits.values())

    raw = np.full(500, -2.0)
    smoothed, k_hat = psis_smooth(raw)
    degenerate_ok = bool(np.array_equal(smoothed, raw) and k_hat == KHAT_SENTINEL)
    report(
        7, "PSIS tail recovery",
        fit_ok and degenerate_ok,
        f"hits={hits}, degenerate sentinel={degenerate_ok}",
    )


def test_criterion_08_eight_schools_sign_balance():
    """Resampled between-school-scale draws straddle zero on the log scale."""
    start = time.monotonic()
    target = make_target("eight_schools_centered")
    opts = MultipathOptions()
    fractions = []
    for seed in EIGHT_SCHOOLS_SEEDS:
        result = run_multi(target, opts, seed=seed)
        fractions.append(float(np.mean(result.draws[:, 9] > 0.0)))
    in_band = [0.25 <= f <= 0.75 for f in fractions]
    elapsed = time.monotonic() - start
    report(
        8, "eight-schools sign balance",
        all(in_band),
        f"fractions={np.round(fractions, 2).tolist()}, {elapsed:.0f}s",
    )


def test_criterion_09_cost_accounting():
    """Evaluation counters reconcile across modules and runs."""
    target = make_target("eight_schools_noncentered")
    opts = MultipathOptions(num_paths=4, num_resample=50,
                            single=PathfinderOptions(num_draws=60))
    result = run_multi(target, opts, seed=5)
    k = opts.single.elbo_draws
    per_path_ok = all(
        run.n_logp == run.lbfgs_n_logp + k * run.scored_candidates
        and run.n_logp >= k * run.scored_candidates
        and run.n_grad == run.lbfgs_n_grad
        for run in result.runs
    )
    totals_ok = (
        result.n_logp == sum(r.n_logp for r in result.runs) + result.pool_n_logp
        and result.n_grad == sum(r.n_grad for r in result.runs)
        and target.eval_count_logp == result.n_logp
        and target.eval_count_grad == result.n_grad
    )
    report(
        9, "cost accounting",
        per_path_ok and totals_ok,
        f"per_path_ok={per_path_ok}, totals_ok={totals_ok}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    """One config gives byte-identical outputs in-process, from ``python -m
    pathfinder`` in a fresh interpreter, and replayed from the echoed config."""
    args = ["--target", "eight_schools_noncentered", "--mode", "multi",
            "--seed", "12345", "--paths", "5", "--num-draws", "40",
            "--resample-draws", "30"]

    def outputs(name):
        return tmp_path / f"{name}.csv", tmp_path / f"{name}.json"

    out, diag = outputs("main")
    assert main([*args, "--out", str(out), "--diagnostics", str(diag)]) == 0

    src = str(Path(pathfinder.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out, diag = outputs("subprocess")
    proc = subprocess.run(
        [sys.executable, "-m", "pathfinder", *args, "--out", str(out), "--diagnostics", str(diag)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

    echoed = tmp_path / "echoed.json"
    echoed.write_text(json.dumps(json.loads(outputs("main")[1].read_text())["config"]))
    out, diag = outputs("replay")
    assert main(["--config", str(echoed), "--out", str(out), "--diagnostics", str(diag)]) == 0

    runs = [tuple(p.read_bytes() for p in outputs(name))
            for name in ("main", "subprocess", "replay")]
    identical = runs[0] == runs[1] == runs[2]
    report(10, "CLI determinism", identical,
           f"csv+json identical in-process, in a subprocess and on replay: {identical}")


def test_criterion_11_wasserstein_evaluator():
    """Permutation-oracle equality and metric axioms for the W1 evaluator."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((3, 2))
        cost = cdist(a, b)
        brute = min(
            sum(cost[i, perm[i]] for i in range(3)) / 3.0
            for perm in itertools.permutations(range(3))
        )
        worst = max(worst, abs(wasserstein1(a, b) - brute))
    oracle_ok = worst < 1e-9

    axioms_ok = True
    for _ in range(100):
        a, b, c = (rng.standard_normal((5, 2)) for _ in range(3))
        if abs(wasserstein1(a, b) - wasserstein1(b, a)) > 1e-10:
            axioms_ok = False
        if wasserstein1(a, c) > wasserstein1(a, b) + wasserstein1(b, c) + 1e-9:
            axioms_ok = False
    report(
        11, "exact W1 evaluator",
        oracle_ok and axioms_ok,
        f"max oracle gap {worst:.1e}, axioms_ok={axioms_ok}",
    )


if __name__ == "__main__":
    import sys

    rc = pytest.main([__file__, "-s", "-q"])
    sys.exit(int(rc))
