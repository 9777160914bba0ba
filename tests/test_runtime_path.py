"""Every job of the runtime takes the one stacked code path.

The stack-of-one and wrapper functions stay importable for callers and for
the benchmark's tracer, but ``run_single``, ``run_multi`` and ``cli.main``
must complete with each of them patched to raise, in forked children too.
The approximation each run draws from must equal, bit for bit, the one those
functions rebuild for its winning iteration.
"""

import sys

import numpy as np
import pytest

from pathfinder import (
    MultipathOptions,
    PathfinderOptions,
    inv_hessian,
    lbfgs,
    make_target,
    normal_approx,
    run_multi,
    run_single,
    single_path,
    targets,
)
from pathfinder.cli import main
from pathfinder.inv_hessian import RECOVER_CHUNK, alpha_recover, assemble_factors
from pathfinder.normal_approx import build
from pathfinder.single_path import initial_point

from oracles import select_argmax

LINUX = sys.platform.startswith("linux")

# Functions the runtime must not call, caught under every module name that holds them.
OFF_PATH = [
    (inv_hessian, "assemble_factors"), (inv_hessian, "factors_from_pairs"),
    (inv_hessian, "alpha_recover"),
    (lbfgs, "optimize"), (lbfgs, "search_direction"), (lbfgs, "wolfe_line_search"),
    (normal_approx, "build"),
]
# Methods the runtime must not call, patched on their class so every reference
# to it is caught: CounterView at its constructor.
OFF_PATH_METHODS = [
    (targets.CounterView, "__init__"),
    (targets.LogDensityTarget, "logp_grad"),
    (targets.LogDensityTarget, "logp"),
]


@pytest.fixture
def off_path(monkeypatch):
    """Make every OFF_PATH function and OFF_PATH_METHODS method raise."""
    def refuse(name):
        def raising(*args, **kwargs):
            raise AssertionError(f"the runtime called {name}")
        return raising

    names = {id(getattr(module, name)): f"{module.__name__}.{name}" for module, name in OFF_PATH}
    modules = [module for key, module in sys.modules.items()
               if key == "pathfinder" or key.startswith("pathfinder.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in names:
                monkeypatch.setattr(module, attr, refuse(names[id(value)]))
    for cls, name in OFF_PATH_METHODS:
        monkeypatch.setattr(cls, name, refuse(f"{cls.__name__}.{name}"))
    # The re-imports the benchmark's tracer wraps are caught too.
    for module, name in [(single_path, "assemble_factors"), (single_path, "alpha_recover"),
                         (single_path, "optimize"), (targets, "CounterView")]:
        with pytest.raises(AssertionError, match="the runtime called"):
            getattr(module, name)(None)


@pytest.mark.parametrize("cores", [1, pytest.param(2, marks=pytest.mark.skipif(
    not LINUX, reason="forks on Linux only"))])
def test_solves_complete_without_the_off_path_functions(off_path, monkeypatch, cores):
    monkeypatch.setattr(single_path, "usable_cores", lambda: cores)
    run = run_single(make_target("eight_schools_centered"), PathfinderOptions(), seed=1)
    # Past RECOVER_CHUNK steps, a spare core forks the single-mode scorer.
    assert not run.failed and run.num_iters > RECOVER_CHUNK
    result = run_multi(make_target("eight_schools_centered"),
                       MultipathOptions(num_paths=4, num_resample=50), seed=1)
    assert not any(run.failed for run in result.runs)


@pytest.mark.parametrize("mode", ["single", "multi"])
def test_cli_completes_without_the_off_path_functions(off_path, tmp_path, mode):
    out, diag = tmp_path / "draws.csv", tmp_path / "diag.json"
    assert main(["--target", "eight_schools_centered", "--mode", mode, "--seed", "1",
                 "--out", str(out), "--diagnostics", str(diag)]) == 0
    assert out.exists() and diag.exists()


MVN = {"mu": [1.0, -0.5, 0.25, 0.0], "cov": (np.diag([4.0, 1.0, 0.25, 2.0]) + 0.3).tolist()}
ROW_STABLE = [
    ("eight_schools_centered", {}),
    ("eight_schools_noncentered", {}),
    ("neal_funnel", {"dim": 10}),
    ("std_normal", {"dim": 4}),
    ("mvn", MVN),
]


# The default block size, a smaller one that cuts the blocks elsewhere, and
# one candidate per block.
@pytest.mark.parametrize("block_floats", [single_path.BLOCK_FLOATS, 2**14, 1])
@pytest.mark.parametrize("name, params", ROW_STABLE)
def test_each_winner_equals_its_rebuild(monkeypatch, name, params, block_floats):
    # Oracle: the stack-of-one functions, from the path's own start.
    monkeypatch.setattr(single_path, "BLOCK_FLOATS", block_floats)
    opts = MultipathOptions(num_paths=3, num_resample=20)
    runs = run_multi(make_target(name, **params), opts, seed=5).runs
    runs.append(run_single(make_target(name, **params), opts.single, 5, path_index=1))
    for i, run in zip([0, 1, 2, 1], runs):  # run_multi's three paths, then path 1 alone
        assert not run.failed and run.l_star == select_argmax(run.elbo_trace)
        target = make_target(name, **params)
        traj = lbfgs.optimize(target, initial_point(target.dim, opts.single, 5, i),
                              opts.single.lbfgs)
        factors = assemble_factors(alpha_recover(traj), run.l_star, opts.single.lbfgs.history_size)
        rebuilt = build(factors, traj.thetas[run.l_star], traj.grads[run.l_star])
        for field, value in vars(rebuilt).items():
            assert np.asarray(getattr(run.approx, field)).tobytes() == np.asarray(value).tobytes()


def test_a_path_with_no_scored_candidate_is_the_sentinel_run(monkeypatch):
    stacked_factors = single_path.stacked_factors

    def no_valid_e(S, Z, alpha):
        factors, ok = stacked_factors(S, Z, alpha)
        return factors, np.zeros_like(ok)

    monkeypatch.setattr(single_path, "stacked_factors", no_valid_e)
    opts = PathfinderOptions()
    run = run_single(make_target("std_normal", dim=4), opts, seed=2)
    traj = lbfgs.optimize(make_target("std_normal", dim=4), initial_point(4, opts, 2, 0),
                          opts.lbfgs)
    assert run.failed and run.l_star is None and run.approx is None
    assert run.num_iters == traj.num_iters > 0
    assert run.draws.tobytes() == traj.thetas[-1:].tobytes()
    assert run.logq.tolist() == [np.inf]
    assert run.scored_candidates == 0 and run.disqualified["singular_e"] == run.num_iters
    assert np.all(run.elbo_trace == -np.inf) and run.n_logp == run.lbfgs_n_logp


@pytest.mark.parametrize("reason", ["cholesky", "nonfinite_approx"])
def test_a_path_whose_every_approximation_fails_is_the_sentinel_run(monkeypatch, reason):
    # Each scoring block then runs on through empty stacks and hands the
    # target batches of no rows, which count nothing.
    build_many = normal_approx.build_many

    def failing(factors, thetas, grads):
        approx, ok = build_many(factors, thetas, grads)
        if reason == "cholesky":
            return approx, np.zeros_like(ok)
        approx.logdet[:] = np.nan
        return approx, ok

    monkeypatch.setattr(normal_approx, "build_many", failing)
    target = make_target("std_normal", dim=4)
    run = run_single(target, PathfinderOptions(), seed=2)
    assert run.failed and run.l_star is None and run.approx is None and run.num_iters > 0
    assert run.scored_candidates == 0 and run.disqualified[reason] == run.num_iters
    assert np.all(run.elbo_trace == -np.inf) and run.n_logp == run.lbfgs_n_logp
    assert (target.eval_count_grad, target.eval_count_logp) == (run.n_grad, run.n_logp)
