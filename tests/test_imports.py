"""scipy stays off the import path: the package and the sampler load numpy alone.

scipy is imported only by the code that uses it: the ``mvn`` target when it is
built, ``eval_logq`` and ``wasserstein1``.  Every check runs a fresh
interpreter, because this test session has loaded scipy already.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pathfinder
from pathfinder import build, eval_logq, make_target, wasserstein1
from pathfinder.inv_hessian import factors_from_pairs

SRC = Path(pathfinder.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent
# Every module but __main__, which runs the command line when imported.
MODULES = ["pathfinder"] + [f"pathfinder.{m.name}" for m in pkgutil.iter_modules(pathfinder.__path__)
                            if m.name != "__main__"]
LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def run_fresh(code: str, cwd=None):
    """Run ``code`` in a new interpreter and return what it prints as JSON last."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), str(TESTS), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", MODULES)
def test_import_loads_no_scipy(module):
    assert run_fresh(f"import json, sys, {module}; print(json.dumps({LOADED}))") == []


@pytest.mark.parametrize("mode", ["single", "multi"])
def test_cli_run_loads_no_scipy(tmp_path, mode):
    loaded = run_fresh(
        "import json, sys\n"
        "from pathfinder.cli import main\n"
        f"code = main(['--target', 'eight_schools_centered', '--mode', '{mode}', '--seed', '3'])\n"
        f"print(json.dumps([code, {LOADED}]))",
        cwd=tmp_path)
    assert loaded == [0, []]
    assert (tmp_path / "draws.csv").is_file() and (tmp_path / "diagnostics.json").is_file()


def test_mvn_target_loads_scipy_linalg_alone():
    loaded = run_fresh(
        "import json, sys\n"
        "from pathfinder import make_target\n"
        "make_target('mvn', mu=[0.0, 1.0], cov=[[2.0, 0.5], [0.5, 1.0]])\n"
        f"print(json.dumps({LOADED}))")
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.optimize", "scipy.sparse", "scipy.spatial"))]


def deferred_calls() -> dict:
    """Call every code path that imports scipy; each result as the hex of its bytes."""
    rng = np.random.default_rng(11)
    a, b, c = rng.normal(size=(9, 3)), rng.normal(size=(9, 3)), rng.normal(size=(4, 3))
    n = 5
    root = rng.normal(size=(n, n))
    S = rng.normal(size=(n, 2))
    factors = factors_from_pairs(S, (root @ root.T + np.eye(n)) @ S, rng.uniform(0.5, 2.0, n))
    approx = build(factors, rng.normal(size=n), rng.normal(size=n))
    cov = root @ root.T + n * np.eye(n)
    logp, grad, ok = make_target("mvn", mu=rng.normal(size=n), cov=cov).logp_grad_many(
        rng.normal(size=(6, n)))
    return {
        "rank": approx.rank,
        "w1_assignment": wasserstein1(a, b).hex(),
        "w1_lp": wasserstein1(a, c).hex(),
        "logq": eval_logq(approx, rng.normal(size=n)).hex(),
        "mvn": [logp.tobytes().hex(), grad.tobytes().hex(), ok.tolist()],
    }


def test_deferred_scipy_paths_match_in_a_fresh_interpreter():
    fresh = run_fresh(
        "import json, sys\n"
        "from test_imports import deferred_calls\n"
        f"before = {LOADED}\n"
        "calls = deferred_calls()\n"
        f"print(json.dumps([before, {LOADED}, calls]))")
    before, after, calls = fresh
    assert before == []
    assert {"scipy.linalg", "scipy.optimize", "scipy.spatial"} <= set(after)
    here = deferred_calls()
    assert here["rank"] > 0
    assert calls == here
