"""numpy is the package's only runtime dependency: no module, target or call loads scipy.

The package declares numpy alone in ``pyproject.toml``.  Every import check
runs a fresh interpreter, because this test session has loaded scipy already
for its oracles.  The package root's ``__all__`` must list exactly the names
it binds.
"""

import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ImportError:  # Python 3.10
    tomllib = None

import pathfinder
from pathfinder import eval_logq, make_target, wasserstein1
from pathfinder.inv_hessian import factors_from_pairs
from pathfinder.normal_approx import build, sample
from pathfinder.targets import TARGET_NAMES

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


def test_root_exports_exactly_its_public_names():
    bound = {name for name, value in vars(pathfinder).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(pathfinder.__all__) == sorted(bound)
    for name in pathfinder.__all__:
        assert getattr(pathfinder, name).__module__.startswith("pathfinder.")


@pytest.mark.parametrize("module", MODULES)
def test_import_loads_no_scipy(module):
    assert run_fresh(f"import json, sys, {module}; print(json.dumps({LOADED}))") == []


RUNS = {
    "single": ["--target", "eight_schools_centered", "--mode", "single", "--seed", "3"],
    "multi": ["--target", "eight_schools_centered", "--mode", "multi", "--seed", "3"],
    "mvn": ["--target", "mvn", "--mode", "single", "--seed", "3", "--target-params",
            json.dumps({"mu": [0.0, 1.0, -1.0], "cov": [[2.0, 0.5, 0.1], [0.5, 1.0, 0.2],
                                                         [0.1, 0.2, 0.5]]})],
}


@pytest.mark.parametrize("run", RUNS)
def test_cli_run_loads_no_scipy(tmp_path, run):
    loaded = run_fresh(
        "import json, sys\n"
        "from pathfinder.cli import main\n"
        f"code = main({RUNS[run]!r})\n"
        f"print(json.dumps([code, {LOADED}]))",
        cwd=tmp_path)
    assert loaded == [0, []]
    assert (tmp_path / "draws.csv").is_file() and (tmp_path / "diagnostics.json").is_file()


def numpy_only_calls() -> None:
    """Build and evaluate every registry target, a draw's exact log density and W1."""
    for name in TARGET_NAMES:
        target = make_target(name, dim=10 if name.startswith("eight_schools") else 3)
        assert target.logp_grad_many(np.ones((2, target.dim)))[2].all()
    rng = np.random.default_rng(11)
    S = rng.normal(size=(5, 2))
    approx = build(factors_from_pairs(S, 2.0 * S, np.ones(5)), np.zeros(5), np.ones(5))
    draws = sample(approx, 3, rng)
    assert approx.rank > 0
    assert abs(eval_logq(approx, draws.draws[0]) - draws.logq[0]) < 1e-9
    a, b, c = rng.normal(size=(9, 3)), rng.normal(size=(9, 3)), rng.normal(size=(4, 3))
    assert wasserstein1(a, b) > 0 and wasserstein1(a, c) > 0


def test_targets_and_eval_logq_load_no_scipy():
    numpy_only_calls()
    loaded = run_fresh(
        "import json, sys\n"
        "from test_imports import numpy_only_calls\n"
        "numpy_only_calls()\n"
        f"print(json.dumps({LOADED}))")
    assert loaded == []


@pytest.mark.skipif(tomllib is None, reason="tomllib needs Python 3.11")
def test_numpy_is_the_only_runtime_dependency():
    with open(TESTS.parent / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
