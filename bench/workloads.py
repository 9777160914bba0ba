"""The benchmark's workloads: generated inputs, one timed solve, and its checks.

A solve is one call into pathfinder's public API under its own master seed.
Every input (the logistic X/y, the normal's mean and covariance) and every
master seed derives from the workload seed, so the same seed gives the same
solves.  Quality figures (W1 to exact draws, PSIS k-hat, sign balance) are
computed after the timed call returns.
"""

from __future__ import annotations

import io
import json
import os
import traceback
from dataclasses import dataclass, field

import numpy as np

import pathfinder
import pathfinder.cli
from pathfinder.evaluate import wasserstein1
from pathfinder.multipath import psis_smooth

from clock import Stopwatch
from tracer import patched

# Streams under the workload seed.
INPUT_STREAM, SOLVE_STREAM, EXACT_STREAM = 0, 1, 2

# Acceptance band for the share of eight-schools draws with log tau > 0
# (acceptance criterion 8 of the test suite).
TAU_BAND = (0.25, 0.75)
TAU_INDEX = 9

# A single-path solve whose W1 to exact draws exceeds this multiple of the
# exact-vs-exact W1 is not sampling the target; Pathfinder reads about 1.05x.
W1_LIMIT = 1.5

LOGREG_SHAPE = (1000, 50)
MVN_DIM = 50
MVN_EIG_RANGE = (0.01, 100.0)


def stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def solve_seed(seed: int, index: int) -> int:
    """Master seed of the ``index``-th solve of a run."""
    state = np.random.SeedSequence([seed, SOLVE_STREAM, index]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


def make_inputs(name: str, seed: int) -> dict:
    """Target name and parameters generated from the workload seed."""
    rng = stream(seed, INPUT_STREAM)
    if name == "es8c_multi":
        return {"target": "eight_schools_centered", "params": {}}
    if name == "logreg_multi":
        X = rng.standard_normal(LOGREG_SHAPE)
        # Coefficients scaled so that X @ beta has unit variance: the classes
        # overlap, so every seed gives a similar posterior (ELBO within ~3%).
        beta = rng.standard_normal(LOGREG_SHAPE[1]) / np.sqrt(LOGREG_SHAPE[1])
        y = (rng.random(LOGREG_SHAPE[0]) < 1.0 / (1.0 + np.exp(-(X @ beta)))).astype(float)
        return {"target": "logistic_regression", "params": {"X": X, "y": y}}
    if name == "mvn_single_cli":
        # Evenly log-spaced eigenvalues: a stratified log-uniform spectrum, so
        # every seed poses an equally hard problem and only the basis changes.
        eig = np.geomspace(*MVN_EIG_RANGE, MVN_DIM)
        q, r = np.linalg.qr(rng.standard_normal((MVN_DIM, MVN_DIM)))
        rotation = q * np.sign(np.diag(r))  # Haar-distributed orthogonal matrix
        cov = (rotation * eig) @ rotation.T
        cov = 0.5 * (cov + cov.T)
        mu = rng.standard_normal(MVN_DIM)
        return {"target": "mvn", "params": {"mu": mu, "cov": cov}}
    raise KeyError(name)


def make_target(inputs: dict):
    return pathfinder.make_target(inputs["target"], **inputs["params"])


@dataclass
class Solve:
    """One solve's wall time, cost counters, checks and quality figures."""

    seconds: float
    scaled_seconds: float = 0.0
    problems: list = field(default_factory=list)
    n_grad: int = 0
    n_logp: int = 0
    fingerprint: bytes = b""
    bytes_written: int = 0
    paths: int = 0
    failed_paths: int = 0
    elbo_best: list = field(default_factory=list)
    k_hat: float = float("nan")
    tau_pos_frac: float | None = None
    w1: float | None = None
    w1_floor: float | None = None


def _timed(watch: Stopwatch, problems=()) -> Solve:
    return Solve(seconds=watch.seconds, scaled_seconds=watch.scaled_seconds, problems=list(problems))


def _check_draws(solve: Solve, draws, shape) -> None:
    if draws.shape != shape:
        solve.problems.append(f"draws shape {draws.shape}, expected {shape}")
    elif not np.all(np.isfinite(draws)):
        solve.problems.append("non-finite draws")


def _winning_elbos(runs) -> list:
    return [float(run.elbo_trace[run.l_star - 1]) for run in runs if not run.failed]


class MultiWorkload:
    """``run_multi`` with default options on a target built once at set-up."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.seed = seed
        self.target = make_target(make_inputs(name, seed))
        self.options = pathfinder.MultipathOptions()

    def solve(self, index: int, quality: bool) -> Solve:
        target = self.target
        grad0, logp0 = target.eval_count_grad, target.eval_count_logp
        watch = Stopwatch()
        try:
            with watch:
                result = pathfinder.run_multi(target, self.options, solve_seed(self.seed, index))
        except Exception:
            traceback.print_exc()
            return _timed(watch, ["raised"])
        out = _timed(watch)

        _check_draws(out, result.draws, (self.options.num_resample, target.dim))
        out.n_grad = target.eval_count_grad - grad0
        out.n_logp = target.eval_count_logp - logp0
        if (out.n_grad, out.n_logp) != (result.n_grad, result.n_logp):
            out.problems.append(
                f"target counted {out.n_grad}/{out.n_logp} grad/logp evals, "
                f"result reports {result.n_grad}/{result.n_logp}")
        out.fingerprint = result.draws.tobytes()
        if quality:
            out.paths = len(result.runs)
            out.failed_paths = sum(run.failed for run in result.runs)
            out.elbo_best = _winning_elbos(result.runs)
            out.k_hat = float(result.k_hat)
            if self.name == "es8c_multi":
                out.tau_pos_frac = float(np.mean(result.draws[:, TAU_INDEX] > 0.0))
        return out


class CliWorkload:
    """In-process ``pathfinder.cli.main`` in single-path mode on a generated normal.

    Two pass-through hooks keep the target the CLI builds and the run it
    returns, so the counters and the draws' log densities can be checked.
    """

    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.seed = seed
        inputs = make_inputs(name, seed)
        self.target = make_target(inputs)
        self.mu = inputs["params"]["mu"]
        self.cov = inputs["params"]["cov"]
        self.chol = np.linalg.cholesky(self.cov)
        self.workdir = workdir
        self.config = os.path.join(workdir, "config.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump({"target_params": {"mu": self.mu.tolist(), "cov": self.cov.tolist()}}, fh)

    def _exact(self, rng, count: int) -> np.ndarray:
        return self.mu + rng.standard_normal((count, self.mu.size)) @ self.chol.T

    def solve(self, index: int, quality: bool) -> Solve:
        out_csv = os.path.join(self.workdir, "draws.csv")
        out_json = os.path.join(self.workdir, "diagnostics.json")
        argv = ["--config", self.config, "--target", "mvn", "--mode", "single",
                "--seed", str(solve_seed(self.seed, index)),
                "--out", out_csv, "--diagnostics", out_json]
        seen = {}

        def keep(key):
            def hook(fn):
                def call(*args, **kwargs):
                    seen[key] = fn(*args, **kwargs)
                    return seen[key]
                return call
            return hook

        watch = Stopwatch()
        with patched(pathfinder.cli, "make_target", keep("target")), \
                patched(pathfinder.cli, "run_single", keep("run")):
            try:
                with watch:
                    code = pathfinder.cli.main(argv)
            except Exception:
                traceback.print_exc()
                return _timed(watch, ["raised"])
        out = _timed(watch)

        if code != 0:
            out.problems.append(f"exit code {code}")
            return out
        with open(out_csv, "rb") as fh:
            csv_bytes = fh.read()
        with open(out_json, "rb") as fh:
            diag_bytes = fh.read()
        out.fingerprint = csv_bytes + diag_bytes
        out.bytes_written = len(out.fingerprint)
        draws = np.loadtxt(io.StringIO(csv_bytes.decode()), delimiter=",", skiprows=1, ndmin=2)
        diag = json.loads(diag_bytes)
        run = seen["run"]
        _check_draws(out, draws, run.draws.shape)
        if draws.shape == run.draws.shape and not np.array_equal(draws, run.draws):
            out.problems.append("CSV draws differ from the run's draws")
        out.n_grad = diag["counters"]["n_grad"]
        out.n_logp = diag["counters"]["n_logp"]
        counted = (seen["target"].eval_count_grad, seen["target"].eval_count_logp)
        if counted != (out.n_grad, out.n_logp):
            out.problems.append(
                f"target counted {counted[0]}/{counted[1]} grad/logp evals, "
                f"diagnostics report {out.n_grad}/{out.n_logp}")
        if quality and not out.problems:
            path = diag["paths"][0]
            out.paths = 1
            out.failed_paths = int(path["failed"])
            if not path["failed"]:
                out.elbo_best = [float(path["elbo_trace"][path["l_star"] - 1])]
            out.k_hat = float(psis_smooth(self.target.logp_many(draws) - run.logq)[1])
            rng = stream(self.seed, EXACT_STREAM, index)
            exact = self._exact(rng, len(draws))
            out.w1 = wasserstein1(draws, exact)
            out.w1_floor = wasserstein1(self._exact(rng, len(draws)), exact)
            if out.w1 > W1_LIMIT * out.w1_floor:
                out.problems.append(f"W1 {out.w1:.2f} exceeds {W1_LIMIT} x floor {out.w1_floor:.2f}")
        return out


# name -> (class, counted solves, traced solves).  The counted solves give
# the counts and quality figures; the traced ones are re-run under the tracer.
WORKLOADS = {
    "es8c_multi": (MultiWorkload, 4, 2),
    "logreg_multi": (MultiWorkload, 2, 2),
    "mvn_single_cli": (CliWorkload, 16, 6),
}
