"""Command-line front end.

Configures a target and the algorithm, runs a single path or the multi-path
pipeline, and writes draws as CSV plus diagnostics as JSON.  Exit codes:
0 on success, 1 when every optimization path failed, 2 on configuration
errors.  Configuration errors are reported as messages, never stack traces.

The diagnostics JSON contains only deterministic content (the echoed
algorithmic config and per-path results); wall time and worker count are
execution details and go to stderr, so identical configs produce byte
identical outputs at any worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import AllPathsFailedError, BadParamsError, ConfigError, UnknownTargetError
from .lbfgs import LbfgsOptions
from .multipath import MultipathOptions, run_multi
from .single_path import PathfinderOptions, run_single
from .targets import make_target

# Fields that identify the run; these are echoed into the diagnostics JSON.
ALGO_FIELDS = (
    "target", "target_params", "dim", "mode", "seed",
    "max_iters", "rel_tol", "history_size", "elbo_draws", "num_draws",
    "init_radius", "num_paths", "num_resample",
    "wolfe_c1", "wolfe_c2", "pair_eps", "grad_zero_tol",
)
# Execution-only fields: where to write and how many workers to use.
EXEC_FIELDS = ("out", "diagnostics", "workers")


@dataclass
class RunConfig:
    target: str = ""
    target_params: dict = field(default_factory=dict)
    dim: int | None = None
    mode: str = "multi"
    seed: int = 0
    out: str = "draws.csv"
    diagnostics: str = "diagnostics.json"
    workers: int = 1
    max_iters: int = 1000
    rel_tol: float = 1e-13
    history_size: int = 6
    elbo_draws: int = 5
    num_draws: int = 100
    init_radius: float = 2.0
    num_paths: int = 20
    num_resample: int = 100
    wolfe_c1: float = 1e-4
    wolfe_c2: float = 0.9
    pair_eps: float = 2.2e-16
    grad_zero_tol: float = 1e-12

    def echo(self) -> dict:
        """Algorithmic fields only, for provenance in the diagnostics JSON."""
        full = dataclasses.asdict(self)
        return {k: full[k] for k in ALGO_FIELDS}


def validate_config(raw: dict) -> RunConfig:
    """Build a fully-defaulted RunConfig from a raw key/value mapping.

    Unknown keys are rejected; every violated constraint is reported with its
    field name.
    """
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    cfg = RunConfig(**raw)
    problems = []

    if not cfg.target or not isinstance(cfg.target, str):
        problems.append("target: a target name is required")
    if not isinstance(cfg.target_params, dict):
        problems.append("target_params: must be a JSON object")
    if cfg.mode not in ("single", "multi"):
        problems.append(f"mode: must be 'single' or 'multi', got {cfg.mode!r}")
    if not isinstance(cfg.seed, int) or isinstance(cfg.seed, bool) or not 0 <= cfg.seed < 2**64:
        problems.append(f"seed: must be an integer in [0, 2^64), got {cfg.seed!r}")
    if cfg.dim is not None and (not isinstance(cfg.dim, int) or cfg.dim < 1):
        problems.append(f"dim: must be a positive integer, got {cfg.dim!r}")
    for name in ("max_iters", "history_size", "elbo_draws", "num_draws",
                 "num_paths", "num_resample", "workers"):
        value = getattr(cfg, name)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            problems.append(f"{name}: must be a positive integer, got {value!r}")
    for name in ("rel_tol", "init_radius", "pair_eps", "grad_zero_tol"):
        value = getattr(cfg, name)
        if not isinstance(value, (int, float)) or value <= 0:
            problems.append(f"{name}: must be a positive number, got {value!r}")
    if not (isinstance(cfg.wolfe_c1, float) and isinstance(cfg.wolfe_c2, float)
            and 0.0 < cfg.wolfe_c1 < cfg.wolfe_c2 < 1.0):
        problems.append(
            f"wolfe_c1/wolfe_c2: need 0 < c1 < c2 < 1, got {cfg.wolfe_c1!r}, {cfg.wolfe_c2!r}"
        )
    if (isinstance(cfg.num_resample, int) and isinstance(cfg.num_paths, int)
            and isinstance(cfg.num_draws, int)
            and cfg.num_resample > cfg.num_paths * cfg.num_draws):
        problems.append(
            f"num_resample: {cfg.num_resample} exceeds num_paths * num_draws "
            f"= {cfg.num_paths * cfg.num_draws}"
        )
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathfinder",
        description="Draw approximate samples from a differentiable log density "
                    "via normal approximations along quasi-Newton optimization paths.",
    )
    parser.add_argument("--config", metavar="FILE", help="JSON config file; flags win on conflict")
    parser.add_argument("--target", help="target name (e.g. std_normal, neal_funnel)")
    parser.add_argument("--target-params", dest="target_params", metavar="JSON",
                        help="JSON object of target parameters")
    parser.add_argument("--dim", type=int, help="target dimension, for dimension-parametric targets")
    parser.add_argument("--mode", choices=("single", "multi"), help="single path or pooled multi-path")
    parser.add_argument("--seed", type=int, help="master seed (64-bit, non-negative)")
    parser.add_argument("--out", help="output CSV path for draws")
    parser.add_argument("--diagnostics", help="output JSON path for diagnostics")
    parser.add_argument("--workers", type=int,
                        help="worker threads (fallback: env PATHFINDER_WORKERS, then 1)")
    parser.add_argument("--max-iters", dest="max_iters", type=int, help="optimizer iteration cap")
    parser.add_argument("--rel-tol", dest="rel_tol", type=float, help="optimizer relative tolerance")
    parser.add_argument("--history-size", dest="history_size", type=int,
                        help="quasi-Newton history size")
    parser.add_argument("--elbo-draws", dest="elbo_draws", type=int,
                        help="Monte Carlo draws per ELBO estimate")
    parser.add_argument("--num-draws", dest="num_draws", type=int, help="draws per path")
    parser.add_argument("--init-radius", dest="init_radius", type=float,
                        help="uniform initialization half-width")
    parser.add_argument("--paths", dest="num_paths", type=int, help="independent paths (multi mode)")
    parser.add_argument("--resample-draws", dest="num_resample", type=int,
                        help="resampled draws returned in multi mode")
    parser.add_argument("--wolfe-c1", dest="wolfe_c1", type=float, help="sufficient-increase bound")
    parser.add_argument("--wolfe-c2", dest="wolfe_c2", type=float, help="curvature bound")
    parser.add_argument("--pair-eps", dest="pair_eps", type=float,
                        help="curvature threshold for storing update pairs")
    parser.add_argument("--grad-zero-tol", dest="grad_zero_tol", type=float,
                        help="gradient norm treated as zero")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    raw: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: {args.config} line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config: top level must be a JSON object")
        raw.update(loaded)

    for key, value in vars(args).items():
        if key == "config" or value is None:
            continue
        raw[key] = value

    if isinstance(raw.get("target_params"), str):
        try:
            raw["target_params"] = json.loads(raw["target_params"])
        except json.JSONDecodeError as exc:
            raise ConfigError(f"target_params: invalid JSON: {exc.msg}") from exc

    if "workers" not in raw:
        env = os.environ.get("PATHFINDER_WORKERS")
        if env is not None:
            try:
                raw["workers"] = int(env)
            except ValueError as exc:
                raise ConfigError(f"PATHFINDER_WORKERS: not an integer: {env!r}") from exc
    return raw


def _build_target(cfg: RunConfig):
    params = dict(cfg.target_params)
    if cfg.dim is not None:
        params.setdefault("dim", cfg.dim)
    return make_target(cfg.target, **params)


def _options(cfg: RunConfig) -> PathfinderOptions:
    return PathfinderOptions(
        max_iters=cfg.max_iters,
        rel_tol=cfg.rel_tol,
        history_size=cfg.history_size,
        elbo_draws=cfg.elbo_draws,
        num_draws=cfg.num_draws,
        init_radius=cfg.init_radius,
        lbfgs=LbfgsOptions(
            c1=cfg.wolfe_c1,
            c2=cfg.wolfe_c2,
            pair_eps=cfg.pair_eps,
            grad_zero_tol=cfg.grad_zero_tol,
        ),
    )


def _write_csv(path: str, draws: np.ndarray) -> None:
    n = draws.shape[1]
    header = ",".join(f"param.{j + 1}" for j in range(n))
    lines = [header]
    for row in draws:
        lines.append(",".join(f"{v:.17g}" for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_safe(value):
    """Replace non-finite floats by None so the JSON stays standard."""
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def _path_record(index: int, run) -> dict:
    return {
        "path": index,
        "failed": run.failed,
        "termination": run.termination.value if run.termination is not None else None,
        "num_iters": run.num_iters,
        "l_star": run.l_star,
        "elbo_trace": [float(v) for v in run.elbo_trace],
        "scored_candidates": run.scored_candidates,
        "disqualified": dict(run.disqualified),
        "n_logp": run.n_logp,
        "n_grad": run.n_grad,
        "lbfgs_n_logp": run.lbfgs_n_logp,
        "lbfgs_n_grad": run.lbfgs_n_grad,
    }


def _write_diagnostics(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    start = time.perf_counter()
    try:
        cfg = validate_config(_merge_config(args))
        target = _build_target(cfg)
    except (ConfigError, UnknownTargetError, BadParamsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    opts = _options(cfg)
    payload: dict = {"config": cfg.echo(), "target_dim": target.dim}

    if cfg.mode == "single":
        run = run_single(target, opts, cfg.seed, path_index=0)
        draws = run.draws
        payload.update(
            paths=[_path_record(0, run)],
            k_hat=None,
            pool_size=None,
            counters={"n_logp": run.n_logp, "n_grad": run.n_grad, "pool_n_logp": 0},
            termination_counts={run.termination.value if run.termination else "none": 1},
            num_output_draws=int(draws.shape[0]),
        )
        failed = run.failed
    else:
        mopts = MultipathOptions(
            num_paths=cfg.num_paths, num_resample=cfg.num_resample, single=opts
        )
        try:
            result = run_multi(target, mopts, cfg.seed, workers=cfg.workers)
        except AllPathsFailedError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        draws = result.draws
        term_counts: dict = {}
        for run in result.runs:
            key = run.termination.value if run.termination else "none"
            term_counts[key] = term_counts.get(key, 0) + 1
        payload.update(
            paths=[_path_record(i, run) for i, run in enumerate(result.runs)],
            k_hat=float(result.k_hat),
            pool_size=int(result.pooled.draws.shape[0]),
            counters={
                "n_logp": result.n_logp,
                "n_grad": result.n_grad,
                "pool_n_logp": result.pool_n_logp,
            },
            termination_counts=term_counts,
            num_output_draws=int(draws.shape[0]),
        )
        failed = False

    _write_csv(cfg.out, draws)
    _write_diagnostics(cfg.diagnostics, payload)

    elapsed = time.perf_counter() - start
    print(
        f"wrote {draws.shape[0]} draws to {cfg.out} and diagnostics to "
        f"{cfg.diagnostics} ({elapsed:.2f}s, workers={cfg.workers})",
        file=sys.stderr,
    )
    if failed:
        print("error: the single optimization path failed; wrote sentinel draw",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
