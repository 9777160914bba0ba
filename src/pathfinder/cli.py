"""Command-line front end.

Configures a target and the algorithm, runs a single path or the multi-path
pipeline, and writes draws as CSV plus diagnostics as JSON.  Exit codes:
0 on success, 1 when every optimization path failed, 2 on configuration
errors and on outputs that cannot be written.  These are reported as
messages, never stack traces; an output that is a directory or whose
directory does not exist, and one file named by both outputs, are
configuration errors, found before any solve runs.

The diagnostics JSON contains only deterministic content (the echoed
algorithmic config and per-path results); wall time is an execution detail
and goes to stderr, so identical configs produce byte identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import AllPathsFailedError, BadParamsError, ConfigError, UnknownTargetError
from .multipath import MultipathOptions, run_multi
from .options import POSITIVE_INT, from_flat, kind_problem, settings, to_flat
from .single_path import PathfinderOptions, check_key, run_single
from .targets import make_target


@dataclass
class RunConfig:
    """One run: the target, the mode, the seed, where to write, and the options
    tree of what the mode runs (PathfinderOptions for single, which never resamples)."""

    target: str = ""
    target_params: dict = field(default_factory=dict)
    dim: int | None = None
    mode: str = "multi"
    seed: int = 0
    out: str = "draws.csv"
    diagnostics: str = "diagnostics.json"
    options: MultipathOptions | PathfinderOptions = field(default_factory=MultipathOptions)

    def echo(self) -> dict:
        """What determines the output, keyed as in a config file: no file paths."""
        return {
            "target": self.target, "target_params": self.target_params, "dim": self.dim,
            "mode": self.mode, "seed": self.seed, **to_flat(self.options),
        }


def validate_config(raw: dict) -> RunConfig:
    """Build a fully-defaulted RunConfig from a raw key/value mapping.

    Unknown keys are rejected; every violated constraint is reported with its
    field name.
    """
    run_keys = {f.name for f in dataclasses.fields(RunConfig)} - {"options"}
    declared = list(settings(MultipathOptions))
    unknown = sorted(set(raw) - run_keys - {s.key for s in declared})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    cfg = RunConfig(**{k: v for k, v in raw.items() if k in run_keys})
    problems = []

    if not cfg.target or not isinstance(cfg.target, str):
        problems.append("target: a target name is required")
    if not isinstance(cfg.target_params, dict):
        problems.append("target_params: must be a JSON object")
    if cfg.mode not in ("single", "multi"):
        problems.append(f"mode: must be 'single' or 'multi', got {cfg.mode!r}")
    try:
        check_key("seed", cfg.seed)
    except ValueError as exc:  # the rule run_single and run_multi apply
        problems.append(str(exc))
    if cfg.dim is not None:
        problems.append(kind_problem("dim", POSITIVE_INT, cfg.dim))
        given = cfg.target_params.get("dim") if isinstance(cfg.target_params, dict) else None
        if given is not None and given != cfg.dim:
            problems.append(f"dim: {cfg.dim!r} conflicts with target_params dim {given!r}")
    for key in ("out", "diagnostics"):
        path = getattr(cfg, key)
        if not isinstance(path, str) or not path:
            problems.append(f"{key}: must be a file path, got {path!r}")
        elif os.path.isdir(path):
            problems.append(f"{key}: {path!r} is a directory")
        elif not os.path.isdir(os.path.dirname(path) or "."):
            problems.append(f"{key}: directory {os.path.dirname(path)!r} does not exist")
    real = [os.path.realpath(p) for p in (cfg.out, cfg.diagnostics) if isinstance(p, str) and p]
    if len(real) == 2 and real[0] == real[1]:
        problems.append(f"out and diagnostics: both name the file {real[0]!r}")
    problems += [kind_problem(s.key, s.kind, raw[s.key]) for s in declared if s.key in raw]
    problems = [p for p in problems if p]
    if not problems:
        try:
            root = PathfinderOptions if cfg.mode == "single" else MultipathOptions
            cfg.options = from_flat(root, raw)
        except ValueError as exc:  # a constraint between settings
            problems.append(str(exc))
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
    parser.add_argument("--seed", type=int, help="master seed, a non-negative integer")
    parser.add_argument("--out", help="output CSV path for draws")
    parser.add_argument("--diagnostics", help="output JSON path for diagnostics")
    for s in settings(MultipathOptions):
        parser.add_argument(s.flag, dest=s.key, type=int if s.kind == POSITIVE_INT else float,
                            help=f"{s.help}; a {s.kind} (default {s.default})")
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
    return raw


def _build_target(cfg: RunConfig):
    params = dict(cfg.target_params)
    if cfg.dim is not None:
        params.setdefault("dim", cfg.dim)
    return make_target(cfg.target, **params)


def _write_csv(path: str, draws: np.ndarray) -> None:
    header = ",".join(f"param.{j + 1}" for j in range(draws.shape[1]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:  # numpy's open: os.linesep
        np.savetxt(fh, draws, fmt="%.17g", delimiter=",", header=header, comments="")


def _json_safe(value):
    """Replace non-finite floats by None so the JSON stays standard."""
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


# The PathfinderRun fields a path record copies as they are.
_RECORD_FIELDS = ("failed", "num_iters", "l_star", "scored_candidates", "disqualified",
                  "n_logp", "n_grad", "lbfgs_n_logp", "lbfgs_n_grad")


def _path_record(index: int, run) -> dict:
    return {"path": index, "termination": run.termination.value,
            "elbo_trace": run.elbo_trace.tolist(), **{k: getattr(run, k) for k in _RECORD_FIELDS}}


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

    if cfg.mode == "single":
        result = run_single(target, cfg.options, cfg.seed, path_index=0)
        runs, k_hat, pool_size, pool_n_logp = [result], None, None, 0
    else:
        try:
            result = run_multi(target, cfg.options, cfg.seed)
        except AllPathsFailedError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        runs, pool_n_logp = result.runs, result.pool_n_logp
        k_hat, pool_size = float(result.k_hat), int(result.pooled.draws.shape[0])
    draws = result.draws
    payload = {
        "config": cfg.echo(), "target_dim": target.dim,
        "paths": [_path_record(i, run) for i, run in enumerate(runs)],
        "k_hat": k_hat, "pool_size": pool_size, "num_output_draws": int(draws.shape[0]),
        "counters": {"n_logp": result.n_logp, "n_grad": result.n_grad, "pool_n_logp": pool_n_logp},
        "termination_counts": dict(Counter(run.termination.value for run in runs)),
    }

    try:
        _write_csv(cfg.out, draws)
        _write_diagnostics(cfg.diagnostics, payload)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2

    elapsed = time.perf_counter() - start
    print(
        f"wrote {draws.shape[0]} draws to {cfg.out} and diagnostics to "
        f"{cfg.diagnostics} ({elapsed:.2f}s)",
        file=sys.stderr,
    )
    if all(run.failed for run in runs):  # single mode: run_multi raises instead
        print("error: the single optimization path failed; wrote sentinel draw",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
