"""Pathfinder benchmark: one workload, timed solves, checked outputs, one JSON line.

Usage (from the repository root):

    python3 bench/run.py --workload es8c_multi --seed 1 --seconds 20 --trace 0

Solves run back to back in this process (a closed loop with one client)
for ``--seconds`` and at least the workload's counted number of solves.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` the first few solves are then re-run with every
module's public functions wrapped, and the last line holds the per-layer
metrics.  See bench/METRICS.md for the definitions.
"""

import os
import sys

# Plain single-threaded baseline: pin BLAS/OpenMP before numpy loads, and
# never let the CLI pick up a worker count from the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PATHFINDER_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60


def import_program():
    """Import pathfinder from this checkout's ``src``, and only from there."""
    package = SRC / "pathfinder"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no pathfinder sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pathfinder

    if Path(pathfinder.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported pathfinder from {pathfinder.__file__}, not {package}")


import_program()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("solve_s.p50", "s"),
    ("grad_evals_per_solve", "count"),
    ("logp_evals_per_solve", "count"),
    ("peak_rss_mb", "MB"),
    ("path_ok_frac", "ratio"),
    ("neg_elbo_best", "nats"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def time_setup(workload: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def provenance(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def end_to_end(setup, timed, counted) -> tuple[dict, dict]:
    """End-to-end metrics and their sample counts."""
    paths = sum(s.paths for s in counted)
    elbos = [e for s in counted for e in s.elbo_best]
    values = {
        "setup_s": statistics.median(setup),
        "solve_s.p50": statistics.median(s.scaled_seconds for s in timed),
        "grad_evals_per_solve": statistics.fmean(s.n_grad for s in counted),
        "logp_evals_per_solve": statistics.fmean(s.n_logp for s in counted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "path_ok_frac": 1.0 - sum(s.failed_paths for s in counted) / paths if paths else 0.0,
        "neg_elbo_best": -statistics.fmean(elbos) if elbos else math.nan,
    }
    samples = {
        "setup_s": len(setup), "solve_s.p50": len(timed),
        "grad_evals_per_solve": len(counted), "logp_evals_per_solve": len(counted),
        "peak_rss_mb": 1, "path_ok_frac": paths, "neg_elbo_best": len(elbos),
    }
    return values, samples


def quality_lines(solves, timed, counted) -> list:
    """Figures printed beside the metrics: failure shares and workload-specific quality."""
    paths = sum(s.paths for s in counted)
    lines = [
        f"wall_s.p50         {statistics.median(s.seconds for s in timed):.4f} s"
        f"  (n={len(timed)}; unscaled wall time per solve)",
        f"failed_solve_frac  {sum(bool(s.problems) for s in solves) / len(solves):.4f} ratio"
        f"  (n={len(solves)})",
        f"failed_path_frac   {sum(s.failed_paths for s in counted) / max(paths, 1):.4f} ratio"
        f"  (n={paths})",
    ]
    k_hats = [s.k_hat for s in counted if math.isfinite(s.k_hat)]
    if k_hats:
        lines.append(f"k_hat.p50          {statistics.median(k_hats):.4f} 1  (n={len(k_hats)}; "
                     f"per solve {[round(k, 2) for k in k_hats]})")
    elbos = [e for s in counted for e in s.elbo_best]
    if elbos:
        lines.append(f"elbo_best          {statistics.fmean(elbos):.4f} nats  (n={len(elbos)})")
    taus = [s.tau_pos_frac for s in counted if s.tau_pos_frac is not None]
    if taus:
        lo, hi = workloads.TAU_BAND
        miss = sum(not lo <= t <= hi for t in taus) / len(taus)
        lines.append(f"tau_band_miss      {miss:.4f} ratio  (n={len(taus)}; "
                     f"tau>0 shares {[round(t, 2) for t in taus]}, band [{lo}, {hi}])")
    w1 = [s.w1 for s in counted if s.w1 is not None]
    if w1:
        floor = [s.w1_floor for s in counted if s.w1_floor is not None]
        lines.append(f"w1                 {statistics.fmean(w1):.4f} param  (n={len(w1)}; "
                     f"exact-vs-exact floor {statistics.fmean(floor):.4f})")
    return lines


def run_timed(workload, counted_solves: int, seconds: float) -> list:
    """Counted solves, a repeat of solve 0, then new solves until ``seconds`` have passed.

    The repeat must reproduce solve 0 bit for bit; it also counts as a timing sample.
    """
    began = time.perf_counter()
    timed = [workload.solve(i, quality=True) for i in range(counted_solves)]
    repeat = workload.solve(0, quality=False)
    if repeat.fingerprint != timed[0].fingerprint:
        repeat.problems.append("repeating solve 0 with its seed gave different output")
    timed.append(repeat)
    while time.perf_counter() - began < seconds:
        timed.append(workload.solve(len(timed) - 1, quality=True))
    return timed


def run_traced(workload, timed, count):
    """Re-run the first ``count`` solves traced; return tracer and solves."""
    tracer = Tracer()
    traced = []
    with tracer:
        layers.install(tracer)
        for i in range(count):
            tracer.solve_id = i
            traced.append(workload.solve(i, quality=False))
    for i, solve in enumerate(traced):
        tracer.counts["cli.bytes_written"] += solve.bytes_written
        if solve.fingerprint != timed[i].fingerprint:
            solve.problems.append(f"traced solve {i} output differs from the untraced one")
    return tracer, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    info = provenance(args)
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()), flush=True)

    setup = [] if args.trace else time_setup(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        cls, counted_solves, traced_solves = workloads.WORKLOADS[args.workload]
        workload = cls(args.workload, args.seed, workdir)
        # A traced run reports no end-to-end metric, so it counts only the
        # solves it re-runs under the tracer.
        timed = run_timed(workload, traced_solves if args.trace else counted_solves, args.seconds)
        solves = list(timed)
        if args.trace:
            tracer, traced = run_traced(workload, timed, traced_solves)
            solves += traced

    for i, solve in enumerate(solves):
        for problem in solve.problems:
            print(f"# FAILED solve {i}: {problem}", file=sys.stderr)
    failed = sum(bool(s.problems) for s in solves)
    counted = timed[:counted_solves]

    if args.trace:
        untraced_p50 = statistics.median(s.scaled_seconds for s in timed[:len(traced)])
        overhead = statistics.median(s.scaled_seconds for s in traced) / untraced_p50 - 1.0
        metrics = layers.layer_metrics(tracer, len(traced), overhead)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        tracer.save(OUT_DIR / f"spans-{args.workload}-{args.seed}.npz")
        for name in tracer.absent:
            print(f"# absent: {name}")
        samples = {name: len(traced) for name in metrics}
    else:
        metrics, samples = end_to_end(setup, timed, counted)
        units = dict(END_TO_END)
        for line in quality_lines(solves, timed, counted):
            print(line)

    correct = failed == 0
    for name, value in metrics.items():
        if not math.isfinite(value):
            print(f"# FAILED metric {name} is not finite", file=sys.stderr)
            correct = False
            metrics[name] = 0.0
        print(f"{name:36s} {value:.6g} {units[name]}  (n={samples[name]})")
    print(json.dumps({
        "correct": correct,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
