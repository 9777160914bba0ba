"""Per-layer tracing of the pathfinder modules and the metrics derived from it.

``install`` wraps each module's public functions under the names their
callers resolve (``pathfinder.single_path.optimize`` rather than
``pathfinder.lbfgs.optimize``, because ``single_path`` imported the name),
and ``layer_metrics`` turns the recorded spans and counts into the per-layer
metrics listed in ``PER_LAYER``, as totals per traced solve.
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer, has_ancestor, self_times

# (metric, unit, better); BENCHMARK.json lists the same names in this order.
PER_LAYER = [
    ("targets.logp_grad.calls", "count", "lower"),
    ("targets.logp_grad.s", "s", "lower"),
    ("targets.logp_grad.impl_s", "s", "lower"),
    ("targets.logp_grad.overhead_s", "s", "lower"),
    ("targets.logp_many.calls", "count", "lower"),
    ("targets.logp_many.rows", "count", "lower"),
    ("targets.logp_many.s", "s", "lower"),
    ("targets.nonfinite", "count", "lower"),
    ("lbfgs.optimize.s", "s", "lower"),
    ("lbfgs.optimize.self_s", "s", "lower"),
    ("lbfgs.search_direction.calls", "count", "lower"),
    ("lbfgs.search_direction.s", "s", "lower"),
    ("lbfgs.line_search.calls", "count", "lower"),
    ("lbfgs.line_search.self_s", "s", "lower"),
    ("lbfgs.line_search.fail", "count", "lower"),
    ("lbfgs.accepted_steps", "count", "lower"),
    ("lbfgs.evals_per_step", "count", "lower"),
    ("lbfgs.term.converged", "count", "higher"),
    ("lbfgs.term.max_iter", "count", "lower"),
    ("lbfgs.term.line_search_fail", "count", "lower"),
    ("lbfgs.term.zero_gradient_at_init", "count", "lower"),
    ("inv_hessian.alpha_recover.s", "s", "lower"),
    ("inv_hessian.pairs_accepted_frac", "ratio", "higher"),
    ("inv_hessian.assemble_factors.calls", "count", "lower"),
    ("inv_hessian.assemble_factors.s", "s", "lower"),
    ("inv_hessian.singular_e", "count", "lower"),
    ("normal_approx.build.calls", "count", "lower"),
    ("normal_approx.build.s", "s", "lower"),
    ("normal_approx.build.cholesky_fail", "count", "lower"),
    ("normal_approx.sample.calls", "count", "lower"),
    ("normal_approx.sample.draws", "count", "lower"),
    ("normal_approx.sample.s", "s", "lower"),
    ("elbo.elbo_estimate.calls", "count", "lower"),
    ("elbo.elbo_estimate.s", "s", "lower"),
    ("elbo.neg_inf", "count", "lower"),
    ("seeding.substream.calls", "count", "lower"),
    ("seeding.substream.s", "s", "lower"),
    ("single_path.run_single.calls", "count", "lower"),
    ("single_path.run_single.s", "s", "lower"),
    ("single_path.run_single.self_s", "s", "lower"),
    ("single_path.candidates", "count", "lower"),
    ("single_path.scored_frac", "ratio", "higher"),
    ("single_path.l_star_frac", "ratio", "lower"),
    ("multipath.run_multi.s", "s", "lower"),
    ("multipath.run_multi.self_s", "s", "lower"),
    ("multipath.pool_runs.s", "s", "lower"),
    ("multipath.psis_smooth.s", "s", "lower"),
    ("multipath.resample.s", "s", "lower"),
    ("multipath.ess_frac", "ratio", "higher"),
    ("multipath.khat_warn", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.absent_names", "count", "lower"),
]

# Reliability threshold for the fitted Pareto shape (Vehtari et al., PSIS).
KHAT_WARN = 0.7


def _error_named(exc, name: str) -> bool:
    return exc is not None and type(exc).__name__ == name


def _observe_logp_grad(counts, args, kwargs, result, exc):
    if _error_named(exc, "NonFiniteError"):
        counts["targets.nonfinite"] += 1


def _observe_logp_many(counts, args, kwargs, result, exc):
    points = args[1] if len(args) > 1 else kwargs.get("points")
    counts["targets.logp_many.rows"] += len(points)
    if result is not None:
        counts["targets.nonfinite"] += int(np.sum(~np.isfinite(result)))


def _observe_optimize(counts, args, kwargs, result, exc):
    if result is None:
        return
    counts["lbfgs.accepted_steps"] += result.num_iters
    counts[f"lbfgs.term.{result.termination.value}"] += 1


def _observe_line_search(counts, args, kwargs, result, exc):
    if _error_named(exc, "LineSearchFailError"):
        counts["lbfgs.line_search.fail"] += 1


def _observe_alpha_recover(counts, args, kwargs, result, exc):
    xis = getattr(result, "xis", None)
    if xis is not None:
        counts["inv_hessian.pairs_accepted"] += int(np.sum(xis))
        counts["inv_hessian.pairs_seen"] += len(xis)


def _observe_assemble(counts, args, kwargs, result, exc):
    if _error_named(exc, "SingularEError"):
        counts["inv_hessian.singular_e"] += 1


def _observe_build(counts, args, kwargs, result, exc):
    if _error_named(exc, "CholeskyFailError"):
        counts["normal_approx.build.cholesky_fail"] += 1


def _observe_sample(counts, args, kwargs, result, exc):
    if result is not None:
        counts["normal_approx.sample.draws"] += len(result.draws)


def _observe_elbo(counts, args, kwargs, result, exc):
    if result is not None and result.value == -np.inf:
        counts["elbo.neg_inf"] += 1


def _observe_run_single(counts, args, kwargs, result, exc):
    if result is None:
        return
    counts["single_path.candidates"] += result.num_iters
    counts["single_path.scored"] += result.scored_candidates
    if not result.failed:
        counts["single_path.iters_of_winners"] += result.num_iters
        counts["single_path.iters_past_winner"] += result.num_iters - result.l_star


def _observe_psis(counts, args, kwargs, result, exc):
    if result is None:
        return
    log_w, k_hat = result
    finite = log_w[np.isfinite(log_w)]
    w = np.exp(finite - finite.max())
    counts["multipath.ess_sum"] += float(w.sum() ** 2 / np.sum(w * w)) / len(log_w)
    counts["multipath.psis_calls"] += 1
    if k_hat > KHAT_WARN:
        counts["multipath.khat_warn"] += 1


def _target_hooks():
    """Each built-in target class's ``_logp_grad_impl``, wherever it is defined."""
    from pathfinder import targets

    base = getattr(targets, "LogDensityTarget", None)
    if base is None:
        return [("pathfinder.targets", "LogDensityTarget._logp_grad_impl")]
    return [
        ("pathfinder.targets", f"{cls.__name__}._logp_grad_impl")
        for cls in vars(targets).values()
        if isinstance(cls, type) and issubclass(cls, base) and "_logp_grad_impl" in vars(cls)
    ]


def install(tracer: Tracer) -> None:
    """Wrap every traced name; absent names are recorded on the tracer."""
    wraps = [
        # CounterView delegates to LogDensityTarget; the outer call is the span.
        ("pathfinder.targets", "CounterView.logp_grad", "targets.logp_grad", _observe_logp_grad),
        ("pathfinder.targets", "LogDensityTarget.logp_grad", "targets.logp_grad", _observe_logp_grad),
        ("pathfinder.targets", "CounterView.logp_many", "targets.logp_many", _observe_logp_many),
        ("pathfinder.targets", "LogDensityTarget.logp_many", "targets.logp_many", _observe_logp_many),
        ("pathfinder.single_path", "optimize", "lbfgs.optimize", _observe_optimize),
        ("pathfinder.lbfgs", "search_direction", "lbfgs.search_direction", None),
        ("pathfinder.lbfgs", "wolfe_line_search", "lbfgs.line_search", _observe_line_search),
        ("pathfinder.single_path", "alpha_recover", "inv_hessian.alpha_recover", _observe_alpha_recover),
        ("pathfinder.single_path", "assemble_factors", "inv_hessian.assemble_factors", _observe_assemble),
        ("pathfinder.normal_approx", "build", "normal_approx.build", _observe_build),
        ("pathfinder.normal_approx", "sample", "normal_approx.sample", _observe_sample),
        ("pathfinder.single_path", "elbo_estimate", "elbo.elbo_estimate", _observe_elbo),
        ("pathfinder.single_path", "substream", "seeding.substream", None),
        ("pathfinder.multipath", "substream", "seeding.substream", None),
        ("pathfinder.multipath", "run_single", "single_path.run_single", _observe_run_single),
        ("pathfinder.cli", "run_single", "single_path.run_single", _observe_run_single),
        ("pathfinder", "run_multi", "multipath.run_multi", None),
        ("pathfinder.cli", "run_multi", "multipath.run_multi", None),
        ("pathfinder.multipath", "pool_runs", "multipath.pool_runs", None),
        ("pathfinder.multipath", "psis_smooth", "multipath.psis_smooth", _observe_psis),
        ("pathfinder.multipath", "resample", "multipath.resample", None),
        ("pathfinder.cli", "main", "cli.main", None),
    ]
    wraps += [(module, path, "targets.logp_grad_impl", None) for module, path in _target_hooks()]
    for module, path, span_name, observe in wraps:
        tracer.wrap(module, path, span_name, observe)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, num_solves: int, overhead_frac: float) -> dict:
    """Per-layer metrics, as totals per traced solve or as ratios."""
    name_id, parent, start, end = tracer.arrays()
    duration = end - start
    self_time = self_times(parent, start, end)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def spans(name):
        nid = ids.get(name)
        return np.zeros(0, dtype=int) if nid is None else np.flatnonzero(name_id == nid)

    def calls(name):
        return len(spans(name))

    def total(name):
        return float(duration[spans(name)].sum())

    def self_total(name):
        return float(self_time[spans(name)].sum())

    counts = tracer.counts
    grad_spans = spans("targets.logp_grad")
    impl = spans("targets.logp_grad_impl")
    grad_id = ids.get("targets.logp_grad", -1)
    impl_in_grad = float(duration[impl[name_id[parent[impl]] == grad_id]].sum()) if len(impl) else 0.0
    evals_in_optimize = int(np.sum(has_ancestor(parent, name_id, grad_spans, ids.get("lbfgs.optimize", -1))))

    totals = {
        "targets.logp_grad.calls": calls("targets.logp_grad"),
        "targets.logp_grad.s": total("targets.logp_grad"),
        "targets.logp_grad.impl_s": impl_in_grad,
        "targets.logp_grad.overhead_s": total("targets.logp_grad") - impl_in_grad,
        "targets.logp_many.calls": calls("targets.logp_many"),
        "targets.logp_many.rows": counts["targets.logp_many.rows"],
        "targets.logp_many.s": total("targets.logp_many"),
        "targets.nonfinite": counts["targets.nonfinite"],
        "lbfgs.optimize.s": total("lbfgs.optimize"),
        "lbfgs.optimize.self_s": self_total("lbfgs.optimize"),
        "lbfgs.search_direction.calls": calls("lbfgs.search_direction"),
        "lbfgs.search_direction.s": total("lbfgs.search_direction"),
        "lbfgs.line_search.calls": calls("lbfgs.line_search"),
        "lbfgs.line_search.self_s": self_total("lbfgs.line_search"),
        "lbfgs.line_search.fail": counts["lbfgs.line_search.fail"],
        "lbfgs.accepted_steps": counts["lbfgs.accepted_steps"],
        "lbfgs.term.converged": counts["lbfgs.term.converged"],
        "lbfgs.term.max_iter": counts["lbfgs.term.max_iter"],
        "lbfgs.term.line_search_fail": counts["lbfgs.term.line_search_fail"],
        "lbfgs.term.zero_gradient_at_init": counts["lbfgs.term.zero_gradient_at_init"],
        "inv_hessian.alpha_recover.s": total("inv_hessian.alpha_recover"),
        "inv_hessian.assemble_factors.calls": calls("inv_hessian.assemble_factors"),
        "inv_hessian.assemble_factors.s": total("inv_hessian.assemble_factors"),
        "inv_hessian.singular_e": counts["inv_hessian.singular_e"],
        "normal_approx.build.calls": calls("normal_approx.build"),
        "normal_approx.build.s": total("normal_approx.build"),
        "normal_approx.build.cholesky_fail": counts["normal_approx.build.cholesky_fail"],
        "normal_approx.sample.calls": calls("normal_approx.sample"),
        "normal_approx.sample.draws": counts["normal_approx.sample.draws"],
        "normal_approx.sample.s": total("normal_approx.sample"),
        "elbo.elbo_estimate.calls": calls("elbo.elbo_estimate"),
        "elbo.elbo_estimate.s": total("elbo.elbo_estimate"),
        "elbo.neg_inf": counts["elbo.neg_inf"],
        "seeding.substream.calls": calls("seeding.substream"),
        "seeding.substream.s": total("seeding.substream"),
        "single_path.run_single.calls": calls("single_path.run_single"),
        "single_path.run_single.s": total("single_path.run_single"),
        "single_path.run_single.self_s": self_total("single_path.run_single"),
        "single_path.candidates": counts["single_path.candidates"],
        "multipath.run_multi.s": total("multipath.run_multi"),
        "multipath.run_multi.self_s": self_total("multipath.run_multi"),
        "multipath.pool_runs.s": total("multipath.pool_runs"),
        "multipath.psis_smooth.s": total("multipath.psis_smooth"),
        "multipath.resample.s": total("multipath.resample"),
        "multipath.khat_warn": counts["multipath.khat_warn"],
        "cli.main.s": total("cli.main"),
        "cli.main.self_s": self_total("cli.main"),
        "cli.bytes_written": counts["cli.bytes_written"],
    }
    metrics = {name: value / num_solves for name, value in totals.items()}
    metrics.update({
        "lbfgs.evals_per_step": _ratio(evals_in_optimize, counts["lbfgs.accepted_steps"]),
        "inv_hessian.pairs_accepted_frac": _ratio(
            counts["inv_hessian.pairs_accepted"], counts["inv_hessian.pairs_seen"]),
        "single_path.scored_frac": _ratio(counts["single_path.scored"], counts["single_path.candidates"]),
        "single_path.l_star_frac": _ratio(
            counts["single_path.iters_past_winner"], counts["single_path.iters_of_winners"]),
        "multipath.ess_frac": _ratio(counts["multipath.ess_sum"], counts["multipath.psis_calls"]),
        "trace.overhead_frac": overhead_frac,
        "trace.absent_names": len(tracer.absent),
    })
    return {name: metrics[name] for name, _, _ in PER_LAYER}
