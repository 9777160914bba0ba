"""Approximate sampling from differentiable log densities.

Fits low-rank-plus-diagonal normal approximations along quasi-Newton
optimization paths, selects the ELBO-maximizing approximation, and optionally
pools several independent paths with Pareto-smoothed importance resampling.
The package root holds the run API, two documented tools (``wasserstein1``
and ``eval_logq``) and the error classes; every other name is imported from
its own module.
"""

from .errors import (
    AllPathsFailedError,
    BadParamsError,
    CholeskyFailError,
    ConfigError,
    DimensionMismatchError,
    LineSearchFailError,
    NoFiniteWeightsError,
    NonFiniteError,
    PathfinderError,
    SingularEError,
    SizeLimitError,
    UnknownTargetError,
)
from .evaluate import wasserstein1
from .lbfgs import LbfgsOptions, Termination
from .multipath import MultipathOptions, MultipathResult, WeightedSample, run_multi
from .normal_approx import FactoredNormal, eval_logq
from .single_path import PathfinderOptions, PathfinderRun, run_single
from .targets import LogDensityTarget, make_target

__version__ = "0.1.0"

__all__ = [
    "AllPathsFailedError",
    "BadParamsError",
    "CholeskyFailError",
    "ConfigError",
    "DimensionMismatchError",
    "FactoredNormal",
    "LbfgsOptions",
    "LineSearchFailError",
    "LogDensityTarget",
    "MultipathOptions",
    "MultipathResult",
    "NoFiniteWeightsError",
    "NonFiniteError",
    "PathfinderError",
    "PathfinderOptions",
    "PathfinderRun",
    "SingularEError",
    "SizeLimitError",
    "Termination",
    "UnknownTargetError",
    "WeightedSample",
    "eval_logq",
    "make_target",
    "run_multi",
    "run_single",
    "wasserstein1",
]
