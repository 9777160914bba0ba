"""Exception types shared across the package."""


class PathfinderError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteError(PathfinderError):
    """A log density or gradient evaluation produced a non-finite value."""


class DimensionMismatchError(PathfinderError):
    """Inputs disagree on dimensionality or length."""


class UnknownTargetError(PathfinderError):
    """Requested target name is not in the registry."""


class BadParamsError(PathfinderError):
    """Target parameters are malformed (shape mismatch, non-SPD covariance, ...)."""


class SingularEError(PathfinderError):
    """The upper-triangular pair matrix has a non-positive diagonal element."""


class LineSearchFailError(PathfinderError):
    """No line-search step down to 2^-MAX_HALVINGS gave a sufficient increase."""


class CholeskyFailError(PathfinderError):
    """The small inner matrix of the factored covariance is not positive definite."""


class AllPathsFailedError(PathfinderError):
    """Every independent optimization path failed to produce an approximation."""


class NoFiniteWeightsError(PathfinderError):
    """Importance weights contain no finite entry to resample from."""


class SizeLimitError(PathfinderError):
    """An input exceeds the supported problem size."""


class ConfigError(PathfinderError):
    """Command-line or config-file validation failed."""
