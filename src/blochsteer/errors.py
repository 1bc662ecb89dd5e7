"""Exception types shared across the package."""

__all__ = [
    "BlochSteerError",
    "DimensionError",
    "MalformedStateError",
    "MalformedLiouvillianError",
    "SingularControlError",
    "NoUniqueSolutionError",
    "InvalidInputError",
    "PropagatorZeroError",
    "RootNotFoundError",
    "IntegrationDivergedError",
    "InfeasibleTrajectoryError",
    "ConfigError",
]


class BlochSteerError(Exception):
    """Base class for all package-specific failures."""


class DimensionError(BlochSteerError, ValueError):
    """Array shape or Hilbert-space dimension is inconsistent."""


class MalformedStateError(BlochSteerError, ValueError):
    """A density matrix violates trace, Hermiticity or positivity bounds."""


class MalformedLiouvillianError(BlochSteerError, ValueError):
    """A supermatrix is not trace preserving within tolerance."""


class SingularControlError(BlochSteerError, ArithmeticError):
    """A closed-form control expression is evaluated on its singular locus."""


class NoUniqueSolutionError(BlochSteerError, ArithmeticError):
    """The control linear system is singular; message names the deficient direction."""


class InvalidInputError(BlochSteerError, ValueError):
    """Non-finite values were passed where finite ones are required."""


class PropagatorZeroError(BlochSteerError, ArithmeticError):
    """The reservoir propagator u(t) vanishes, so rates are undefined."""


class RootNotFoundError(BlochSteerError, RuntimeError):
    """A requested sign change or extremum does not exist in the search window."""


class IntegrationDivergedError(BlochSteerError, RuntimeError):
    """Forward integration produced a non-finite state; message carries the time."""


class InfeasibleTrajectoryError(BlochSteerError, RuntimeError):
    """Interpolated trajectory leaves the Bloch ball even after remediation."""


class ConfigError(BlochSteerError, ValueError):
    """Experiment configuration is missing keys or has malformed values."""
