"""Exception hierarchy shared across the package, and the positive-and-finite
input rule that raises its ConfigurationError."""
import math


class CranCacheError(Exception):
    """Base class for all package errors."""


class ConfigurationError(CranCacheError):
    """Bad parameter, dimension mismatch, or invalid config key/value."""


class GeometryError(CranCacheError):
    """Degenerate geometry, e.g. zero RRH-user distance."""


class InfeasibleLinkError(CranCacheError):
    """A wired path cannot meet the delay bound (Prop.-1 denominator <= 0)."""


class DegenerateDistributionError(CranCacheError):
    """Weight distribution whose moment series collapses (e.g. point mass at 0)."""


class UnsupportedFamilyError(CranCacheError):
    """Weight distribution outside the zero-mean / strictly-positive families."""


class NumericalRankError(CranCacheError):
    """Unregularized ridge solve on a rank-deficient state matrix."""


class InstanceTooLargeError(CranCacheError):
    """Exhaustive-oracle guard: the subset space is not enumerable."""


def require_positive_finite(name, value, reason=None):
    """Raise ConfigurationError unless 0 < value < inf; NaN fails too. `reason`,
    when given, follows the message."""
    if not 0 < value < math.inf:
        raise ConfigurationError(f"{name} must be positive and finite (got {value})"
                                 + (f": {reason}" if reason else ""))
