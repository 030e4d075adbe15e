"""Analytic and empirical memory capacity of the cycle-reservoir ESN.

The analytic value for a W-unit cycle reservoir with weights drawn from a
distribution with moments mu(m) = E[w^m], driven by a zero-mean periodic
stream, is

    M = sum_{k=0}^{W-1} ( sum_j mu(2Wj+2k) )^-1 * sum_j mu(Wj+k)^2
        - ( sum_j mu(2Wj) )^-1.

The subtracted term is exactly the delay-0 contribution, so the empirical
counterpart sums squared reconstruction correlations over delays k >= 1.

For the point-mass and symmetric two-point families the series collapse to
closed forms:

    pointmass(a):  M = W - 1 + a^(2W)
    symbinary(a):  M = floor(W/2) + a^(2W)

Those closed forms are what this module returns for the two families; the
truncated-series path serves general distributions. Note the analytic value
is an ensemble quantity (moments are averaged over the weight distribution
before the readout algebra); a single built reservoir measures at its own
realization, which coincides with the ensemble value only for point masses.
"""
import numpy as np

from .._kernels import cycle_drive
from ..errors import (ConfigurationError, DegenerateDistributionError,
                      MeasurementError, UnsupportedFamilyError)
from ..seeding import as_rng

SERIES_TOL = 1e-12  # truncation bound on the tail of each moment series
TERM_TOL = 1e-4     # a delay contributing less than this counts as quiet


def _series(moment, start, step, max_abs, tol):
    """Sum_{j>=0} moment(start + step*j), truncated via the geometric tail bound."""
    if max_abs >= 1.0:
        raise ConfigurationError("weight support must lie inside (-1, 1)")
    if max_abs == 0.0:
        return moment(start)
    total = 0.0
    exponent = start
    ratio = max_abs ** step
    while True:
        total += moment(exponent)
        exponent += step
        # remaining terms are bounded by max_abs^exponent / (1 - ratio)
        tail = max_abs ** exponent / (1.0 - ratio)
        if tail < tol:
            break
    return total


def memory_capacity(spec, n_units):
    """Analytic memory capacity M for a W-unit cycle reservoir.

    Closed forms for pointmass/symbinary; truncated moment series otherwise.
    Raises DegenerateDistributionError when the denominator series vanish
    (all relevant moments zero, e.g. a point mass at 0 with W >= 2).
    """
    if n_units < 1:
        raise ConfigurationError("n_units must be >= 1")
    W = int(n_units)
    if spec.kind == "pointmass":
        a = abs(spec.a)
        if a == 0.0 and W >= 2:
            raise DegenerateDistributionError("point mass at 0 has no memory series")
        return W - 1.0 + a ** (2 * W)
    if spec.kind == "symbinary":
        a = abs(spec.a)
        if a == 0.0 and W >= 2:
            raise DegenerateDistributionError("two-point mass at 0 has no memory series")
        return W // 2 + a ** (2 * W)
    q = spec.max_abs
    if q == 0.0:
        raise DegenerateDistributionError("weight distribution concentrated at 0")
    total = 0.0
    for k in range(W):
        denom = _series(spec.moment, 2 * k, 2 * W, q, SERIES_TOL)
        if denom == 0.0:
            raise DegenerateDistributionError(f"zero moment series at delay phase {k}")
        numer = _series(lambda m: spec.moment(m) ** 2, k, W, q, SERIES_TOL)
        total += numer / denom
    base = _series(spec.moment, 0, 2 * W, q, SERIES_TOL)
    return total - 1.0 / base


def memory_capacity_bounds(spec, n_units):
    """(lo, hi) interval containing the analytic capacity.

    Zero-mean family: (0, floor(W/2)+1); strictly positive family: (0, W).
    """
    if n_units < 1:
        raise ConfigurationError("n_units must be >= 1")
    if spec.is_zero_mean:
        return 0.0, float(n_units // 2 + 1)
    if spec.is_strictly_positive:
        return 0.0, float(n_units)
    raise UnsupportedFamilyError(
        "bounds known only for zero-mean or strictly positive weight distributions"
    )


def min_trace_len(n_units):
    """Shortest trace `empirical_memory_capacity` accepts for a W-unit reservoir."""
    return max(20 * n_units, 200)


def empirical_memory_capacity(esn, input_period, trace_len, seed):
    """Measure a built reservoir's capacity on a zero-mean periodic stream.

    Drives the reservoir over `trace_len` unit-variance samples, then for each
    delay k >= 1 fits a linear readout reconstructing the k-step-old input and
    accumulates the squared correlation. Stops once a full period of W
    consecutive delays contributes below TERM_TOL (echoes recur at multiples
    of W), capped at 5W+50. Delay 0 is excluded to match the analytic formula.
    """
    W = esn.n_units
    if input_period < 1:
        raise ConfigurationError("input_period must be >= 1")
    if trace_len < min_trace_len(W):
        raise ConfigurationError("trace_len too short for a stable measurement")
    rng = as_rng(seed)
    # independent zero-mean unit-variance draws in each period phase
    n_cycles = int(np.ceil(trace_len / input_period))
    stream = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(n_cycles, input_period))
    stream = stream.reshape(-1)[:trace_len]
    if np.var(stream) <= 0.0:
        raise MeasurementError("input stream has degenerate variance")
    states = cycle_drive(esn.cycle_weights, esn.input_weights, stream, np.zeros(W))
    washout = max(10 * W, 100)
    V = states[washout:]
    gram = V.T @ V + 1e-10 * np.eye(W)
    total = 0.0
    quiet = 0
    for k in range(1, 5 * W + 51):
        target = stream[washout - k: trace_len - k]
        coef = np.linalg.solve(gram, V.T @ target)
        pred = V @ coef
        dp = pred - pred.mean()
        dt = target - target.mean()
        denom = np.sqrt(np.mean(dp * dp)) * np.sqrt(np.mean(dt * dt))
        if denom <= 0.0:
            corr2 = 0.0
        else:
            corr = float(np.mean(dp * dt) / denom)
            corr2 = corr * corr
        total += corr2
        quiet = quiet + 1 if corr2 < TERM_TOL else 0
        if quiet >= W:
            break
    return total
