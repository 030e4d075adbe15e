"""Analytic and empirical memory capacity of the cycle-reservoir ESN.

The analytic value for a W-unit cycle reservoir with weights drawn from a
distribution with moments mu(m) = E[w^m], driven by a zero-mean i.i.d.
stream of unit variance, is

    M = sum_{k=0}^{W-1} ( sum_j mu(2Wj+2k) )^-1 * sum_j mu(Wj+k)^2
        - ( sum_j mu(2Wj) )^-1.

The subtracted term is exactly the delay-0 contribution, so the empirical
counterpart sums squared reconstruction correlations over delays k >= 1.

For the point-mass and symmetric two-point families this module returns
closed forms instead of summing the series:

    pointmass(a):  M = W - 1 + a^(2W)
    symbinary(a):  M = floor(W/2) + a^(2W)

For a point mass the series collapses to its closed form. For symbinary
weights it does not: evaluated for a symbinary spec, the series gives
0.0625 at W = 2, a = 0.5, against the closed form's 1.0625, and for even W
it sums to W/2 - 1 + a^(2W). Which of the two is right is open (ROADMAP
item 3(f)); criterion 01 asserts the closed form. The truncated-series path
serves every other distribution. Note the analytic value
is an ensemble quantity (moments are averaged over the weight distribution
before the readout algebra); a single built reservoir measures at its own
realization, which coincides with the ensemble value only for point masses.

The empirical value fits one ridge readout per delay k to the states V
(n x W, after the washout): p_k = V (V'V + RIDGE I)^-1 V'y_k for the input
y_k seen k steps earlier. All delays share one basis. A row-blocked QR gives
R of V = QR, and the SVD of the W x W R gives R = P diag(s) Qt, so with
beta = Qt V'y_k and g = s^2 + RIDGE

    sum p_k y_k = sum_i beta_i^2 / g_i,
    sum p_k^2   = sum_i s_i^2 beta_i^2 / g_i^2,
    sum p_k     = sum_i beta_i (Qt V'1)_i / g_i.

No term divides by s, so a reservoir whose states span fewer than W
dimensions (s_i = 0) stays finite. V'V is never formed: it would square the
condition number of V, about 9e7 for a uniform(-0.5, 0.5) reservoir of
W = 10 units, to about 9e15, and a solve of the normal equations at a
ridge of 1e-10 keeps few correct digits (Bjorck 1996, Numerical
Methods for Least Squares Problems, sec. 2.2). The right-hand sides V'y_k of
all delays come from one blocked product with a window view of the stream.
"""
import numpy as np

from .._kernels import cycle_drive
from ..errors import ConfigurationError, DegenerateDistributionError, UnsupportedFamilyError
from ..seeding import as_rng

SERIES_TOL = 1e-12  # truncation bound on the tail of each moment series
TERM_TOL = 1e-4     # a delay contributing less than this counts as quiet
RIDGE = 1e-10       # ridge of the memory-capacity readout fits
QR_BLOCK_ENTRIES = 2 ** 14   # states per block of the row-blocked QR
RHS_BLOCK_ENTRIES = 2 ** 14  # window entries per block of the delay products


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
    Like `memory_capacity`, the bounds are ensemble values over the weight
    family. `empirical_memory_capacity` measures one built reservoir, so a
    symbinary or uniform reservoir can measure above `hi` (symbinary,
    W = 15, memcap's seed 0: 14.15 against 8).
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


def _quiet_sum(terms, n_quiet):
    """Sum of the non-empty vector `terms` in order, up to and including the
    n_quiet-th consecutive term below TERM_TOL; all of it when no such run occurs."""
    idx = np.arange(terms.size)
    last_loud = np.maximum.accumulate(np.where(terms < TERM_TOL, -1, idx))
    stops = np.flatnonzero(idx - last_loud >= n_quiet)
    stop = stops[0] + 1 if stops.size else terms.size
    # cumsum adds left to right, as a running total would
    return float(np.cumsum(terms[:stop])[-1])


def _ridge_correlations(V, stream, washout, n_delays):
    """Squared correlation of each ridge readout prediction with its target.

    Entry k-1 is for y_k = stream[washout-k : washout-k+len(V)], predicted by
    p_k = V (V'V + RIDGE I)^-1 V'y_k, for k = 1..n_delays (washout >= n_delays).
    """
    n, W = V.shape
    # R of V = QR, one block of rows at a time
    rows = max(QR_BLOCK_ENTRIES // W, W)
    R = np.linalg.qr(V[:rows], mode="r")
    for i in range(rows, n, rows):
        R = np.linalg.qr(np.vstack((R, V[i:i + rows])), mode="r")
    _, s, Qt = np.linalg.svd(R)
    # V = (Q P) diag(s) Qt with R = P diag(s) Qt, so V'V + RIDGE I = Qt' diag(g) Qt
    g = s * s + RIDGE
    # B[k-1] = y_k' V: window row j, read backwards, has stream[j + n_delays - k]
    # in column k-1, so window row first + i holds the targets of state row i
    windows = np.lib.stride_tricks.sliding_window_view(stream, n_delays)[:, ::-1]
    first = washout - n_delays
    rows = max(RHS_BLOCK_ENTRIES // n_delays, 1)
    B = np.zeros((n_delays, W))
    for i in range(0, n, rows):
        block = np.ascontiguousarray(windows[first + i:first + min(i + rows, n)])
        B += block.T @ V[i:i + rows]
    beta = B @ Qt.T
    qt_sums = Qt @ V.sum(axis=0)  # Qt V'1
    sum_py = (beta * beta) @ (1.0 / g)
    sum_pp = (beta * beta) @ (s * s / (g * g))
    sum_p = beta @ (qt_sums / g)
    # per-delay sums of y_k and y_k^2 from prefix sums of the stream
    csum = np.concatenate(([0.0], np.cumsum(stream)))
    csq = np.concatenate(([0.0], np.cumsum(stream * stream)))
    lo = washout - np.arange(1, n_delays + 1)
    sum_y = csum[lo + n] - csum[lo]
    sum_yy = csq[lo + n] - csq[lo]
    mean_p = sum_p / n
    mean_y = sum_y / n
    cov = sum_py / n - mean_p * mean_y
    var_p = sum_pp / n - mean_p * mean_p
    var_y = sum_yy / n - mean_y * mean_y
    denom = var_p * var_y
    out = np.zeros(n_delays)
    np.divide(cov * cov, denom, out=out, where=denom > 0.0)
    return out


def empirical_memory_capacity(esn, input_period, trace_len, seed):
    """Measure a built reservoir's capacity on a zero-mean i.i.d. stream.

    Drives the reservoir over `trace_len` i.i.d. uniform samples of zero mean
    and unit variance, drawn from `seed`, then for each
    delay k >= 1 fits a linear readout reconstructing the k-step-old input and
    accumulates the squared correlation. Stops once a full period of W
    consecutive delays contributes below TERM_TOL (echoes recur at multiples
    of W), capped at 5W+50. Delay 0 is excluded to match the analytic formula.

    The fits and correlations of all delays come from one QR of the states
    (see the module docstring), with no per-delay solve. Against a
    long-double Householder-QR ridge fit of the same float64 states, the
    `memcap` CLI rows for uniform(-0.5, 0.5) reservoirs of W = 8-15 units
    (seeds 0-4, 1000 and 7919000, trace 20 000) agree to within 5.2e-9. A
    per-delay solve of the normal equations missed the same reference by up
    to 2.4e-2 there (6.62952724 against 6.605396285 at W = 8, seed 1000).

    `input_period` is unused: the stream is i.i.d., whatever the period. A
    periodic stream would make delays k and k + p one target, so the sum
    would count the same echo more than once. The parameter stays in the
    signature for callers that pass it positionally.
    """
    W = esn.n_units
    if trace_len < min_trace_len(W):
        raise ConfigurationError("trace_len too short for a stable measurement")
    stream = as_rng(seed).uniform(-np.sqrt(3.0), np.sqrt(3.0), size=trace_len)
    states = cycle_drive(esn.cycle_weights, esn.input_weights, stream, np.zeros(W))
    washout = max(10 * W, 100)
    corr2 = _ridge_correlations(states[washout:], stream, washout, 5 * W + 50)
    return _quiet_sum(corr2, W)
