"""Radio and wired-link model: SINR, slot capacity, QoS exponents, effective capacity.

Content can reach a user over four delivery paths, named by their source:
  O - local RRH cache (no wired hop),
  A - cloud cache (one fronthaul hop),
  G - remote RRH cache (two fronthaul hops),
  S - content server (two hops with the backhaul as the external rate).
Given the base exponent theta_O of the cache-local path, the other three are
scaled so that all four paths meet the same delay-violation probability
exp(-theta_O * D_max). Effective capacity is the log-MGF rate of the cumulative
slot service; base-2 logs are paired with base-2 exponents throughout, and
the rate is taken in its expm1/log1p form about the smallest sample, so the
theta -> 0 limit returns the mean capacity without a branch.

The channel sampler is `segment_capacity_rows`, which an episode calls at
the top of each slot and `segment_capacity_samples` calls for one user. It
lays out the (user, RRH) pairs a slot draws, with their path gains, draws
their fading from the slot's generator and scores the (U, n_mc) slot
capacities. It never holds the slot's whole (pairs, n_mc, SLOT_SUBSTEPS)
block: it fills the fading in groups of whole users of at most
FADING_GROUP_ENTRIES entries, multiplies each group by its gains and sums it
into each user's faded serving power (`signal`) and summed interference, two
(U, n_mc, SLOT_SUBSTEPS) arrays. Each fill continues the generator's stream,
so the groups read the values the whole block would hold, in C order, and
every product and sum is the one the block would take.

A draw holds the two (U, n_mc, SLOT_SUBSTEPS) arrays and one group: at
most FADING_GROUP_ENTRIES floats (1 MiB), or the rows of one user whose
interferers alone exceed that, at most (active RRHs) x n_mc x
SLOT_SUBSTEPS floats. At the parameter-table defaults (U = 32, n_mc = 64)
that is 2 x 164 KB plus at most 1 MiB, and at U = 128 2 x 655 KB plus at
most 1 MiB; the whole block was 5.2 MB and 84 MB there.

dBm values are converted to linear scale once, in RadioParams; all math here
is linear-scale and unit-agnostic.
"""
import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, GeometryError, InfeasibleLinkError,
                     require_positive_finite)

SLOT_SUBSTEPS = 10  # channel sub-draws per slot along the user's segment
# Floor on sampled RRH-user distances, so a user on an RRH keeps a finite
# SINR. It sits far below the distances reached in practice: 1 m would bind
# on about one desk geometry in five (sub-step points pass within 1 m of an
# RRH) and change those realizations.
MIN_DISTANCE_M = 1e-3
# The fading is drawn in groups of whole users of at most this many entries
# (1 MiB, half a core's L2 cache on the 2-CPU Xeon host it was measured on);
# a user whose rows alone exceed it is a group of its own. No bit depends on
# the size, which bounds the buffer that holds a group: default episodes ran
# within 3 % of one another at 1 << 15, 1 << 17 and the whole block.
FADING_GROUP_ENTRIES = 1 << 17

# delivery paths as integer codes, in order of source priority
PATH_LOCAL, PATH_CLOUD, PATH_REMOTE, PATH_SERVER = range(4)

# wired hop counts per path: S counts BBU->RRH plus RRH->user with the
# backhaul as external rate, A one fronthaul hop, G two, O none
HOP_COUNTS = {PATH_SERVER: 2, PATH_CLOUD: 1, PATH_REMOTE: 2, PATH_LOCAL: 0}


def dbm_to_watts(dbm):
    """Watts of a dBm value; inf where the value overflows a float."""
    try:
        return 10.0 ** (dbm / 10.0) / 1000.0
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class RadioParams:
    """Downlink radio constants, stored linear-scale. Construction requires
    a finite beta > 2, a finite B > 0, and finite watts above 0 for both the tx
    power and the noise: above about 3082 dBm a power overflows, below about
    -3206 dBm it is 0 W."""
    tx_power_dbm: float = 20.0
    pathloss_exponent: float = 4.0
    noise_dbm: float = -95.0
    bandwidth_hz: float = 1e6
    tx_power_w: float = field(init=False)
    noise_w: float = field(init=False)

    def __post_init__(self):
        if not 2.0 < self.pathloss_exponent < math.inf:  # NaN fails too
            raise ConfigurationError(f"pathloss exponent must be finite and exceed 2 "
                                     f"(got {self.pathloss_exponent})")
        require_positive_finite("bandwidth", self.bandwidth_hz)
        object.__setattr__(self, "tx_power_w", dbm_to_watts(self.tx_power_dbm))
        object.__setattr__(self, "noise_w", dbm_to_watts(self.noise_dbm))
        require_positive_finite(f"tx power {self.tx_power_dbm} dBm in watts", self.tx_power_w)
        require_positive_finite(f"noise {self.noise_dbm} dBm in watts", self.noise_w)


@dataclass(frozen=True)
class WiredParams:
    """Backhaul/fronthaul pipes and the delivery contract; construction requires
    every field positive and finite."""
    backhaul_rate: float = 1e9       # bit/s
    fronthaul_rate: float = 2e9      # bit/s
    content_size: float = 1e7        # bits
    delay_bound: float = 1.0         # seconds

    def __post_init__(self):
        for name in ("backhaul_rate", "fronthaul_rate", "content_size", "delay_bound"):
            require_positive_finite(name, getattr(self, name))


@dataclass(frozen=True)
class LinkQos:
    """QoS exponents of the four delivery paths for one (rate split) instant."""
    theta_O: float
    theta_A: float
    theta_S: float
    theta_G: float

    @property
    def thetas(self):
        """The four exponents in path-code order: local, cloud, remote, server."""
        return np.array([self.theta_O, self.theta_A, self.theta_G, self.theta_S])


def per_content_rate(pipe_rate, n_users):
    """Even split of a wired pipe across the users it currently carries.

    An idle pipe (n = 0) returns the full rate: it constrains nothing and the
    division-by-zero case is meaningless.
    """
    if n_users < 0:
        raise ConfigurationError("user count cannot be negative")
    return pipe_rate if n_users == 0 else pipe_rate / n_users


def path_gain(distance, radio):
    """P d^-beta: the power received per unit of fading at `distance` metres."""
    distance = np.asarray(distance, dtype=np.float64)
    if np.any(distance <= 0.0):
        raise GeometryError("RRH-user distance must be positive")
    return radio.tx_power_w * distance ** (-radio.pathloss_exponent)


def sinr(signal_power, interference_power, radio):
    """Received SINR: signal power over interference plus noise, linear scale.

    Powers in watts (scalars or broadcastable arrays); `path_gain` turns
    distances into the power received per unit of fading.
    """
    return signal_power / (interference_power + radio.noise_w)


def slot_capacity(gamma_samples, bandwidth_hz):
    """Cumulative slot capacity: sum of B log2(1+gamma) over the last axis (the sub-steps)."""
    gamma_samples = np.atleast_1d(np.asarray(gamma_samples, dtype=np.float64))
    if gamma_samples.shape[-1] < 1:
        raise ConfigurationError("need at least one SINR sample")
    capacity = (bandwidth_hz * np.log2(1.0 + gamma_samples)).sum(axis=-1)
    return float(capacity) if capacity.ndim == 0 else capacity


def map_qos_exponents_lenient(theta_O, wired, v_BU, v_FU):
    """Scale the local-path exponent onto the other three delivery paths.

    theta_X = theta_O / (1 - N_h L/(v D)), with the path's hop count N_h from
    HOP_COUNTS and its pipe v: v_BU for the server path, v_FU for the cloud
    and remote paths. A non-positive denominator means the content cannot
    meet the delay bound over that path; its exponent is +inf.
    """
    L, D = wired.content_size, wired.delay_bound
    def scaled(path, rate):
        den = 1.0 - HOP_COUNTS[path] * L / (rate * D)
        return theta_O / den if den > 0.0 else math.inf
    return LinkQos(theta_O=theta_O,
                   theta_A=scaled(PATH_CLOUD, v_FU),
                   theta_S=scaled(PATH_SERVER, v_BU),
                   theta_G=scaled(PATH_REMOTE, v_FU))


def map_qos_exponents(theta_O, wired, v_BU, v_FU):
    """map_qos_exponents_lenient, raising InfeasibleLinkError on an infeasible path."""
    if theta_O <= 0:
        raise ConfigurationError("theta_O must be positive")
    link = map_qos_exponents_lenient(theta_O, wired, v_BU, v_FU)
    for path, theta in (("S", link.theta_S), ("A", link.theta_A), ("G", link.theta_G)):
        if math.isinf(theta):
            raise InfeasibleLinkError(f"path {path} cannot meet the delay bound")
    return link


def delay_violation_prob(theta, delay_bound, hop_count, wired_rate, content_size):
    """P(D > D_max) = exp(-theta (D_max - N_h L / v))."""
    slack = delay_bound - hop_count * content_size / wired_rate if hop_count else delay_bound
    if slack <= 0.0:
        raise InfeasibleLinkError("delay bound below the fixed wired transfer time")
    return math.exp(-theta * slack)


def effective_capacity_rows(thetas, capacity_samples):
    """Log-MGF effective rate of each row of pre-drawn cumulative-capacity samples.

    Row u scores samples[u] at exponent thetas[u] (a scalar applies to every
    row): E = -(1/theta) log2 mean(2^(-theta C)), per slot, since the slot
    is the time unit. theta <= 0 falls back to the theta->0 limit mean(C);
    theta = +inf scores zero (infeasible path). It is computed as
    E = m - log1p(mean(expm1(x))) / (theta ln 2), with m = min C and
    x = -theta ln 2 (C - m) <= 0. The minimum sample adds exp(0) = 1, so
    mean(exp(x)) is at least 1/n and log1p keeps full relative accuracy at
    both ends of theta; as theta -> 0 the form tends to mean(C) with no
    branch. A theta below 1e-300 is scored at 1e-300, where E already equals
    mean(C) to within rounding: a subnormal theta ln 2 would lose digits.
    Each row is computed exactly as a lone row would be.
    """
    samples = np.asarray(capacity_samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] < 1:
        raise ConfigurationError("need at least one capacity sample per row")
    thetas = np.broadcast_to(np.asarray(thetas, dtype=np.float64), samples.shape[:1])
    out = np.zeros(samples.shape[0])
    limit = thetas <= 0.0
    if limit.any():
        out[limit] = samples[limit].mean(axis=1)
    live = ~limit & ~np.isinf(thetas)
    if live.any():
        scale = np.maximum(thetas[live], 1e-300) * math.log(2.0)
        rows = samples[live]
        floor = rows.min(axis=1)
        with np.errstate(over="ignore"):  # x = -inf past the largest double: E = min C
            x = -scale[:, None] * (rows - floor[:, None])
        out[live] = floor - np.log1p(np.expm1(x).mean(axis=1)) / scale
    return out


def effective_capacity_from_samples(theta, capacity_samples):
    """effective_capacity_rows for one set of samples; returns a float."""
    samples = np.atleast_1d(np.asarray(capacity_samples, dtype=np.float64))
    if samples.size < 1:
        raise ConfigurationError("need at least one capacity sample")
    return float(effective_capacity_rows(theta, samples.reshape(1, -1))[0])


def sum_effective_capacity(values):
    """Sum of per-user effective capacities for one slot."""
    return float(np.asarray(values, dtype=np.float64).sum())


def long_term_average(slot_sums):
    """Time average of per-slot sums over the horizon."""
    slot_sums = np.asarray(slot_sums, dtype=np.float64)
    return float(slot_sums.mean()) if slot_sums.size else 0.0


def segment_capacity_rows(starts, ends, rrh_positions, serving, interferes, radio, n_mc, rng):
    """(U, n_mc) cumulative slot capacities in bit along U movement segments.

    User u slides from starts[u] to ends[u] over SLOT_SUBSTEPS equally spaced
    positions. Of the A transmitting RRHs at rrh_positions, column serving[u]
    serves user u and the other columns set in row u of the (U, A) mask
    `interferes` interfere; RRH-user distances are floored at MIN_DISTANCE_M.
    The drawn (user, column) pairs go users in order and columns in order
    within a user. Their fading is the (pairs, n_mc, SLOT_SUBSTEPS) block of
    unit-mean exponentials from `rng`, in C order, times each pair's
    `path_gain` at the sub-step points.

    The block is filled in groups of whole users of at most
    FADING_GROUP_ENTRIES entries; a user whose rows alone exceed it is a
    group of its own. One buffer holds each group in turn. Each user's
    serving row is copied into `signal` and then set to 0.0, which moves no
    bit of a sum, so a user's interference is the sum over its rows: one
    reduction along the first axis, which numpy adds row after row. Each
    user's interference thus adds its interferers' powers one column after
    the other, and does not depend on which other columns exist. (The tests
    compare users with more than eight interferers, where a pairwise sum
    would group them differently, against a per-user, per-column reference.)
    Gamma comes from `sinr`, once, after the last group.
    """
    own = np.arange(interferes.shape[1]) == serving[:, None]
    users, columns = np.nonzero(interferes | own)
    serves = own[users, columns]
    frac = (np.arange(SLOT_SUBSTEPS) + 0.5) / SLOT_SUBSTEPS
    points = starts[:, None, :] + frac[None, :, None] * (ends - starts)[:, None, :]
    dx = points[users, :, 0] - rrh_positions[columns, 0, None]
    dy = points[users, :, 1] - rrh_positions[columns, 1, None]
    gains = path_gain(np.maximum(np.sqrt(dx * dx + dy * dy), MIN_DISTANCE_M), radio)

    shape = (len(starts), n_mc, SLOT_SUBSTEPS)
    signal, interference = np.empty(shape), np.empty(shape)
    bounds = np.flatnonzero(np.diff(users, prepend=-1, append=-1))  # users' first rows, end
    per_group = FADING_GROUP_ENTRIES // (n_mc * SLOT_SUBSTEPS)  # rows
    buffer = np.empty((min(max(per_group, np.diff(bounds).max()), bounds[-1]),
                       n_mc, SLOT_SUBSTEPS))
    bounds = bounds.tolist()
    first = 0
    while first < len(bounds) - 1:
        lo = bounds[first]
        stop = max(bisect.bisect_right(bounds, lo + per_group) - 1, first + 1)
        hi = bounds[stop]
        group = buffer[:hi - lo]
        rng.standard_exponential(out=group)
        np.multiply(group, gains[lo:hi, None, :], out=group)
        group_serves = serves[lo:hi]
        signal[first:stop] = group[group_serves]  # each user has one serving pair
        group[group_serves] = 0.0
        for user in range(first, stop):
            np.add.reduce(group[bounds[user] - lo:bounds[user + 1] - lo], axis=0,
                          out=interference[user])
        first = stop
    return slot_capacity(sinr(signal, interference, radio), radio.bandwidth_hz)


def segment_capacity_samples(start, end, serving_pos, interferer_positions,
                             radio, n_mc, rng):
    """Monte-Carlo draws of one user's cumulative slot capacity along a movement segment.

    The user slides from `start` to `end`, served by the RRH at `serving_pos`
    and interfered with by those at `interferer_positions`: the one-user
    `segment_capacity_rows`, with the serving RRH as column 0. Returns the
    user's (n_mc,) samples in bit.
    """
    positions = np.vstack([serving_pos, np.reshape(interferer_positions, (-1, 2))])
    return segment_capacity_rows(np.array([start]), np.array([end]), positions,
                                 np.zeros(1, dtype=int), np.arange(len(positions))[None] > 0,
                                 radio, n_mc, rng)[0]
