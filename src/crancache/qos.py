"""Radio and wired-link model: SINR, slot capacity, QoS exponents, effective capacity.

Content can reach a user over four delivery paths, named by their source:
  O - local RRH cache (no wired hop),
  A - cloud cache (one fronthaul hop),
  G - remote RRH cache (two fronthaul hops),
  S - content server (two hops with the backhaul as the external rate).
Given the base exponent theta_O of the cache-local path, the other three are
scaled so that all four paths meet the same delay-violation probability
exp(-theta_O * D_max). Effective capacity is the log-MGF rate of the cumulative
slot service; base-2 logs are paired with base-2 exponents throughout so the
theta -> 0 limit returns the mean capacity.

dBm values are converted to linear scale once, in RadioParams; all math here
is linear-scale and unit-agnostic.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, GeometryError, InfeasibleLinkError
from .seeding import as_rng

SLOT_SUBSTEPS = 10  # channel sub-draws per slot along the user's segment
# Floor on sampled RRH-user distances, so a user on an RRH keeps a finite
# SINR. It sits far below the distances reached in practice: 1 m would bind
# on about one desk geometry in five (sub-step points pass within 1 m of an
# RRH) and change those realizations.
MIN_DISTANCE_M = 1e-3
# segment_capacity_rows samples (user, RRH) pairs in chunks of at most this
# many (pair, sample, sub-step) entries, which bounds its temporaries
FADING_CHUNK_ENTRIES = 1 << 18

# delivery paths as integer codes, in order of source priority
PATH_LOCAL, PATH_CLOUD, PATH_REMOTE, PATH_SERVER = range(4)

# wired hop counts per path: S counts BBU->RRH plus RRH->user with the
# backhaul as external rate, A one fronthaul hop, G two, O none
HOP_COUNTS = {PATH_SERVER: 2, PATH_CLOUD: 1, PATH_REMOTE: 2, PATH_LOCAL: 0}


def dbm_to_watts(dbm):
    return 10.0 ** (dbm / 10.0) / 1000.0


@dataclass(frozen=True)
class RadioParams:
    """Downlink radio constants (stored linear-scale)."""
    tx_power_dbm: float = 20.0
    pathloss_exponent: float = 4.0
    noise_dbm: float = -95.0
    bandwidth_hz: float = 1e6
    cell_radius_m: float = 1000.0
    tx_power_w: float = field(init=False)
    noise_w: float = field(init=False)

    def __post_init__(self):
        if self.pathloss_exponent <= 2.0:
            raise ConfigurationError("pathloss exponent must exceed 2")
        if self.bandwidth_hz <= 0 or self.cell_radius_m <= 0:
            raise ConfigurationError("bandwidth and cell radius must be positive")
        object.__setattr__(self, "tx_power_w", dbm_to_watts(self.tx_power_dbm))
        object.__setattr__(self, "noise_w", dbm_to_watts(self.noise_dbm))


@dataclass(frozen=True)
class WiredParams:
    """Backhaul/fronthaul pipes and the delivery contract."""
    backhaul_rate: float = 1e9       # bit/s
    fronthaul_rate: float = 2e9      # bit/s
    content_size: float = 1e7        # bits
    delay_bound: float = 1.0         # seconds

    def __post_init__(self):
        if min(self.backhaul_rate, self.fronthaul_rate,
               self.content_size, self.delay_bound) <= 0:
            raise ConfigurationError("wired parameters must all be positive")


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


def sinr(distance, fading, interferer_distances, interferer_fadings, radio):
    """Received SINR: P d^-beta |h|^2 over out-of-cluster interference plus noise.

    Accepts scalars or broadcastable arrays; distances in metres, result in
    linear scale. Interferer powers sum along the last axis.
    """
    signal = path_gain(distance, radio) * np.asarray(fading)
    interference = 0.0
    if interferer_distances is not None and len(np.atleast_1d(interferer_distances)):
        powers = path_gain(interferer_distances, radio) * np.asarray(interferer_fadings)
        interference = powers.sum(axis=-1)
    return signal / (interference + radio.noise_w)


def slot_capacity(gamma_samples, bandwidth_hz):
    """Cumulative slot capacity: sum of B log2(1+gamma) over the last axis (the sub-steps)."""
    gamma_samples = np.atleast_1d(np.asarray(gamma_samples, dtype=np.float64))
    if gamma_samples.shape[-1] < 1:
        raise ConfigurationError("need at least one SINR sample")
    capacity = (bandwidth_hz * np.log2(1.0 + gamma_samples)).sum(axis=-1)
    return float(capacity) if capacity.ndim == 0 else capacity


def map_qos_exponents_lenient(theta_O, wired, v_BU, v_FU):
    """Scale the local-path exponent onto the other three delivery paths.

    theta_S = theta_O / (1 - 2L/(v_BU D)), theta_A = theta_O / (1 - L/(v_FU D)),
    theta_G = theta_O / (1 - 2L/(v_FU D)). A non-positive denominator means the
    content cannot meet the delay bound over that path; its exponent is +inf.
    """
    L, D = wired.content_size, wired.delay_bound
    def scaled(den):
        return theta_O / den if den > 0.0 else math.inf
    return LinkQos(theta_O=theta_O,
                   theta_A=scaled(1.0 - L / (v_FU * D)),
                   theta_S=scaled(1.0 - 2.0 * L / (v_BU * D)),
                   theta_G=scaled(1.0 - 2.0 * L / (v_FU * D)))


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


def effective_capacity_rows(thetas, capacity_samples, tau=1.0):
    """Log-MGF effective rate of each row of pre-drawn cumulative-capacity samples.

    Row u scores samples[u] at exponent thetas[u] (a scalar applies to every
    row): E = -(1/(theta tau)) log2 mean(2^(-theta C)). theta <= 0 falls back
    to the theta->0 limit mean(C)/tau; theta = +inf scores zero (infeasible
    path). Each row is computed exactly as a lone row would be.
    """
    samples = np.asarray(capacity_samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] < 1:
        raise ConfigurationError("need at least one capacity sample per row")
    thetas = np.broadcast_to(np.asarray(thetas, dtype=np.float64), samples.shape[:1])
    out = np.zeros(samples.shape[0])
    limit = thetas <= 0.0
    if limit.any():
        out[limit] = samples[limit].mean(axis=1) / tau
    live = ~limit & ~np.isinf(thetas)
    if live.any():
        theta = thetas[live]
        exponents = -theta[:, None] * samples[live] * math.log(2.0)
        peak = exponents.max(axis=1)
        means = np.exp(exponents - peak[:, None]).mean(axis=1)
        # math.log, not np.log: the vectorized log may round differently
        log2_mean = (peak + np.array([math.log(m) for m in means])) / math.log(2.0)
        out[live] = -log2_mean / (theta * tau)
    return out


def effective_capacity_from_samples(theta, capacity_samples, tau=1.0):
    """effective_capacity_rows for one set of samples; returns a float."""
    samples = np.atleast_1d(np.asarray(capacity_samples, dtype=np.float64))
    if samples.size < 1:
        raise ConfigurationError("need at least one capacity sample")
    return float(effective_capacity_rows(theta, samples.reshape(1, -1), tau)[0])


def effective_capacity(theta, capacity_sampler, tau, n_mc, seed):
    """Seeded Monte-Carlo effective capacity; `capacity_sampler(rng, n)` draws C."""
    if n_mc < 1:
        raise ConfigurationError("n_mc must be >= 1")
    rng = as_rng(seed)
    samples = np.asarray(capacity_sampler(rng, n_mc), dtype=np.float64)
    return effective_capacity_from_samples(theta, samples, tau)


def sum_effective_capacity(values):
    """Sum of per-user effective capacities for one slot."""
    return float(np.asarray(values, dtype=np.float64).sum())


def long_term_average(slot_sums):
    """Time average of per-slot sums over the horizon."""
    slot_sums = np.asarray(slot_sums, dtype=np.float64)
    return float(slot_sums.mean()) if slot_sums.size else 0.0


def segment_capacity_rows(starts, ends, rrh_positions, serving, interferes,
                          radio, n_mc, rng, unit_scale=1.0):
    """Monte-Carlo draws of the cumulative slot capacity along U movement segments.

    User u slides from starts[u] to ends[u] over SLOT_SUBSTEPS equally spaced
    positions. Of the A transmitting RRHs at rrh_positions, column serving[u]
    serves user u and the other columns set in row u of the (U, A) mask
    `interferes` interfere; every sub-step redraws their unit-mean exponential
    fading. Only these used (user, column) pairs are drawn and given a power:
    `rng` draws one (n_mc, SLOT_SUBSTEPS) block per pair, users in order and
    columns in order within a user. Each user's interference starts from 0.0
    and adds its interferers' powers one column after the other, so it does
    not depend on which other columns exist. RRH-user distances are floored at
    MIN_DISTANCE_M. Returns (U, n_mc) samples times `unit_scale` (the
    simulator scores in Mbit: 1e-6). Pairs go in chunks of at most
    FADING_CHUNK_ENTRIES fading entries, or one at a time, and a user's pairs
    may straddle two chunks; chunking moves no draw and no sum.
    """
    n_users, n_active = interferes.shape
    users, columns = np.nonzero(interferes | (np.arange(n_active) == serving[:, None]))
    # an interferer's rank among its user's interferers, from 1; 0 marks the serving pair
    ranks = np.where(interferes, np.cumsum(interferes, axis=1), 0)[users, columns]
    frac = (np.arange(SLOT_SUBSTEPS) + 0.5) / SLOT_SUBSTEPS
    points = starts[:, None, :] + frac[None, :, None] * (ends - starts)[:, None, :]

    signal = np.empty((n_users, n_mc, SLOT_SUBSTEPS))
    interference = np.zeros((n_users, n_mc, SLOT_SUBSTEPS))
    size = max(1, FADING_CHUNK_ENTRIES // (n_mc * SLOT_SUBSTEPS))
    for lo in range(0, len(users), size):
        u, c, rank = users[lo:lo + size], columns[lo:lo + size], ranks[lo:lo + size]
        dx = points[u, :, 0] - rrh_positions[c, 0, None]
        dy = points[u, :, 1] - rrh_positions[c, 1, None]
        d = np.maximum(np.sqrt(dx * dx + dy * dy), MIN_DISTANCE_M)
        power = rng.standard_exponential((len(u), n_mc, SLOT_SUBSTEPS))
        power *= path_gain(d, radio)[:, None, :]
        serve = rank == 0
        signal[u[serve]] = power[serve]
        # rank by rank: a rank holds each user at most once, and a user's
        # ranks come in column order
        order = np.argsort(rank, kind="stable")
        bounds = np.searchsorted(rank[order], np.arange(rank.max() + 2))
        for first, stop in zip(bounds[1:-1], bounds[2:]):
            at = order[first:stop]
            interference[u[at]] += power[at]
    gamma = signal / (interference + radio.noise_w)
    return slot_capacity(gamma, radio.bandwidth_hz) * unit_scale


def segment_capacity_samples(start, end, serving_pos, interferer_positions,
                             radio, n_mc, rng, unit_scale=1.0):
    """segment_capacity_rows for one user, served by column 0; returns its (n_mc,) samples."""
    positions = np.vstack([serving_pos, np.reshape(interferer_positions, (-1, 2))])
    return segment_capacity_rows(np.array([start]), np.array([end]), positions,
                                 np.zeros(1, dtype=int), np.arange(len(positions))[None] > 0,
                                 radio, n_mc, rng, unit_scale)[0]
