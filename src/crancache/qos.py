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

The channel sampler has three steps, which an episode runs in order, and
`segment_capacity_samples` for one user. `pair_layout` lists the (user,
RRH) pairs a slot draws, with their path gains. `fading_block` draws the
slot's fading as one (pairs, n_mc, SLOT_SUBSTEPS) block from the slot's
generator, in C order. A block of at most MAX_INLINE_FADING_ENTRIES
entries (every desk-scale slot) is drawn inline, when the caller takes it.
A larger one is handed at once to one worker thread, so that the caller
can work while the fading is drawn: the draw and numpy's matrix products
both release the GIL. The worker is handed only numpy callables
implemented in C (the exponential draw into the block, then the multiply
by the gains), never package code: a worker running Python code contends
with the main thread for the GIL, which made slots slower, and the
benchmark's span tracer assumes that package code runs on one thread.
Either way the same two calls fill the block, so the samples do not depend
on which thread draws. `capacity_from_fading`
then adds up signal and interference from the faded powers and scores the
slot capacity.

A draw lives until its block is taken or the draw is discarded, and it may
outlive the call that started it: an episode starts the next slot's draw
once the current slot has consumed its own block, so at most one block is
alive at a time. Taking waits for the worker's jobs and hands the block
over; discarding cancels or waits for them. Whoever holds a draw takes or
discards it, also when it raises, so no job outlives its holder's use.
Draws are not copied: a copied `sim.Simulation` leaves its draw behind and
draws that slot again.

The block holds U x (active RRHs) x n_mc x SLOT_SUBSTEPS floats at most: at
the parameter-table defaults (U = 32, n_mc = 64) that is 5.2 MB for the
worst slot, in which 1024 pairs are drawn, and at U = 128 it is 84 MB (a
size the benchmark does not run).

dBm values are converted to linear scale once, in RadioParams; all math here
is linear-scale and unit-agnostic.
"""
import math
from concurrent.futures import ThreadPoolExecutor, wait
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
# A fading block of at most this many (pair, sample, sub-step) entries is
# drawn inline; a larger one is drawn on _FADING_WORKER.
MAX_INLINE_FADING_ENTRIES = 1 << 18
# draws the fading blocks above MAX_INLINE_FADING_ENTRIES (see the module
# docstring); its thread starts at the first hand-off, not at import
_FADING_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="crancache-fading")

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
    theta = +inf scores zero (infeasible path). A row whose every
    2^(-theta (C - min C)) rounds to 1 also scores mean(C): there the formula
    would read min C, and mean(C) is the theta->0 limit to within rounding.
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
        theta = thetas[live]
        exponents = -theta[:, None] * samples[live] * math.log(2.0)
        peak = exponents.max(axis=1)
        means = np.exp(exponents - peak[:, None]).mean(axis=1)
        # math.log, not np.log: the vectorized log may round differently
        log2_mean = (peak + np.array([math.log(m) for m in means])) / math.log(2.0)
        rates = -log2_mean / theta
        flat = means == 1.0
        if flat.any():
            rates[flat] = samples[live][flat].mean(axis=1)
        out[live] = rates
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


@dataclass(frozen=True)
class PairLayout:
    """The used (user, column) pairs of one slot's channel draw, before any fading.

    Pairs go users in order and columns in order within a user. `serves`
    marks each user's serving pair (the others interfere) and `gains` holds
    each pair's `path_gain` at the SLOT_SUBSTEPS sub-step points. The
    slot's fading is one (pairs, n_mc, SLOT_SUBSTEPS) block of unit-mean
    exponentials times gains[:, None, :].
    """
    n_mc: int
    users: np.ndarray
    serves: np.ndarray
    gains: np.ndarray


def pair_layout(starts, ends, rrh_positions, serving, interferes, radio, n_mc):
    """The PairLayout of U movement segments: which pairs are drawn, and their gains.

    User u slides from starts[u] to ends[u] over SLOT_SUBSTEPS equally spaced
    positions. Of the A transmitting RRHs at rrh_positions, column serving[u]
    serves user u and the other columns set in row u of the (U, A) mask
    `interferes` interfere. RRH-user distances are floored at MIN_DISTANCE_M.
    """
    n_active = interferes.shape[1]
    own = np.arange(n_active) == serving[:, None]
    users, columns = np.nonzero(interferes | own)
    frac = (np.arange(SLOT_SUBSTEPS) + 0.5) / SLOT_SUBSTEPS
    points = starts[:, None, :] + frac[None, :, None] * (ends - starts)[:, None, :]
    dx = points[users, :, 0] - rrh_positions[columns, 0, None]
    dy = points[users, :, 1] - rrh_positions[columns, 1, None]
    d = np.maximum(np.sqrt(dx * dx + dy * dy), MIN_DISTANCE_M)
    return PairLayout(n_mc, users, own[users, columns], path_gain(d, radio))


def fading_block(layout, rng):
    """Start drawing the fading block of `layout` from `rng`; returns the draw.

    A block of at most MAX_INLINE_FADING_ENTRIES entries is drawn inline,
    when the draw's `take()` is called. A larger one goes to _FADING_WORKER
    at once. Either way the same two numpy calls fill the block: the
    exponential draw into it, then the multiply by the pairs' gains in
    place; `take()` runs them, or waits for the worker's two jobs. A job's
    exception comes out of `take()`. The draw lives until it is taken or
    discarded (`discard()`, or leaving a `with` block on it), whichever
    comes first; discarding cancels or waits for both jobs, so none outlives
    the draw's holder.
    """
    return _FadingDraw(layout, rng)


class _FadingDraw:
    """One layout's fading block, drawn or being drawn; see `fading_block`."""

    def __init__(self, layout, rng):
        self.layout = layout
        self._block = np.empty((len(layout.users), layout.n_mc, SLOT_SUBSTEPS))
        # the two steps, each (callable, args, kwargs): run by take(), or on the worker
        self._steps = ((rng.standard_exponential, (), {"out": self._block}),
                       (np.multiply, (self._block, layout.gains[:, None, :]),
                        {"out": self._block}))
        self._jobs = ()
        if self._block.size > MAX_INLINE_FADING_ENTRIES:
            self._jobs = tuple(_FADING_WORKER.submit(fn, *args, **kwargs)
                               for fn, args, kwargs in self._steps)
            self._steps = ()

    def take(self):
        """The finished block, handed over: the draw drops it and its jobs."""
        for job in self._jobs:
            job.result()
        block, steps = self._block, self._steps
        self.discard()
        for fn, args, kwargs in steps:
            fn(*args, **kwargs)
        return block

    def discard(self):
        """Cancel or wait for the jobs, and drop the block."""
        # a cancelled job never runs, but `wait` would block on it until the
        # worker reaches it in the queue
        wait([job for job in self._jobs if not job.cancel()])
        self._block, self._steps, self._jobs = None, (), ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.discard()


def capacity_from_fading(layout, power, radio):
    """(U, n_mc) cumulative slot capacities in bit, from the layout's faded powers.

    `power` is the layout's fading block (see PairLayout); it is
    overwritten. Each user's interference starts from 0.0 and adds its
    interferers' powers one column after the other, so it does not depend
    on which other columns exist. The serving rows are set to 0.0 first,
    which moves no bit of a sum, so a user's interference is the sum over
    its rows: one reduction along the first axis, which numpy adds row after
    row. (The tests compare users with more than eight interferers, where a
    pairwise sum would group them differently, against a column-by-column
    loop.) Gamma comes from `sinr`.
    """
    signal = power[layout.serves]  # each user has one serving pair, in user order
    power[layout.serves] = 0.0
    interference = np.empty_like(signal)
    bounds = np.flatnonzero(np.diff(layout.users, prepend=-1, append=-1)).tolist()
    for user, (first, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        np.add.reduce(power[first:stop], axis=0, out=interference[user])
    return slot_capacity(sinr(signal, interference, radio), radio.bandwidth_hz)


def segment_capacity_samples(start, end, serving_pos, interferer_positions,
                             radio, n_mc, rng):
    """Monte-Carlo draws of one user's cumulative slot capacity along a movement segment.

    The user slides from `start` to `end`, served by the RRH at `serving_pos`
    and interfered with by those at `interferer_positions`. The three steps
    of an episode's channel draw run in order, `pair_layout`,
    `fading_block` and `capacity_from_fading`, with the serving RRH as
    column 0. Returns the user's (n_mc,) samples in bit.
    """
    positions = np.vstack([serving_pos, np.reshape(interferer_positions, (-1, 2))])
    layout = pair_layout(np.array([start]), np.array([end]), positions, np.zeros(1, dtype=int),
                         np.arange(len(positions))[None] > 0, radio, n_mc)
    with fading_block(layout, rng) as fading:
        return capacity_from_fading(layout, fading.take(), radio)[0]
