"""Per-user recurrent predictor mapping context vectors to request distributions.

The reservoir (input weights + sparse recurrent matrix with spectral radius
below one) is fixed at construction; only the output matrix is trained, online,
by a linear gradient step on the raw readout residual. Raw readouts are not
probability vectors, so predictions are projected onto the simplex
(clamp negatives, renormalize, uniform fallback) before use.
"""
import os

import numpy as np

from ..errors import ConfigurationError
from ..seeding import as_rng

CONTEXT_FEATURES = 7  # request time, weekday, gender, occupation, age, device, reserved

# a bank finds the spectral radii of reservoirs this large on a thread pool;
# below it the pool costs more than the eigenvalue solves it would share out
POOL_MIN_RESERVOIR = 256


def project_to_simplex(raw):
    """Clamp negatives to zero and renormalize; uniform if nothing survives.

    Projects along the last axis, so a (U, N) array is projected row by row.
    """
    raw = np.asarray(raw, dtype=np.float64)
    p = np.clip(raw, 0.0, None)
    total = p.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(total > 0.0, p / total, 1.0 / raw.shape[-1])


def require_distribution(vec, tol=1e-9):
    """Validate a probability vector: non-negative entries summing to one."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1:
        raise ConfigurationError("distribution must be a 1-d vector")
    if np.any(vec < -tol):
        raise ConfigurationError("distribution has negative entries")
    if abs(vec.sum() - 1.0) > tol:
        raise ConfigurationError(f"distribution sums to {vec.sum()!r}, not 1")
    return vec


def _check_dimensions(n_contents, n_features, n_reservoir, spectral_radius):
    if n_contents < 1 or n_reservoir < 1 or n_features < 1:
        raise ConfigurationError("n_contents, n_features, n_reservoir must be >= 1")
    if not 0.0 < spectral_radius < 1.0:
        raise ConfigurationError("spectral_radius must lie in (0, 1)")


def _draw_weights(rng, n_contents, n_features, n_reservoir, density, out_scale):
    """(W_in, W, W_out) of one content ESN; W is masked but not yet rescaled.

    The draws come in the order W_in, the mask, W, W_out. Rescaling W to its
    spectral radius consumes no randomness, so it may happen afterwards.
    """
    w_in = rng.uniform(-1.0, 1.0, (n_reservoir, n_features))
    mask = rng.random((n_reservoir, n_reservoir)) < density
    w = rng.uniform(-1.0, 1.0, (n_reservoir, n_reservoir)) * mask
    w_out = rng.uniform(-out_scale, out_scale, (n_contents, n_reservoir + n_features))
    return w_in, w, w_out


def _spectral_radius(w):
    return float(np.max(np.abs(np.linalg.eigvals(w))))


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _spectral_radii(reservoirs):
    """max|eigvals| of each (N_w, N_w) reservoir in a stack, in stack order.

    Large reservoirs are solved on a thread pool: `eigvals` releases the
    interpreter lock, and a solve gives the same bits on any thread. The
    workers run nothing but `_spectral_radius`.
    """
    workers = min(len(reservoirs), _usable_cpus())
    if reservoirs.shape[-1] < POOL_MIN_RESERVOIR or workers < 2:
        return [_spectral_radius(w) for w in reservoirs]
    from concurrent.futures import ThreadPoolExecutor  # lazily: a cold package import skips it
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(_spectral_radius, reservoirs))


def require_context(x, n_features):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n_features,):
        raise ConfigurationError(
            f"context vector has shape {x.shape}, expected ({n_features},)"
        )
    if not np.all(np.isfinite(x)):
        raise ConfigurationError("context vector has non-finite entries")
    return x


class ContentEsn:
    """Echo-state predictor for one user's content-request distribution.

    Parameters
    ----------
    n_contents : catalog size (output dimension).
    n_features : context vector length (default 7).
    n_reservoir : reservoir units.
    learning_rate : gradient step for the online readout update.
    spectral_radius : recurrent matrix is rescaled to this radius (< 1).
    density : fraction of nonzero recurrent entries.
    out_scale : half-width of the uniform readout init.
    """

    def __init__(self, n_contents, n_features=CONTEXT_FEATURES, n_reservoir=100,
                 learning_rate=0.01, spectral_radius=0.9, density=0.1,
                 out_scale=0.1, seed=0):
        _check_dimensions(n_contents, n_features, n_reservoir, spectral_radius)
        self.n_contents = n_contents
        self.n_features = n_features
        self.n_reservoir = n_reservoir
        self.learning_rate = float(learning_rate)
        self.spectral_radius = float(spectral_radius)
        self.input_weights, w, self.output_weights = _draw_weights(
            as_rng(seed), n_contents, n_features, n_reservoir, density, out_scale)
        radius = _spectral_radius(w)
        if radius > 0.0:
            w *= spectral_radius / radius
        self.reservoir_weights = w
        self.state = np.zeros(n_reservoir)

    def set_weights(self, input_weights=None, reservoir_weights=None, output_weights=None):
        """Override weight matrices (tests and hand-built instances)."""
        if input_weights is not None:
            input_weights = np.asarray(input_weights, dtype=np.float64)
            if input_weights.shape != (self.n_reservoir, self.n_features):
                raise ConfigurationError("input_weights shape mismatch")
            self.input_weights = input_weights
        if reservoir_weights is not None:
            reservoir_weights = np.asarray(reservoir_weights, dtype=np.float64)
            if reservoir_weights.shape != (self.n_reservoir, self.n_reservoir):
                raise ConfigurationError("reservoir_weights shape mismatch")
            self.reservoir_weights = reservoir_weights
        if output_weights is not None:
            output_weights = np.asarray(output_weights, dtype=np.float64)
            if output_weights.shape != (self.n_contents, self.n_reservoir + self.n_features):
                raise ConfigurationError("output_weights shape mismatch")
            self.output_weights = output_weights

    def state_update(self, x):
        """Advance the reservoir: state <- tanh(W@state + W_in@x)."""
        x = require_context(x, self.n_features)
        self.state = np.tanh(self.reservoir_weights @ self.state + self.input_weights @ x)
        return self.state

    def raw_output(self, x):
        x = require_context(x, self.n_features)
        return self.output_weights @ np.concatenate([self.state, x])

    def predict(self, x):
        """Request distribution for context x (state already updated)."""
        return project_to_simplex(self.raw_output(x))

    def train_step(self, x, observed):
        """One readout gradient step against the observed distribution.

        The update uses the raw (pre-projection) residual; the returned error
        is the L1 distance between the observed and the projected prediction.
        """
        x = require_context(x, self.n_features)
        observed = require_distribution(observed)
        if observed.shape != (self.n_contents,):
            raise ConfigurationError("observed distribution length mismatch")
        z = np.concatenate([self.state, x])
        raw = self.output_weights @ z
        self.output_weights = self.output_weights + self.learning_rate * np.outer(observed - raw, z)
        return float(np.abs(observed - project_to_simplex(raw)).sum())


class ContentEsnBank:
    """U content ESNs stepped together as stacked arrays.

    Takes ContentEsn's parameters, with one seed (or Generator) per user in
    place of `seed`: user u's reservoir, input weights and readout are exactly
    those of `ContentEsn(..., seed=seeds[u])`. They live in preallocated
    (U, N_w, N_w), (U, N_w, K) and (U, N, N_w+K) arrays, and a step computes
    exactly what ContentEsn computes for each user.

    Per slot: `predict(contexts)` advances every state and returns the
    projected predictions; `train_step(observed)` then takes one readout
    gradient step per user against its observed distribution, reusing the raw
    readouts of that `predict`.
    """

    # readout updates run in chunks of users holding at most this many
    # entries, so no (U, N, N_w+K) temporary is built
    UPDATE_CHUNK_ENTRIES = 1 << 18

    def __init__(self, n_contents, seeds, n_features=CONTEXT_FEATURES, n_reservoir=100,
                 learning_rate=0.01, spectral_radius=0.9, density=0.1, out_scale=0.1):
        _check_dimensions(n_contents, n_features, n_reservoir, spectral_radius)
        n_users = len(seeds)
        self.n_users = n_users
        self.n_contents = n_contents
        self.n_features = n_features
        self.n_reservoir = n_reservoir
        self.learning_rate = float(learning_rate)
        n_w, k, n = n_reservoir, n_features, n_contents
        self.reservoir_weights = np.empty((n_users, n_w, n_w))
        self.input_weights = np.empty((n_users, n_w, k))
        self.output_weights = np.empty((n_users, n, n_w + k))
        self.state = np.zeros((n_users, n_w))
        for u, seed in enumerate(seeds):
            (self.input_weights[u], self.reservoir_weights[u],
             self.output_weights[u]) = _draw_weights(as_rng(seed), n, k, n_w, density, out_scale)
        for w, radius in zip(self.reservoir_weights, _spectral_radii(self.reservoir_weights)):
            if radius > 0.0:
                w *= spectral_radius / radius
        chunk = max(1, min(n_users, self.UPDATE_CHUNK_ENTRIES // (n * (n_w + k))))
        self._outer = np.empty((chunk, n, n_w + k))
        self._readout = None  # (z, raw) of the last predict

    def predict(self, contexts):
        """Advance every state on its context row; (U, N) projected predictions."""
        x = np.asarray(contexts, dtype=np.float64)
        if x.shape != (self.n_users, self.n_features):
            raise ConfigurationError(
                f"contexts have shape {x.shape}, expected ({self.n_users}, {self.n_features})")
        if not np.all(np.isfinite(x)):
            raise ConfigurationError("context vectors have non-finite entries")
        self.state = np.tanh(np.matmul(self.reservoir_weights, self.state[:, :, None])[:, :, 0]
                             + np.matmul(self.input_weights, x[:, :, None])[:, :, 0])
        z = np.concatenate([self.state, x], axis=1)
        raw = np.matmul(self.output_weights, z[:, :, None])[:, :, 0]
        self._readout = (z, raw)
        return project_to_simplex(raw)

    def train_step(self, observed):
        """One readout gradient step per user on the raw residual of the last predict."""
        if self._readout is None:
            raise ConfigurationError("train_step needs a predict first")
        z, raw = self._readout
        residual = np.asarray(observed, dtype=np.float64) - raw
        if residual.shape != raw.shape:
            raise ConfigurationError("observed distributions have the wrong shape")
        self._readout = None
        chunk = self._outer.shape[0]
        for lo in range(0, self.n_users, chunk):
            hi = min(lo + chunk, self.n_users)
            outer = self._outer[:hi - lo]
            np.multiply(residual[lo:hi, :, None], z[lo:hi, None, :], out=outer)
            outer *= self.learning_rate
            self.output_weights[lo:hi] += outer
