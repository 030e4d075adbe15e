"""Recurrent predictors mapping context vectors to content-request distributions.

Every user has an echo-state network of its own, and all of them share one
reservoir: input weights and a sparse recurrent matrix rescaled to a spectral
radius below one. The reservoir is random and never trained; only the
readouts learn (Jaeger 2001, GMD Report 148; Lukosevicius 2012, A Practical
Guide to Applying Echo State Networks). Drawing a reservoir per user would
leave each user's predictor with the same distribution and change only the
correlation across users, at U times the memory and eigenvalue solves. Each
user keeps its own state and output matrix. The output matrix is trained
online, by a linear gradient step on the raw readout residual. Raw readouts
are not probability vectors, so predictions are projected onto the simplex
(clamp negatives, renormalize, uniform fallback) before use.
"""
import numpy as np

from ..errors import ConfigurationError
from ..seeding import as_rng

CONTEXT_FEATURES = 7  # request time, weekday, gender, occupation, age, device, reserved


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


def _draw_reservoir(rng, n_features, n_reservoir, density, spectral_radius):
    """(W_in, W): drawn in the order W_in, the mask, W; W rescaled to `spectral_radius`."""
    w_in = rng.uniform(-1.0, 1.0, (n_reservoir, n_features))
    mask = rng.random((n_reservoir, n_reservoir)) < density
    w = rng.uniform(-1.0, 1.0, (n_reservoir, n_reservoir)) * mask
    radius = _spectral_radius(w)
    if radius > 0.0:
        w *= spectral_radius / radius
    return w_in, w


def _spectral_radius(w):
    return float(np.max(np.abs(np.linalg.eigvals(w))))


def require_context(x, n_features):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n_features,):
        raise ConfigurationError(
            f"context vector has shape {x.shape}, expected ({n_features},)"
        )
    if not np.all(np.isfinite(x)):
        raise ConfigurationError("context vector has non-finite entries")
    return x


def _as_array(value, shape, name):
    value = np.asarray(value, dtype=np.float64)
    if value.shape != shape:
        raise ConfigurationError(f"{name} shape mismatch")
    return value


class ContentEsnBank:
    """U content ESNs on one shared reservoir, stepped together.

    Takes ContentEsn's parameters, with `reservoir_seed` and one readout seed
    (or Generator) per user in place of `seed`. W_in (N_w, K), the recurrent
    mask and W (N_w, N_w) are drawn in that order from `reservoir_seed`, and W
    is rescaled after one spectral-radius solve. User u's readout
    (N, N_w + K) is the next uniform draw from `readout_seeds[u]`. States
    (U, N_w) and readouts (U, N, N_w + K) are per user. Passing one Generator
    as both sources draws W_in, the mask, W and W_out from one stream, which
    is what ContentEsn does.

    Per slot: `predict(contexts)` advances every state,
    S <- tanh(S W^T + X W_in^T), which is one matrix product for all users,
    and returns the projected predictions. `train_step(observed)` then takes
    one readout gradient step per user against its observed distribution,
    reusing the raw readouts of that `predict`.
    """

    # readout updates run in chunks of users holding at most this many
    # entries, so no (U, N, N_w+K) temporary is built
    UPDATE_CHUNK_ENTRIES = 1 << 18

    def __init__(self, n_contents, reservoir_seed, readout_seeds, n_features=CONTEXT_FEATURES,
                 n_reservoir=100, learning_rate=0.01, spectral_radius=0.9, density=0.1,
                 out_scale=0.1):
        _check_dimensions(n_contents, n_features, n_reservoir, spectral_radius)
        self.n_users = len(readout_seeds)
        self.n_contents = n_contents
        self.n_features = n_features
        self.n_reservoir = n_reservoir
        self.learning_rate = float(learning_rate)
        self.input_weights, self.reservoir_weights = _draw_reservoir(
            as_rng(reservoir_seed), n_features, n_reservoir, density, spectral_radius)
        shape = (n_contents, n_reservoir + n_features)
        self.output_weights = np.empty((self.n_users,) + shape)
        for u, seed in enumerate(readout_seeds):
            self.output_weights[u] = as_rng(seed).uniform(-out_scale, out_scale, shape)
        self.state = np.zeros((self.n_users, n_reservoir))
        self._readout = None  # (z, raw) of the last predict

    def _advance(self, x):
        """state <- tanh(W@state + W_in@x) for every user, one product per term."""
        self.state = np.tanh(self.state @ self.reservoir_weights.T + x @ self.input_weights.T)
        return self.state

    def _readouts(self, x):
        """(z, raw): z = [state, x] per user and raw = W_out @ z."""
        z = np.concatenate([self.state, x], axis=1)
        return z, np.matmul(self.output_weights, z[:, :, None])[:, :, 0]

    def _learn(self, z, residual):
        """One readout gradient step per user, in chunks of UPDATE_CHUNK_ENTRIES.

        Each readout entry gains fl(fl(r z) lambda_alpha), r the raw residual.
        einsum forms a product as 0.0 + r z, so a -0.0 product comes out +0.0;
        adding either to an entry gives the same bits unless the entry is
        -0.0, which the bank's draws and updates never make (uniform draws do
        not give it, and a sum is -0.0 only when both of its terms are).
        """
        per_user = self.n_contents * (self.n_reservoir + self.n_features)
        step = max(1, self.UPDATE_CHUNK_ENTRIES // per_user)
        outer = np.empty((min(step, self.n_users),) + self.output_weights.shape[1:])
        for start in range(0, self.n_users, step):
            stop = min(start + step, self.n_users)
            part = outer[:stop - start]
            np.einsum("un,uf->unf", residual[start:stop], z[start:stop], out=part)
            part *= self.learning_rate
            self.output_weights[start:stop] += part

    def predict(self, contexts):
        """Advance every state on its context row; (U, N) projected predictions."""
        x = np.asarray(contexts, dtype=np.float64)
        if x.shape != (self.n_users, self.n_features):
            raise ConfigurationError(
                f"contexts have shape {x.shape}, expected ({self.n_users}, {self.n_features})")
        if not np.all(np.isfinite(x)):
            raise ConfigurationError("context vectors have non-finite entries")
        self._advance(x)
        self._readout = self._readouts(x)
        return project_to_simplex(self._readout[1])

    def train_step(self, observed):
        """One readout gradient step per user on the raw residual of the last predict."""
        if self._readout is None:
            raise ConfigurationError("train_step needs a predict first")
        z, raw = self._readout
        observed = np.asarray(observed, dtype=np.float64)
        if observed.shape != raw.shape:
            raise ConfigurationError("observed distributions have the wrong shape")
        self._readout = None
        self._learn(z, observed - raw)


class ContentEsn:
    """Echo-state predictor for one user's content-request distribution.

    The one-user ContentEsnBank whose reservoir and readout come from the
    same generator, so W_in, the recurrent mask, W and W_out are drawn from
    `seed` in that order.

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
        rng = as_rng(seed)
        self._bank = ContentEsnBank(n_contents, rng, [rng], n_features=n_features,
                                    n_reservoir=n_reservoir, learning_rate=learning_rate,
                                    spectral_radius=spectral_radius, density=density,
                                    out_scale=out_scale)
        self.n_contents = n_contents
        self.n_features = n_features
        self.n_reservoir = n_reservoir
        self.learning_rate = self._bank.learning_rate
        self.spectral_radius = float(spectral_radius)

    @property
    def input_weights(self):
        return self._bank.input_weights

    @property
    def reservoir_weights(self):
        return self._bank.reservoir_weights

    @property
    def output_weights(self):
        return self._bank.output_weights[0]

    @property
    def state(self):
        return self._bank.state[0]

    @state.setter
    def state(self, value):
        self._bank.state = _as_array(value, (self.n_reservoir,), "state")[None].copy()

    def set_weights(self, input_weights=None, reservoir_weights=None, output_weights=None):
        """Override weight matrices (tests and hand-built instances)."""
        n_w, k = self.n_reservoir, self.n_features
        if input_weights is not None:
            self._bank.input_weights = _as_array(input_weights, (n_w, k), "input_weights")
        if reservoir_weights is not None:
            self._bank.reservoir_weights = _as_array(reservoir_weights, (n_w, n_w),
                                                       "reservoir_weights")
        if output_weights is not None:
            self._bank.output_weights[0] = _as_array(output_weights, (self.n_contents, n_w + k),
                                                       "output_weights")

    def state_update(self, x):
        """Advance the reservoir: state <- tanh(W@state + W_in@x)."""
        x = require_context(x, self.n_features)
        return self._bank._advance(x[None])[0]

    def raw_output(self, x):
        x = require_context(x, self.n_features)
        return self._bank._readouts(x[None])[1][0]

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
        z, raw = self._bank._readouts(x[None])
        self._bank._learn(z, observed - raw)
        return float(np.abs(observed - project_to_simplex(raw[0])).sum())
