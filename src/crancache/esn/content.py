"""Recurrent predictors mapping context vectors to content-request distributions.

Every user has an echo-state network of its own, and all of them share one
reservoir: input weights W_in (N_w, K) and N_w cycle weights c, each of
modulus SPECTRAL_RADIUS with a random sign (a simple cycle reservoir: Rodan
and Tino 2011, Minimum Complexity Echo State Network, IEEE TNN 22(1)). Unit i
reads unit (i-1) mod N_w through c_i, as in the mobility reservoirs: the
cycle matrix C, whose row i holds c_i in column (i-1) mod N_w, is never
built. C is a weighted cyclic permutation, so its eigenvalues are
SPECTRAL_RADIUS times the N_w-th roots of +1 or -1 and its singular values
all equal SPECTRAL_RADIUS: the radius below one that the echo-state
condition asks for holds by construction (Jaeger 2001, GMD Report 148). The
reservoir is random and never trained; only the readout learns (Lukosevicius
2012, A Practical Guide to Applying Echo State Networks). Drawing a
reservoir per user would leave each user's predictor with the same
distribution and change only the correlation across users, at U times the
draws and memory. Each user keeps its own state and its own context. Raw
readouts are not probability vectors, so predictions are projected onto the
simplex (clamp negatives, renormalize, uniform fallback) before use.

All users share one readout W_out (N, N_w+K), fitted online on every user's
(z, observed) pairs, z = [state; context]. This departs from the paper, which
trains a readout per user. Each slot takes one normalized gradient step on
the raw residuals R (U, N) of the users' readouts Z (U, N_w+K):

    W_out <- W_out + lambda_alpha R^T Z / sum_u |z_u|^2,

which is stable for 0 < lambda_alpha < 2, whatever the reservoir size: an
un-normalized step lambda_alpha r z^T would diverge once lambda_alpha |z|^2
exceeds 2, and |z|^2 is about 4 at the parameter-table defaults (N_w = 1000).
The readout starts at zero, so the first predictions are uniform.
"""
import numpy as np

from ..errors import ConfigurationError
from ..seeding import as_rng
from .mobility import WeightDistribution

CONTEXT_FEATURES = 7  # request time, weekday, gender, occupation, age, device, reserved
SPECTRAL_RADIUS = 0.9    # modulus of every cycle weight: the reservoir's spectral radius (< 1)
DISTRIBUTION_TOL = 1e-9  # rounding slack when validating a probability vector


def project_to_simplex(raw):
    """Clamp negatives to zero and renormalize; uniform if nothing survives.

    Projects along the last axis, so a (U, N) array is projected row by row.
    """
    raw = np.asarray(raw, dtype=np.float64)
    p = np.clip(raw, 0.0, None)
    total = p.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(total > 0.0, p / total, 1.0 / raw.shape[-1])


def require_distribution(vec):
    """Validate a probability vector: non-negative entries summing to one."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1:
        raise ConfigurationError("distribution must be a 1-d vector")
    if np.any(vec < -DISTRIBUTION_TOL):
        raise ConfigurationError("distribution has negative entries")
    if abs(vec.sum() - 1.0) > DISTRIBUTION_TOL:
        raise ConfigurationError(f"distribution sums to {vec.sum()!r}, not 1")
    return vec


def _check_dimensions(n_contents, n_features, n_reservoir):
    if n_contents < 1 or n_reservoir < 1 or n_features < 1:
        raise ConfigurationError("n_contents, n_features, n_reservoir must be >= 1")


def _draw_reservoir(rng, n_features, n_reservoir):
    """(W_in, c): W_in first, then the cycle weights, +/- SPECTRAL_RADIUS each."""
    w_in = rng.uniform(-1.0, 1.0, (n_reservoir, n_features))
    return w_in, WeightDistribution("symbinary", SPECTRAL_RADIUS).sample(rng, n_reservoir)


def _checked(value, shape, name):
    """`value` as a float64 array of exactly `shape` with finite entries."""
    value = np.asarray(value, dtype=np.float64)
    if value.shape != shape:
        raise ConfigurationError(f"{name}: shape {value.shape}, expected {shape}")
    if not np.all(np.isfinite(value)):
        raise ConfigurationError(f"{name}: non-finite entries")
    return value


class ContentEsnBank:
    """U content ESNs on one shared reservoir and one shared readout, stepped together.

    Takes ContentEsn's parameters, with the user count `n_users` in addition.
    W_in (N_w, K) and the cycle weights `reservoir_weights` c (N_w,) are
    drawn from `seed` in that order. The readout `output_weights`
    (N, N_w + K) starts at zero; states (U, N_w) are per user.

    Per slot: `predict(contexts)` advances every state,
    S <- tanh(roll(S, 1, axis=1) * c + X W_in^T), whose column i reads
    column (i-1) mod N_w of S, reads the raw readouts Z W_out^T with
    Z = [S, X], one array operation each for all users, and returns the
    projected predictions. `train_step(observed)` then takes one normalized
    gradient step on the residuals of that `predict` (see the module
    docstring).
    """

    def __init__(self, n_contents, n_users, seed, n_features=CONTEXT_FEATURES,
                 n_reservoir=100, learning_rate=0.01):
        _check_dimensions(n_contents, n_features, n_reservoir)
        if n_users < 1:
            raise ConfigurationError("n_users must be >= 1")
        self.learning_rate = float(learning_rate)
        self.input_weights, self.reservoir_weights = _draw_reservoir(
            as_rng(seed), n_features, n_reservoir)
        self.output_weights = np.zeros((n_contents, n_reservoir + n_features))
        self.state = np.zeros((n_users, n_reservoir))
        self._readout = None  # (z, raw) of the last predict

    def _advance(self, x):
        """state <- tanh(C@state + W_in@x) for every user, C the cycle matrix."""
        self.state = np.tanh(np.roll(self.state, 1, axis=1) * self.reservoir_weights
                             + x @ self.input_weights.T)
        return self.state

    def _readouts(self, x):
        """(z, raw): z = [state, x] per user and raw = z W_out^T."""
        z = np.concatenate([self.state, x], axis=1)
        return z, z @ self.output_weights.T

    def _learn(self, z, residual):
        """W_out += lambda_alpha residual^T z / sum_u |z_u|^2; no step when every z is zero."""
        norm = np.vdot(z, z)
        if norm > 0.0:
            self.output_weights += (residual * (self.learning_rate / norm)).T @ z

    def predict(self, contexts):
        """Advance every state on its context row; (U, N) projected predictions."""
        x = _checked(contexts, (len(self.state), self.input_weights.shape[1]), "contexts")
        self._advance(x)
        self._readout = self._readouts(x)
        return project_to_simplex(self._readout[1])

    def train_step(self, observed):
        """One normalized readout step on the raw residuals of the last predict."""
        if self._readout is None:
            raise ConfigurationError("train_step needs a predict first")
        z, raw = self._readout
        observed = _checked(observed, raw.shape, "observed distributions")
        self._readout = None
        self._learn(z, observed - raw)


class ContentEsn:
    """Echo-state predictor for one user's content-request distribution.

    The one-user ContentEsnBank: W_in and the cycle weights are drawn from
    `seed` in that order, and the readout starts at zero.

    Parameters
    ----------
    n_contents : catalog size (output dimension).
    n_features : context vector length (default 7).
    n_reservoir : reservoir units.
    learning_rate : normalized gradient step of the online readout update,
        stable in (0, 2).

    The modulus of every cycle weight, which is the reservoir's spectral
    radius, is the module constant SPECTRAL_RADIUS.
    """

    def __init__(self, n_contents, n_features=CONTEXT_FEATURES, n_reservoir=100,
                 learning_rate=0.01, seed=0):
        self._bank = ContentEsnBank(n_contents, 1, seed, n_features=n_features,
                                    n_reservoir=n_reservoir, learning_rate=learning_rate)

    @property
    def input_weights(self):
        return self._bank.input_weights

    @property
    def reservoir_weights(self):
        return self._bank.reservoir_weights

    @property
    def output_weights(self):
        return self._bank.output_weights

    @property
    def state(self):
        return self._bank.state[0]

    @state.setter
    def state(self, value):
        self._bank.state = _checked(value, self.state.shape, "state")[None].copy()

    def set_weights(self, input_weights=None, reservoir_weights=None, output_weights=None):
        """Override W_in (N_w, K), the cycle weights (N_w,) or W_out (N, N_w + K)
        (tests and hand-built instances)."""
        bank = self._bank
        if input_weights is not None:
            bank.input_weights = _checked(input_weights, bank.input_weights.shape,
                                          "input_weights")
        if reservoir_weights is not None:
            bank.reservoir_weights = _checked(reservoir_weights, bank.reservoir_weights.shape,
                                              "reservoir_weights")
        if output_weights is not None:
            bank.output_weights[:] = _checked(output_weights, bank.output_weights.shape,
                                              "output_weights")

    def state_update(self, x):
        """Advance the reservoir: state <- tanh(C@state + W_in@x), C the cycle matrix."""
        x = _checked(x, self.input_weights.shape[1:], "context vector")
        return self._bank._advance(x[None])[0]

    def raw_output(self, x):
        x = _checked(x, self.input_weights.shape[1:], "context vector")
        return self._bank._readouts(x[None])[1][0]

    def predict(self, x):
        """Request distribution for context x (state already updated)."""
        return project_to_simplex(self.raw_output(x))

    def train_step(self, x, observed):
        """One normalized readout step against the observed distribution.

        The update uses the raw (pre-projection) residual; the returned error
        is the L1 distance between the observed and the projected prediction.
        """
        x = _checked(x, self.input_weights.shape[1:], "context vector")
        observed = require_distribution(
            _checked(observed, self.output_weights.shape[:1], "observed distribution"))
        z, raw = self._bank._readouts(x[None])
        self._bank._learn(z, observed - raw)
        return float(np.abs(observed - project_to_simplex(raw[0])).sum())
