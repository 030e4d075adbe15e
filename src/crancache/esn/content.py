"""Per-user recurrent predictor mapping context vectors to request distributions.

The reservoir (input weights + sparse recurrent matrix with spectral radius
below one) is fixed at construction; only the output matrix is trained, online,
by a linear gradient step on the raw readout residual. Raw readouts are not
probability vectors, so predictions are projected onto the simplex
(clamp negatives, renormalize, uniform fallback) before use.
"""
import numpy as np

from ..errors import ConfigurationError
from ..seeding import as_rng

CONTEXT_FEATURES = 7  # request time, weekday, gender, occupation, age, device, reserved


def project_to_simplex(raw):
    """Clamp negatives to zero and renormalize; uniform if nothing survives."""
    raw = np.asarray(raw, dtype=np.float64)
    p = np.clip(raw, 0.0, None)
    total = p.sum()
    if total <= 0.0:
        return np.full(raw.shape, 1.0 / raw.shape[0])
    return p / total


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
        if n_contents < 1 or n_reservoir < 1 or n_features < 1:
            raise ConfigurationError("n_contents, n_features, n_reservoir must be >= 1")
        if not 0.0 < spectral_radius < 1.0:
            raise ConfigurationError("spectral_radius must lie in (0, 1)")
        rng = as_rng(seed)
        self.n_contents = n_contents
        self.n_features = n_features
        self.n_reservoir = n_reservoir
        self.learning_rate = float(learning_rate)
        self.spectral_radius = float(spectral_radius)
        self.input_weights = rng.uniform(-1.0, 1.0, (n_reservoir, n_features))
        mask = rng.random((n_reservoir, n_reservoir)) < density
        w = rng.uniform(-1.0, 1.0, (n_reservoir, n_reservoir)) * mask
        radius = float(np.max(np.abs(np.linalg.eigvals(w)))) if n_reservoir else 0.0
        if radius > 0.0:
            w *= spectral_radius / radius
        self.reservoir_weights = w
        self.output_weights = rng.uniform(-out_scale, out_scale,
                                          (n_contents, n_reservoir + n_features))
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
