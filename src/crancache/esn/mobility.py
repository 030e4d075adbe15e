"""Minimum-complexity cycle-reservoir predictor for periodic user positions.

State updates are linear (no nonlinearity): v <- W v + W_in m, where W is a
weighted cyclic permutation (row i carries its weight in column (i-1) mod W).
The readout is trained offline by ridge regression on a window of collected
states; positions enter and leave as scalar location codes (indices into a
discretized grid over the coverage disk).
"""
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .._kernels import cycle_drive
from ..errors import ConfigurationError, NumericalRankError
from ..seeding import as_rng


@dataclass(frozen=True)
class WeightDistribution:
    """Distribution of the cycle weights; support must lie inside (-1, 1).

    kind: "pointmass" (constant a), "symbinary" (+/- a equiprobable), or
    "uniform" (on [lo, hi]).
    """
    kind: str
    a: float = 0.0
    lo: float = 0.0
    hi: float = 0.0

    def __post_init__(self):
        if self.kind == "pointmass":
            if not abs(self.a) < 1.0:
                raise ConfigurationError("pointmass weight must satisfy |a| < 1")
        elif self.kind == "symbinary":
            if not abs(self.a) < 1.0:
                raise ConfigurationError("symbinary weight must satisfy |a| < 1")
        elif self.kind == "uniform":
            if not (self.lo < self.hi and abs(self.lo) < 1.0 and abs(self.hi) < 1.0):
                raise ConfigurationError("uniform support must satisfy -1 < lo < hi < 1")
        else:
            raise ConfigurationError(f"unknown weight distribution kind {self.kind!r}")

    def sample(self, rng, n):
        if self.kind == "pointmass":
            return np.full(n, self.a)
        if self.kind == "symbinary":
            return self.a * rng.choice([-1.0, 1.0], size=n)
        return rng.uniform(self.lo, self.hi, size=n)

    def moment(self, order):
        """E[w^order] in closed form."""
        if order == 0:
            return 1.0
        if self.kind == "pointmass":
            return self.a ** order
        if self.kind == "symbinary":
            return self.a ** order if order % 2 == 0 else 0.0
        num = self.hi ** (order + 1) - self.lo ** (order + 1)
        return num / ((order + 1) * (self.hi - self.lo))

    @property
    def max_abs(self):
        if self.kind == "uniform":
            return max(abs(self.lo), abs(self.hi))
        return abs(self.a)

    @property
    def is_zero_mean(self):
        if self.kind == "symbinary":
            return True
        if self.kind == "uniform":
            return self.lo == -self.hi
        return self.a == 0.0

    @property
    def is_strictly_positive(self):
        if self.kind == "pointmass":
            return self.a > 0.0
        if self.kind == "uniform":
            return self.lo > 0.0
        return False


def build_cycle_reservoir(n_units, spec, seed):
    """Cycle matrix with weights drawn from `spec`; deterministic per seed."""
    if n_units < 1:
        raise ConfigurationError("reservoir needs at least one unit")
    rng = as_rng(seed)
    weights = spec.sample(rng, n_units)
    mat = np.zeros((n_units, n_units))
    rows = np.arange(n_units)
    mat[rows, (rows - 1) % n_units] = weights
    return mat


def ridge_train(states, targets, ridge_lambda):
    """Ridge readout: W_out = S V^T (V V^T + lambda^2 I)^-1, solved by factorization.

    `states` is W x N_tr (columns are per-step reservoir states), `targets` is
    N_s x N_tr. At lambda = 0 a rank-deficient state matrix raises
    NumericalRankError instead of returning a garbage solve.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if states.shape[1] != targets.shape[1]:
        raise ConfigurationError("states and targets must share the window length")
    if states.shape[1] < 1:
        raise ConfigurationError("training window is empty")
    n_units = states.shape[0]
    gram = states @ states.T + (ridge_lambda ** 2) * np.eye(n_units)
    if ridge_lambda == 0.0 and np.linalg.matrix_rank(states) < n_units:
        raise NumericalRankError("state matrix is rank-deficient and lambda = 0")
    rhs = states @ targets.T
    try:
        solution = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalRankError(str(exc)) from exc
    return solution.T


class MobilityEsn:
    """Cycle-reservoir ESN predicting the next `horizon` location codes."""

    def __init__(self, n_units, weight_spec, horizon, ridge_lambda=0.5, seed=0):
        if n_units < 1 or horizon < 1:
            raise ConfigurationError("n_units and horizon must be >= 1")
        rng = as_rng(seed)
        self.n_units = n_units
        self.horizon = horizon
        self.ridge_lambda = float(ridge_lambda)
        self.cycle_weight_spec = weight_spec
        self.reservoir_weights = build_cycle_reservoir(n_units, weight_spec, rng)
        self.input_weights = rng.uniform(-1.0, 1.0, n_units)
        self.output_weights = np.zeros((horizon, n_units))
        self.state = np.zeros(n_units)

    @property
    def cycle_weights(self):
        rows = np.arange(self.n_units)
        return self.reservoir_weights[rows, (rows - 1) % self.n_units]

    def state_update(self, code):
        """Linear state advance for one observed location code."""
        self.drive([code])
        return self.state

    def drive(self, codes):
        """Feed a whole code sequence; returns the (T, W) state trajectory."""
        codes = np.asarray(codes, dtype=np.float64)
        states = cycle_drive(self.cycle_weights, self.input_weights, codes, self.state)
        if len(codes):
            self.state = states[-1].copy()
        return states

    def predict(self):
        """Next `horizon` location codes; zeros while the readout is untrained."""
        return self.output_weights @ self.state

    def train(self, states, targets):
        """Ridge-fit the readout on a collected window (states W x N_tr)."""
        self.output_weights = ridge_train(states, targets, self.ridge_lambda)
        return self.output_weights


class LocationGrid:
    """Row-major discretization of the coverage disk into square cells.

    The mobility ESN consumes scalar inputs, so positions are encoded as the
    index of their grid cell (pitch defaults to 50 m on a radius-r disk).
    """

    def __init__(self, radius, pitch=50.0):
        if radius <= 0 or pitch <= 0:
            raise ConfigurationError("radius and pitch must be positive")
        self.radius = float(radius)
        self.pitch = float(pitch)
        self.n_cols = int(np.ceil(2.0 * radius / pitch))
        self.n_cells = self.n_cols * self.n_cols

    def encode(self, x, y):
        """Cell code of each position; x and y are scalars or equal-shape arrays."""
        last = self.n_cols - 1
        col = np.clip((np.asarray(x, dtype=np.float64) + self.radius) // self.pitch, 0, last)
        row = np.clip((np.asarray(y, dtype=np.float64) + self.radius) // self.pitch, 0, last)
        return (row * self.n_cols + col).astype(np.int64)

    def decode(self, code):
        """(x, y) of the cell centre nearest each code; codes round half to even."""
        code = np.clip(np.rint(np.asarray(code, dtype=np.float64)), 0, self.n_cells - 1)
        row, col = np.divmod(code.astype(np.int64), self.n_cols)
        x = -self.radius + (col + 0.5) * self.pitch
        y = -self.radius + (row + 0.5) * self.pitch
        return x, y


class MobilityEsnBank:
    """The mobility ESNs of U users, stepped as one stacked cycle drive.

    User u's reservoir and input weights are those of a `MobilityEsn` seeded
    with `rngs[u]`. Each `observe` encodes all users' positions, drives every
    reservoir one step with a single `cycle_drive` call, and records the codes
    and states in histories preallocated for `n_observations` calls. The
    readouts are ridge-fitted per user on the same (W, n) state windows and
    (horizon, n) target windows that a lone `MobilityEsn` would be trained on.
    """

    def __init__(self, n_units, weight_spec, horizon, rngs, grid, n_observations,
                 ridge_lambda=0.5):
        esns = [MobilityEsn(n_units, weight_spec, horizon, ridge_lambda, seed=rng)
                for rng in rngs]
        n_users = len(esns)
        self.n_units = n_units
        self.horizon = horizon
        self.ridge_lambda = float(ridge_lambda)
        self.grid = grid
        self.cycle_weights = np.array([e.cycle_weights for e in esns])
        self.input_weights = np.array([e.input_weights for e in esns])
        # ridge solutions: readouts[u].T is user u's (horizon, W) output weights,
        # in the transposed layout of MobilityEsn.output_weights
        self.readouts = np.zeros((n_users, n_units, horizon))
        self.state = np.zeros((n_users, n_units))
        self.codes = np.empty((n_observations, n_users))
        self.states = np.empty((n_observations, n_users, n_units))
        self.n_observed = 0
        self.prediction = np.zeros(n_users)  # predicted next code per user
        self.has_prediction = np.zeros(n_users, dtype=bool)

    def observe(self, positions):
        """Step every user's reservoir on the codes of its (U, 2) positions.

        Users with a trained readout refresh their prediction of the next code.
        """
        k = self.n_observed
        self.codes[k] = self.grid.encode(positions[:, 0], positions[:, 1])
        self.state = cycle_drive(self.cycle_weights, self.input_weights,
                                 self.codes[k:k + 1], self.state)[0]
        self.states[k] = self.state
        self.n_observed = k + 1
        trained = self.readouts.any(axis=(1, 2))
        if trained.any():
            # one gemv per user on the layout of MobilityEsn.predict, so the same bits
            ahead = np.matmul(self.readouts[trained].transpose(0, 2, 1),
                              self.state[trained, :, None])
            self.prediction[trained] = ahead[:, 0, 0]
            self.has_prediction |= trained

    def retrain(self, max_pairs):
        """Ridge-fit each readout on the latest <= max_pairs completed pairs."""
        n_complete = self.n_observed - self.horizon
        if n_complete < 1:
            return
        lo = max(0, n_complete - max_pairs)
        # (U, W, n) states and (U, horizon, n) targets, C-contiguous per user
        states = np.ascontiguousarray(self.states[lo:n_complete].transpose(1, 2, 0))
        ahead = sliding_window_view(self.codes[lo + 1:n_complete + self.horizon],
                                    self.horizon, axis=0)
        targets = np.ascontiguousarray(ahead.transpose(1, 2, 0))
        for u in range(len(states)):
            self.readouts[u] = ridge_train(states[u], targets[u], self.ridge_lambda).T

    def predicted_positions(self):
        """(users, (k, 2) positions) for the users holding a prediction."""
        users = np.flatnonzero(self.has_prediction)
        x, y = self.grid.decode(self.prediction[users])
        return users, np.column_stack((x, y))
