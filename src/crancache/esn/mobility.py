"""Minimum-complexity cycle-reservoir predictor for periodic user positions.

A W-unit reservoir is two weight vectors: cycle weights w and input weights
w_in. Unit i reads unit (i-1) mod W through w_i, and state updates are linear
(no nonlinearity): v_i <- w_i v_{(i-1) mod W} + w_in_i m. In matrix form this
is v <- C v + w_in m, with C the weighted cyclic permutation whose row i holds
w_i in column (i-1) mod W; C is never built. The readout is trained offline
by ridge regression on a window of collected states; positions enter and
leave as scalar location codes (indices into a discretized grid over the
coverage disk).
"""
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .._kernels import cycle_drive
from ..errors import ConfigurationError, NumericalRankError
from ..seeding import as_rng

CELL_PITCH_M = 50.0  # side of a LocationGrid cell, metres


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
        if self.kind in ("pointmass", "symbinary"):
            if not abs(self.a) < 1.0:
                raise ConfigurationError(f"{self.kind} weight must satisfy |a| < 1")
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


def _check_sizes(n_units, horizon):
    """Reject a reservoir or a prediction horizon of fewer than one unit."""
    if n_units < 1 or horizon < 1:
        raise ConfigurationError("n_units and horizon must be >= 1")


def _draw_weights(n_units, spec, seed):
    """(cycle_weights, input_weights) of one reservoir, from one generator:
    `spec` draws the cycle weights, then the input weights are uniform on [-1, 1]."""
    rng = as_rng(seed)
    return spec.sample(rng, n_units), rng.uniform(-1.0, 1.0, n_units)


def ridge_train(states, targets, ridge_lambda):
    """Ridge readout: W_out = S V^T (V V^T + lambda^2 I)^-1, solved by factorization.

    `states` is W x N_tr (columns are per-step reservoir states), `targets` is
    N_s x N_tr; leading axes stack independent fits. At lambda = 0 a rank-deficient
    state matrix raises NumericalRankError instead of returning a garbage solve.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if states.shape[-1] != targets.shape[-1]:
        raise ConfigurationError("states and targets must share the window length")
    if states.shape[-1] < 1:
        raise ConfigurationError("training window is empty")
    n_units = states.shape[-2]
    gram = states @ np.swapaxes(states, -1, -2) + (ridge_lambda ** 2) * np.eye(n_units)
    if ridge_lambda == 0.0 and np.any(np.linalg.matrix_rank(states) < n_units):
        raise NumericalRankError("state matrix is rank-deficient and lambda = 0")
    rhs = states @ np.swapaxes(targets, -1, -2)
    try:
        solution = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalRankError(str(exc)) from exc
    return np.swapaxes(solution, -1, -2)


def readout_windows(states, codes, horizon, max_pairs):
    """The latest <= max_pairs training pairs of (n, ..., W) states after n > horizon
    observed codes: state j against codes j+1..j+horizon. Returns C-contiguous
    (..., W, m) states and (..., horizon, m) targets for `ridge_train`."""
    n_complete = len(states) - horizon
    if n_complete < 1:
        raise ConfigurationError("no state has `horizon` observed codes after it")
    lo = max(0, n_complete - max_pairs)
    ahead = sliding_window_view(codes[lo + 1:n_complete + horizon], horizon, axis=0)
    return (np.ascontiguousarray(np.moveaxis(states[lo:n_complete], 0, -1)),
            np.ascontiguousarray(np.moveaxis(ahead, 0, -1)))


class MobilityEsn:
    """Cycle-reservoir ESN predicting the next `horizon` location codes."""

    def __init__(self, n_units, weight_spec, horizon, ridge_lambda=0.5, seed=0):
        _check_sizes(n_units, horizon)
        self.n_units = n_units
        self.horizon = horizon
        self.ridge_lambda = float(ridge_lambda)
        self.cycle_weights, self.input_weights = _draw_weights(n_units, weight_spec, seed)
        self.output_weights = np.zeros((horizon, n_units))
        self.state = np.zeros(n_units)

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
    index of their grid cell (CELL_PITCH_M on a side, on a radius-r disk).
    """

    def __init__(self, radius):
        if radius <= 0:
            raise ConfigurationError("radius must be positive")
        self.radius = float(radius)
        self.n_cols = int(np.ceil(2.0 * radius / CELL_PITCH_M))
        self.n_cells = self.n_cols * self.n_cols

    def encode(self, x, y):
        """Cell code of each position; x and y are scalars or equal-shape arrays."""
        last = self.n_cols - 1
        col = np.clip((np.asarray(x, dtype=np.float64) + self.radius) // CELL_PITCH_M, 0, last)
        row = np.clip((np.asarray(y, dtype=np.float64) + self.radius) // CELL_PITCH_M, 0, last)
        return (row * self.n_cols + col).astype(np.int64)

    def decode(self, code):
        """(x, y) of the cell centre nearest each code; codes round half to even."""
        code = np.clip(np.rint(np.asarray(code, dtype=np.float64)), 0, self.n_cells - 1)
        row, col = np.divmod(code.astype(np.int64), self.n_cols)
        x = -self.radius + (col + 0.5) * CELL_PITCH_M
        y = -self.radius + (row + 0.5) * CELL_PITCH_M
        return x, y


class MobilityEsnBank:
    """The mobility ESNs of U users, stepped as one stacked cycle drive.

    User u's reservoir and input weights are those of a `MobilityEsn` seeded
    with `rngs[u]`. Each `observe` encodes a block of all users' positions,
    drives every reservoir through it with a single `cycle_drive` call, and
    appends the codes and states to growing histories. `retrain` fits every
    user's readout in one `ridge_train` call, on the windows a lone
    `MobilityEsn` would be trained on, so no user or every user predicts.
    Unlike a lone `MobilityEsn`, the bank uses a fitted readout that is
    exactly zero; that needs every target code of a user's window to be 0
    (the corner cell), which a user inside the disk can reach only when
    r <= 50 sqrt(2) / (sqrt(2) - 1), about 170.7 m.
    """

    def __init__(self, n_units, weight_spec, horizon, rngs, grid, ridge_lambda=0.5):
        _check_sizes(n_units, horizon)
        weights = [_draw_weights(n_units, weight_spec, rng) for rng in rngs]
        self.horizon = horizon
        self.ridge_lambda = float(ridge_lambda)
        self.grid = grid
        self.cycle_weights, self.input_weights = map(np.array, zip(*weights))
        # (U, horizon, W) once fitted: readouts[u] is user u's output weights,
        # in the layout of MobilityEsn.output_weights
        self.readouts = None
        self.state = np.zeros((len(weights), n_units))
        self.codes = []   # one (U,) row of codes per observed sample
        self.states = []  # one (U, W) state per observed sample
        self.prediction = None  # (U,) predicted next code, from the first observe after a fit

    def observe(self, positions):
        """Step every user's reservoir on the codes of a (T, U, 2) block of positions
        and, once the readouts are fitted, refresh every user's predicted next code."""
        codes = self.grid.encode(positions[..., 0], positions[..., 1])
        states = cycle_drive(self.cycle_weights, self.input_weights, codes, self.state)
        self.codes.extend(codes)
        self.states.extend(states)
        self.state = states[-1]
        if self.readouts is not None:
            # one gemv per user on the layout of MobilityEsn.predict, so the same bits
            self.prediction = np.matmul(self.readouts, self.state[:, :, None])[:, 0, 0]

    def retrain(self, max_pairs):
        """Ridge-fit every readout on the latest <= max_pairs completed pairs."""
        if len(self.states) <= self.horizon:
            return
        states, targets = readout_windows(np.array(self.states), np.array(self.codes),
                                          self.horizon, max_pairs)
        self.readouts = ridge_train(states, targets, self.ridge_lambda)

    def predicted_positions(self):
        """(U, 2) positions of the predicted next codes, or None before the first prediction."""
        if self.prediction is None:
            return None
        return np.column_stack(self.grid.decode(self.prediction))
