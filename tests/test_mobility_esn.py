"""Cycle reservoir construction, linear dynamics, and ridge readout."""
import numpy as np
import pytest

from crancache.errors import ConfigurationError, NumericalRankError
from crancache.esn import (LocationGrid, MobilityEsn, MobilityEsnBank, WeightDistribution,
                           build_cycle_reservoir, readout_windows, ridge_train)
from crancache.esn.mobility import CELL_PITCH_M
from crancache.seeding import rng_for


def test_cycle_matrix_w2_pointmass():
    mat = build_cycle_reservoir(2, WeightDistribution("pointmass", a=0.5), 0)
    np.testing.assert_array_equal(mat, [[0.0, 0.5], [0.5, 0.0]])


def test_cycle_matrix_w4_structure_and_rank():
    mat = build_cycle_reservoir(4, WeightDistribution("pointmass", a=0.3), 0)
    assert np.count_nonzero(mat) == 4
    assert np.linalg.matrix_rank(mat) == 4


def test_cycle_matrix_deterministic_per_seed():
    spec = WeightDistribution("symbinary", a=0.9)
    a = build_cycle_reservoir(10, spec, 42)
    b = build_cycle_reservoir(10, spec, 42)
    np.testing.assert_array_equal(a, b)
    c = build_cycle_reservoir(10, spec, 43)
    assert not np.array_equal(a, c)


def test_cycle_matrix_one_nonzero_per_row_and_column():
    rng = np.random.default_rng(0)
    for _ in range(10):
        W = int(rng.integers(1, 20))
        mat = build_cycle_reservoir(W, WeightDistribution("uniform", lo=0.1, hi=0.9), rng)
        nz = mat != 0
        assert nz.sum() == W
        assert np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1)


def test_zero_units_rejected():
    with pytest.raises(ConfigurationError):
        build_cycle_reservoir(0, WeightDistribution("pointmass", a=0.5), 0)


def test_weight_distribution_support_validation():
    with pytest.raises(ConfigurationError):
        WeightDistribution("pointmass", a=1.0)
    with pytest.raises(ConfigurationError):
        WeightDistribution("uniform", lo=-1.2, hi=0.5)
    with pytest.raises(ConfigurationError):
        WeightDistribution("gauss", a=0.5)


def test_state_update_zero_is_fixed_point():
    esn = MobilityEsn(3, WeightDistribution("pointmass", a=0.5), 2, seed=0)
    esn.state_update(0.0)
    np.testing.assert_array_equal(esn.state, np.zeros(3))


def test_two_step_hand_recurrence():
    esn = MobilityEsn(2, WeightDistribution("pointmass", a=0.5), 1, seed=0)
    esn.input_weights = np.array([1.0, 1.0])
    esn.state_update(1.0)
    esn.state_update(1.0)
    np.testing.assert_allclose(esn.state, [1.5, 1.5])


def test_constant_input_geometric_norm_bound():
    rng = np.random.default_rng(4)
    for w_val, m in [(0.5, 2.0), (0.9, 1.0), (-0.7, 3.0)]:
        esn = MobilityEsn(5, WeightDistribution("pointmass", a=w_val), 2, seed=1)
        esn.input_weights = rng.uniform(-1, 1, 5)
        bound = np.linalg.norm(esn.input_weights) * abs(m) / (1 - abs(w_val))
        for _ in range(300):
            esn.state_update(m)
            assert np.linalg.norm(esn.state) <= bound + 1e-9


def test_predict_zero_state_and_untrained_readout():
    esn = MobilityEsn(4, WeightDistribution("pointmass", a=0.5), 3, seed=0)
    np.testing.assert_array_equal(esn.predict(), np.zeros(3))
    esn.state_update(7.0)
    np.testing.assert_array_equal(esn.predict(), np.zeros(3))  # untrained = zeros


def test_identity_readout_returns_state():
    esn = MobilityEsn(3, WeightDistribution("pointmass", a=0.5), 3, seed=0)
    esn.output_weights = np.eye(3)
    esn.state_update(2.0)
    np.testing.assert_allclose(esn.predict(), esn.state)


def test_periodic_trace_reproduced_within_tolerance():
    # period 5 below the W=8 memory capacity ~ 7.18; tiny ridge for stability
    W, period, horizon = 8, 5, 3
    esn = MobilityEsn(W, WeightDistribution("pointmass", a=0.9), horizon,
                      ridge_lambda=1e-3, seed=2)
    rng = np.random.default_rng(3)
    pattern = rng.integers(0, 100, size=period).astype(float)
    n = 600
    codes = np.tile(pattern, n // period + 2)[: n + horizon]
    states = esn.drive(codes[:n])
    rows = range(300, n - horizon)  # zero-state transient decays as 0.9^t
    v = states[list(rows)].T
    s = np.stack([codes[j + 1: j + 1 + horizon] for j in rows], axis=1)
    esn.train(v, s)
    pred = esn.output_weights @ states[n - horizon - 1]
    truth = codes[n - horizon: n]
    np.testing.assert_allclose(pred, truth, atol=1e-6)


def test_ridge_exact_interpolation_square_full_rank():
    rng = np.random.default_rng(5)
    v = rng.normal(size=(4, 4))
    s = rng.normal(size=(2, 4))
    w = ridge_train(v, s, 0.0)
    np.testing.assert_allclose(w @ v, s, atol=1e-8)


def test_ridge_one_by_one_system():
    w = ridge_train(np.array([[2.0]]), np.array([[4.0]]), 0.0)
    np.testing.assert_allclose(w, [[2.0]])


def test_ridge_matches_normal_equation_oracle():
    v = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, -1.0]])  # W=2, N_tr=3
    s = np.array([[1.0, 0.0, 2.0]])
    lam = 0.5
    oracle = s @ v.T @ np.linalg.inv(v @ v.T + lam ** 2 * np.eye(2))
    np.testing.assert_allclose(ridge_train(v, s, lam), oracle, atol=1e-12)


def test_ridge_rank_deficient_at_zero_lambda_raises():
    v = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    s = np.array([[1.0, 1.0]])
    with pytest.raises(NumericalRankError):
        ridge_train(v, s, 0.0)


def test_stacked_ridge_equals_per_user_calls():
    rng = np.random.default_rng(12)
    for _ in range(40):
        users, width, horizon = (int(v) for v in rng.integers(1, 6, size=3))
        n_pairs = int(rng.integers(1, 30))
        lam = float(rng.choice([0.0, 0.1, 0.5])) if n_pairs >= width else 0.5
        states = rng.normal(size=(users, width, n_pairs))
        targets = rng.normal(size=(users, horizon, n_pairs))
        stacked = ridge_train(states, targets, lam)
        assert stacked.shape == (users, horizon, width)
        for u in range(users):
            assert np.array_equal(stacked[u], ridge_train(states[u], targets[u], lam))


def test_stacked_ridge_with_one_rank_deficient_member_raises_at_zero_lambda():
    rng = np.random.default_rng(13)
    states = rng.normal(size=(3, 2, 5))
    states[1, 1] = 2.0 * states[1, 0]  # member 1 has rank 1
    targets = rng.normal(size=(3, 1, 5))
    with pytest.raises(NumericalRankError):
        ridge_train(states, targets, 0.0)
    ridge_train(states, targets, 0.5)  # ridge keeps every member solvable


@pytest.mark.parametrize("n_obs, horizon, max_pairs", [
    (600, 3, 50), (20, 3, 100), (4, 3, 10), (30, 1, 7)])
def test_readout_windows_match_per_pair_windows(n_obs, horizon, max_pairs):
    rng = np.random.default_rng(n_obs + horizon)
    # one trace, as the sweep pairs it, and three users' traces, as the bank does
    for lead in ((), (3,)):
        states = rng.normal(size=(n_obs, *lead, 5))
        codes = rng.integers(0, 400, size=(n_obs + horizon, *lead)).astype(float)
        got_states, got_targets = readout_windows(states, codes, horizon, max_pairs)
        n_complete = n_obs - horizon
        lo = max(0, n_complete - max_pairs)
        want_states = np.moveaxis(states[lo:n_complete], 0, -1)
        want_targets = np.stack([codes[j + 1: j + 1 + horizon] for j in range(lo, n_complete)],
                                axis=-1)
        want_targets = np.moveaxis(want_targets, 0, -2)
        assert np.array_equal(got_states, want_states)
        assert np.array_equal(got_targets, want_targets)
        assert got_states.flags.c_contiguous and got_targets.flags.c_contiguous
    with pytest.raises(ConfigurationError):
        readout_windows(states[:horizon], codes, horizon, max_pairs)


def test_drive_matches_stepwise_updates():
    esn_a = MobilityEsn(6, WeightDistribution("uniform", lo=0.2, hi=0.8), 2, seed=9)
    esn_b = MobilityEsn(6, WeightDistribution("uniform", lo=0.2, hi=0.8), 2, seed=9)
    codes = np.arange(10, dtype=float)
    states = esn_a.drive(codes)
    for c in codes:
        esn_b.state_update(c)
    np.testing.assert_allclose(states[-1], esn_b.state, rtol=1e-12)


def test_location_grid_roundtrip_within_cell():
    grid = LocationGrid(1000.0)
    rng = np.random.default_rng(8)
    for _ in range(100):
        r = 999.0 * np.sqrt(rng.random())
        ang = rng.uniform(0, 2 * np.pi)
        x, y = r * np.cos(ang), r * np.sin(ang)
        cx, cy = grid.decode(grid.encode(x, y))
        assert abs(cx - x) <= 25.0 + 1e-9 and abs(cy - y) <= 25.0 + 1e-9
    assert grid.n_cells == 40 * 40


class ReferenceTracker:
    """One user's per-ESN tracker, as the simulator ran it before the bank."""

    def __init__(self, esn, grid, horizon):
        self.esn, self.grid, self.horizon = esn, grid, horizon
        self.codes, self.states = [], []
        self.latest_prediction = None

    def observe(self, position):
        code = int(self.grid.encode(position[0], position[1]))
        self.codes.append(float(code))
        self.states.append(self.esn.state_update(code).copy())
        if self.esn.output_weights.any():
            self.latest_prediction = self.esn.predict()

    def retrain(self, max_pairs):
        n_complete = len(self.codes) - self.horizon
        if n_complete < 1:
            return
        lo = max(0, n_complete - max_pairs)
        states = np.stack(self.states[lo:n_complete], axis=1)
        targets = np.stack(
            [self.codes[j + 1: j + 1 + self.horizon] for j in range(lo, n_complete)], axis=1)
        self.esn.train(states, targets)


def test_bank_equals_per_user_esns_over_retrain_windows():
    U, W, horizon, max_pairs, period = 5, 7, 3, 12, 6
    spec = WeightDistribution("symbinary", a=0.9)
    grid = LocationGrid(1000.0)
    rng = np.random.default_rng(11)
    n_obs = 70
    # periodic tracks with jitter, some points on the disk edge and outside it
    base = rng.uniform(-1100.0, 1100.0, size=(period, U, 2))
    tracks = np.tile(base, (n_obs // period + 1, 1, 1))[:n_obs]
    tracks += rng.normal(scale=30.0, size=tracks.shape)
    bank = MobilityEsnBank(W, spec, horizon, [rng_for(5, "mobility_esn", u) for u in range(U)],
                           grid, n_observations=n_obs, ridge_lambda=0.5)
    refs = [ReferenceTracker(MobilityEsn(W, spec, horizon, ridge_lambda=0.5,
                                         seed=rng_for(5, "mobility_esn", u)), grid, horizon)
            for u in range(U)]
    retrains = 0
    for k in range(n_obs):
        bank.observe(tracks[k])
        for u, ref in enumerate(refs):
            ref.observe(tracks[k, u])
        assert np.array_equal(bank.state, np.stack([r.esn.state for r in refs]))
        users, positions = bank.predicted_positions()
        expected = [u for u, r in enumerate(refs) if r.latest_prediction is not None]
        assert users.tolist() == expected
        for u, pos in zip(users, positions):
            assert np.array_equal(bank.prediction[u], refs[u].latest_prediction[0])
            assert tuple(pos) == tuple(grid.decode(refs[u].latest_prediction[0]))
        if (k + 1) % 15 == 0:
            bank.retrain(max_pairs)
            for ref in refs:
                ref.retrain(max_pairs)
            assert np.array_equal(bank.readouts.transpose(0, 2, 1),
                                  np.stack([r.esn.output_weights for r in refs]))
            retrains += 1
    assert retrains >= 3 and bank.has_prediction.all()
    assert np.array_equal(bank.codes, np.array([r.codes for r in refs]).T)


def test_location_grid_codes_arrays_like_scalars():
    grid = LocationGrid(1000.0)
    rng = np.random.default_rng(2)
    xy = rng.uniform(-1200.0, 1200.0, size=(500, 2))
    codes = grid.encode(xy[:, 0], xy[:, 1])
    last = grid.n_cols - 1
    for (x, y), code in zip(xy, codes):
        col = int(min(max((x + grid.radius) // CELL_PITCH_M, 0), last))
        row = int(min(max((y + grid.radius) // CELL_PITCH_M, 0), last))
        assert code == row * grid.n_cols + col
    # predicted codes are reals: halves round to even, out-of-range codes clamp
    reals = np.concatenate([rng.uniform(-50.0, grid.n_cells + 50.0, 500),
                            np.arange(-3, 12) + 0.5])
    xs, ys = grid.decode(reals)
    for value, x, y in zip(reals, xs, ys):
        code = min(max(round(float(value)), 0), grid.n_cells - 1)
        row, col = divmod(code, grid.n_cols)
        assert (x, y) == (-grid.radius + (col + 0.5) * CELL_PITCH_M,
                          -grid.radius + (row + 0.5) * CELL_PITCH_M)
