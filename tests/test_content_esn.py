"""Content-ESN recurrence, simplex projection, online training, and the bank."""
import functools
import math

import numpy as np
import pytest

from crancache.errors import ConfigurationError
from crancache.esn import ContentEsn, ContentEsnBank, content, project_to_simplex


def tiny_esn(n_contents=3, n_features=1, n_reservoir=2, lr=0.1, seed=0):
    esn = ContentEsn(n_contents=n_contents, n_features=n_features,
                     n_reservoir=n_reservoir, learning_rate=lr, seed=seed)
    return esn


def cycle_matrix(c):
    """The dense view of cycle weights c: row i holds c[i] in column (i-1) mod N_w."""
    n = len(c)
    dense = np.zeros((n, n))
    dense[np.arange(n), (np.arange(n) - 1) % n] = c
    return dense


def test_zero_state_zero_input_stays_zero():
    esn = tiny_esn()
    esn.state_update(np.zeros(1))
    np.testing.assert_array_equal(esn.state, np.zeros(2))


def test_hand_evaluated_two_unit_recurrence():
    esn = tiny_esn()
    esn.set_weights(reservoir_weights=np.zeros(2),
                    input_weights=np.array([[1.0], [1.0]]))
    esn.state_update(np.array([0.5]))
    np.testing.assert_allclose(esn.state, [math.tanh(0.5)] * 2)
    np.testing.assert_allclose(esn.state, [0.46211715726] * 2, atol=1e-9)


def test_zero_input_norm_decays_monotonically():
    # a normal matrix with spectral radius 0.9 contracts every step:
    # |tanh(Cv)| <= |Cv| = 0.9 |v|; a cycle of weights +/- 0.9 is 0.9 times
    # a signed cyclic permutation, so it is normal
    rng = np.random.default_rng(7)
    esn = ContentEsn(n_contents=4, n_reservoir=30, seed=3)
    esn.set_weights(reservoir_weights=0.9 * rng.choice([-1.0, 1.0], size=30))
    esn.state = rng.uniform(-1, 1, 30)
    norms = []
    for _ in range(50):
        esn.state_update(np.zeros(7))
        norms.append(np.linalg.norm(esn.state))
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert norms[-1] < norms[0] * 0.1


def test_contraction_below_tol_within_1000_steps():
    for seed in range(3):
        esn = ContentEsn(n_contents=4, n_reservoir=40, seed=seed)
        rng = np.random.default_rng(seed)
        esn.state = rng.uniform(-1, 1, 40)
        for _ in range(1000):
            esn.state_update(np.zeros(7))
            if np.linalg.norm(esn.state) < 1e-6:
                break
        assert np.linalg.norm(esn.state) < 1e-6


def test_construction_spectral_radius_below_one():
    """Every eigenvalue of the cycle has modulus SPECTRAL_RADIUS; N_w = 1 is a
    self-loop."""
    assert content.SPECTRAL_RADIUS < 1.0
    for n_reservoir in (1, 2, 60):
        for seed in range(4):
            esn = ContentEsn(n_contents=5, n_reservoir=n_reservoir, seed=seed)
            assert esn.reservoir_weights.shape == (n_reservoir,)
            moduli = np.abs(np.linalg.eigvals(cycle_matrix(esn.reservoir_weights)))
            np.testing.assert_allclose(moduli, content.SPECTRAL_RADIUS, rtol=0, atol=1e-12)
            assert esn.state.shape == (n_reservoir,)
            assert esn.output_weights.shape == (5, n_reservoir + 7)


def test_state_entries_inside_open_interval():
    esn = ContentEsn(n_contents=3, n_reservoir=20, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        esn.state_update(rng.uniform(0, 1, 7))
        assert np.all(esn.state > -1.0) and np.all(esn.state < 1.0)


def test_dimension_mismatch_is_configuration_error():
    esn = tiny_esn()
    with pytest.raises(ConfigurationError):
        esn.state_update(np.zeros(4))
    with pytest.raises(ConfigurationError):
        esn.set_weights(output_weights=np.zeros((3, 5)))


def test_train_step_rejects_a_non_finite_observation():
    """A NaN observation passed the distribution check (no entry below 0, a
    sum not provably off 1) and turned every readout entry NaN."""
    esn = tiny_esn()
    esn.state_update(np.array([0.5]))
    for bad in (np.array([np.nan, 0.5, 0.5]), np.array([np.inf, 0.0, 0.0])):
        with pytest.raises(ConfigurationError, match="non-finite"):
            esn.train_step(np.array([0.5]), bad)
    assert not esn.output_weights.any()
    esn.train_step(np.array([0.5]), np.array([0.2, 0.3, 0.5]))
    assert np.all(np.isfinite(esn.output_weights)) and esn.output_weights.any()


@pytest.mark.parametrize("name", ["input_weights", "reservoir_weights", "output_weights",
                                  "state"])
def test_set_weights_and_state_reject_non_finite_arrays(name):
    esn = tiny_esn()
    before = getattr(esn, name).copy()
    for bad in (np.nan, np.inf):
        value = np.full(before.shape, bad)
        with pytest.raises(ConfigurationError, match="non-finite"):
            if name == "state":
                esn.state = value
            else:
                esn.set_weights(**{name: value})
        np.testing.assert_array_equal(getattr(esn, name), before)


def test_predict_zero_weights_gives_uniform():
    esn = tiny_esn()
    esn.set_weights(output_weights=np.zeros((3, 3)))
    esn.state_update(np.array([0.2]))
    np.testing.assert_allclose(esn.predict(np.array([0.2])), np.full(3, 1 / 3))


def test_predict_one_hot_readout_row():
    esn = tiny_esn()
    w = np.zeros((3, 3))
    w[1, 0] = 1.0  # row for content 2 picks state entry 1
    esn.set_weights(output_weights=w,
                    reservoir_weights=np.zeros(2),
                    input_weights=np.array([[5.0], [0.0]]))
    esn.state_update(np.array([1.0]))  # state ~ [tanh 5, 0]
    pred = esn.predict(np.array([1.0]))
    np.testing.assert_allclose(pred, [0.0, 1.0, 0.0])


def test_clamp_and_renormalize_example():
    np.testing.assert_allclose(project_to_simplex(np.array([0.2, -0.1, 0.3])),
                               [0.4, 0.0, 0.6])


def test_simplex_property_on_random_raw_outputs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = project_to_simplex(rng.normal(size=rng.integers(1, 20)))
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-9


def test_train_zero_residual_leaves_weights_unchanged():
    esn = tiny_esn(n_contents=2)
    esn.set_weights(reservoir_weights=np.zeros(2),
                    input_weights=np.array([[1.0], [1.0]]))
    esn.state_update(np.array([0.5]))
    # make the raw output equal a valid distribution, then observe exactly it
    z = np.concatenate([esn.state, [0.5]])
    w = np.zeros((2, 3))
    w[0] = np.array([0.3, 0.0, 0.0]) / z[0]
    w[1] = np.array([0.0, 0.7 / z[1], 0.0])
    esn.set_weights(output_weights=w)
    before = esn.output_weights.copy()
    err = esn.train_step(np.array([0.5]), np.array([0.3, 0.7]))
    assert err == 0.0
    np.testing.assert_allclose(esn.output_weights, before)


def test_train_single_step_outer_product_arithmetic():
    esn = ContentEsn(n_contents=1, n_features=1, n_reservoir=1,
                     learning_rate=0.1, seed=0)
    esn.set_weights(output_weights=np.array([[0.5, 0.0]]))
    esn.state = np.array([1.0])
    esn.train_step(np.array([0.0]), np.array([1.0]))
    np.testing.assert_allclose(esn.output_weights, [[0.55, 0.0]])


@pytest.mark.parametrize("lr", [0.001, 0.01, 0.03])
def test_online_error_decays_on_stationary_mapping(lr):
    for seed in range(3):
        esn = ContentEsn(n_contents=10, n_reservoir=50, learning_rate=lr, seed=seed)
        rng = np.random.default_rng(seed + 100)
        x = rng.uniform(0, 1, 7)
        target = rng.dirichlet(np.ones(10))
        errs = []
        for _ in range(50):
            esn.state_update(x)
            errs.append(esn.train_step(x, target))
        assert np.mean(errs[39:50]) < np.mean(errs[0:10])



# ---- the bank: one shared reservoir and readout, a state per user --------

def rounds(users, n_contents, count, seed=5):
    """`count` (contexts, observed distributions) pairs for a bank of `users`."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.0, 1.0, (users, 7)), rng.dirichlet(np.ones(n_contents), size=users))
            for _ in range(count)]


@pytest.mark.parametrize("users", [1, 3, 32])
def test_bank_shapes_and_zero_readout_whatever_the_user_count(users):
    bank = ContentEsnBank(9, users, 4, n_reservoir=40)
    assert bank.reservoir_weights.shape == (40,)
    assert bank.input_weights.shape == (40, 7)
    assert np.array_equal(bank.output_weights, np.zeros((9, 47)))
    assert bank.state.shape == (users, 40)


def test_bank_steps_the_content_esn_equations():
    """Per user: s <- tanh(C s + W_in x), C the dense view of the cycle
    weights, and raw = W_out [s; x]; then one
    pooled step W_out <- W_out + lr sum_u (observed_u - raw_u) z_u^T / sum_u |z_u|^2,
    written out per user as reference."""
    users, n_contents, lr = 3, 6, 0.5
    bank = ContentEsnBank(n_contents, users, 3, n_reservoir=12, learning_rate=lr)
    w, w_in = cycle_matrix(bank.reservoir_weights), bank.input_weights.copy()
    assert not np.array_equal(w, w.T)  # not symmetric: a roll the wrong way would show
    w_out, state = bank.output_weights.copy(), bank.state.copy()
    close = functools.partial(np.testing.assert_allclose, rtol=0, atol=1e-12)
    for x, observed in rounds(users, n_contents, 4):
        predictions = bank.predict(x)
        bank.train_step(observed)
        step, norm = np.zeros_like(w_out), 0.0
        for u in range(users):
            state[u] = np.tanh(w @ state[u] + w_in @ x[u])
            z = np.concatenate([state[u], x[u]])
            raw = w_out @ z
            close(predictions[u], project_to_simplex(raw))
            step += np.outer(observed[u] - raw, z)
            norm += z @ z
        w_out = w_out + lr * step / norm
        close(bank.state, state)
        close(bank.output_weights, w_out)
    assert np.abs(w_out).max() > 0.01  # the readout did learn


def test_one_user_bank_on_one_generator_is_content_esn():
    n_contents, n_reservoir = 9, 30
    esn = ContentEsn(n_contents=n_contents, n_reservoir=n_reservoir, learning_rate=0.05, seed=8)
    # ContentEsn draws W_in and then the signs of the cycle weights from its
    # seed, in that order
    rng = np.random.default_rng(8)
    w_in = rng.uniform(-1.0, 1.0, (n_reservoir, 7))
    w = 0.9 * rng.choice([-1.0, 1.0], size=n_reservoir)
    bank = ContentEsnBank(n_contents, 1, np.random.default_rng(8), n_reservoir=n_reservoir,
                          learning_rate=0.05)
    for weights in (esn, bank):
        assert np.array_equal(weights.input_weights, w_in)
        assert np.array_equal(weights.reservoir_weights, w)
        assert np.array_equal(weights.output_weights, np.zeros((n_contents, n_reservoir + 7)))
    for x, observed in rounds(1, n_contents, 6):
        predictions = bank.predict(x)
        bank.train_step(observed)
        assert np.array_equal(esn.state_update(x[0]), bank.state[0])
        assert np.array_equal(esn.predict(x[0]), predictions[0])
        esn.train_step(x[0], observed[0])
        assert np.array_equal(esn.output_weights, bank.output_weights)


def test_bank_rejects_bad_contexts_and_unpaired_training():
    with pytest.raises(ConfigurationError):
        ContentEsnBank(4, 0, 0, n_reservoir=6)
    bank = ContentEsnBank(4, 2, 0, n_reservoir=6)
    with pytest.raises(ConfigurationError):
        bank.train_step(np.full((2, 4), 0.25))  # no predict yet
    with pytest.raises(ConfigurationError):
        bank.predict(np.zeros((3, 7)))
    with pytest.raises(ConfigurationError):
        bank.predict(np.full((2, 7), np.nan))
    bank.predict(np.zeros((2, 7)))
    with pytest.raises(ConfigurationError):
        bank.train_step(np.full((2, 5), 0.2))


def test_bank_train_step_rejects_non_finite_observations():
    bank = ContentEsnBank(4, 2, 0, n_reservoir=6)
    bank.predict(np.full((2, 7), 0.5))
    observed = np.full((2, 4), 0.25)
    for bad in (np.nan, np.inf):
        observed[1, 2] = bad
        with pytest.raises(ConfigurationError, match="non-finite"):
            bank.train_step(observed)
    assert not bank.output_weights.any()
    observed[1, 2] = 0.25
    bank.train_step(observed)  # the rejected step left the predict to train on
    assert np.all(np.isfinite(bank.output_weights)) and bank.output_weights.any()


def test_zero_readout_input_takes_no_step():
    """All-zero states and contexts carry no direction to step along."""
    bank = ContentEsnBank(4, 2, 0, n_reservoir=6)
    np.testing.assert_array_equal(bank.predict(np.zeros((2, 7))), np.full((2, 4), 0.25))
    bank.train_step(np.eye(4)[:2])
    assert not bank.output_weights.any()


def test_normalized_step_keeps_the_readout_finite_near_its_stability_bound():
    """lambda_alpha = 1.95 at |z|^2 of about 20: an un-normalized step
    (lambda_alpha |z|^2 far above 2) overflows within a few hundred steps.
    The normalized step keeps the readout finite over thousands of one-hot
    targets, with overflow and invalid operations raising."""
    users, n_contents, lr = 4, 5, 1.95
    bank = ContentEsnBank(n_contents, users, 0, n_reservoir=64, learning_rate=lr)
    rng = np.random.default_rng(1)
    observed = np.zeros((users, n_contents))
    smallest_gain = math.inf
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for _ in range(3000):
            bank.predict(rng.uniform(0.0, 1.0, (users, 7)))
            z = bank._readout[0]
            smallest_gain = min(smallest_gain, lr * float(np.min(np.sum(z * z, axis=1))))
            observed[:] = 0.0
            observed[np.arange(users), rng.integers(0, n_contents, users)] = 1.0
            bank.train_step(observed)
    assert smallest_gain > 2.0
    assert np.all(np.isfinite(bank.output_weights))
    assert np.abs(bank.output_weights).max() < 10.0


def test_state_setter_checks_the_shape():
    esn = tiny_esn()
    with pytest.raises(ConfigurationError):
        esn.state = np.zeros(3)
