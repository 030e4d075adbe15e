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


def test_zero_state_zero_input_stays_zero():
    esn = tiny_esn()
    esn.state_update(np.zeros(1))
    np.testing.assert_array_equal(esn.state, np.zeros(2))


def test_hand_evaluated_two_unit_recurrence():
    esn = tiny_esn()
    esn.set_weights(reservoir_weights=np.zeros((2, 2)),
                    input_weights=np.array([[1.0], [1.0]]))
    esn.state_update(np.array([0.5]))
    np.testing.assert_allclose(esn.state, [math.tanh(0.5)] * 2)
    np.testing.assert_allclose(esn.state, [0.46211715726] * 2, atol=1e-9)


def test_zero_input_norm_decays_monotonically():
    # a normal matrix with spectral radius 0.9 contracts every step:
    # |tanh(Wv)| <= |Wv| = 0.9 |v|
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    esn = ContentEsn(n_contents=4, n_reservoir=30, seed=3)
    esn.set_weights(reservoir_weights=0.9 * q)
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
    for seed in range(4):
        esn = ContentEsn(n_contents=5, n_reservoir=60, seed=seed)
        radius = np.max(np.abs(np.linalg.eigvals(esn.reservoir_weights)))
        assert radius < 1.0
        assert esn.state.shape == (60,)
        assert esn.output_weights.shape == (5, 60 + 7)


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
                    reservoir_weights=np.zeros((2, 2)),
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
    esn.set_weights(reservoir_weights=np.zeros((2, 2)),
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



# ---- the bank: one shared reservoir, a state and a readout per user -------

def rounds(users, n_contents, count, seed=5):
    """`count` (contexts, observed distributions) pairs for a bank of `users`."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.0, 1.0, (users, 7)), rng.dirichlet(np.ones(n_contents), size=users))
            for _ in range(count)]


@pytest.mark.parametrize("users", [1, 3, 32])
def test_bank_solves_one_spectral_radius_whatever_the_user_count(monkeypatch, users):
    solved = []
    solve = content._spectral_radius
    monkeypatch.setattr(content, "_spectral_radius",
                        lambda w: solved.append(w.shape) or solve(w))
    bank = ContentEsnBank(9, 4, [10 + u for u in range(users)], n_reservoir=40)
    assert solved == [(40, 40)]
    assert bank.reservoir_weights.shape == (40, 40)
    assert bank.input_weights.shape == (40, 7)
    assert bank.output_weights.shape == (users, 9, 47)
    assert bank.state.shape == (users, 40)


def test_bank_steps_the_content_esn_equations():
    """Per user: s <- tanh(W s + W_in x), raw = W_out [s; x], and
    W_out <- W_out + lr (observed - raw) [s; x]^T, written out as reference."""
    users, n_contents, lr = 3, 6, 0.05
    bank = ContentEsnBank(n_contents, 3, [4, 5, 6], n_reservoir=12, learning_rate=lr)
    w, w_in = bank.reservoir_weights.copy(), bank.input_weights.copy()
    assert not np.array_equal(w, w.T)  # a transposed W would show
    w_out, state = bank.output_weights.copy(), bank.state.copy()
    close = functools.partial(np.testing.assert_allclose, rtol=0, atol=1e-12)
    for x, observed in rounds(users, n_contents, 4):
        predictions = bank.predict(x)
        bank.train_step(observed)
        for u in range(users):
            state[u] = np.tanh(w @ state[u] + w_in @ x[u])
            z = np.concatenate([state[u], x[u]])
            raw = w_out[u] @ z
            close(predictions[u], project_to_simplex(raw))
            w_out[u] = w_out[u] + lr * np.outer(observed[u] - raw, z)
        close(bank.state, state)
        close(bank.output_weights, w_out)


def test_one_user_bank_on_one_generator_is_content_esn():
    n_contents, n_reservoir = 9, 30
    esn = ContentEsn(n_contents=n_contents, n_reservoir=n_reservoir, learning_rate=0.05, seed=8)
    # ContentEsn draws W_in, the mask, W and W_out from its seed, in that order
    rng = np.random.default_rng(8)
    w_in = rng.uniform(-1.0, 1.0, (n_reservoir, 7))
    mask = rng.random((n_reservoir, n_reservoir)) < 0.1
    w = rng.uniform(-1.0, 1.0, (n_reservoir, n_reservoir)) * mask
    w_out = rng.uniform(-0.1, 0.1, (n_contents, n_reservoir + 7))
    w *= 0.9 / np.max(np.abs(np.linalg.eigvals(w)))
    shared = np.random.default_rng(8)
    bank = ContentEsnBank(n_contents, shared, [shared], n_reservoir=n_reservoir,
                          learning_rate=0.05)
    for weights in (esn, bank):
        assert np.array_equal(weights.input_weights, w_in)
        assert np.array_equal(weights.reservoir_weights, w)
    assert np.array_equal(esn.output_weights, w_out)
    assert np.array_equal(bank.output_weights[0], w_out)
    for x, observed in rounds(1, n_contents, 6):
        predictions = bank.predict(x)
        bank.train_step(observed)
        assert np.array_equal(esn.state_update(x[0]), bank.state[0])
        assert np.array_equal(esn.predict(x[0]), predictions[0])
        esn.train_step(x[0], observed[0])
        assert np.array_equal(esn.output_weights, bank.output_weights[0])


def test_bank_rejects_bad_contexts_and_unpaired_training():
    bank = ContentEsnBank(4, 0, [1, 2], n_reservoir=6)
    with pytest.raises(ConfigurationError):
        bank.train_step(np.full((2, 4), 0.25))  # no predict yet
    with pytest.raises(ConfigurationError):
        bank.predict(np.zeros((3, 7)))
    with pytest.raises(ConfigurationError):
        bank.predict(np.full((2, 7), np.nan))
    bank.predict(np.zeros((2, 7)))
    with pytest.raises(ConfigurationError):
        bank.train_step(np.full((2, 5), 0.2))


def test_state_setter_checks_the_shape():
    esn = tiny_esn()
    with pytest.raises(ConfigurationError):
        esn.state = np.zeros(3)
