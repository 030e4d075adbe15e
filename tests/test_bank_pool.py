"""The content-ESN bank at large reservoirs, and on one thread.

The bank once stepped reservoirs of 256 units and more on a thread pool; it
now steps every user with one matrix product on the calling thread. These
tests keep the cases around that size: the bank must compute what per-user
ContentEsn objects given the same weights compute, a deep copy must continue
bit for bit, and no thread but the caller's may run package code, because
the benchmark's span tracer keeps one span stack and assumes a single thread.
"""
import copy
import functools
import threading

import numpy as np
import pytest

from crancache.config import ExperimentConfig
from crancache.esn import ContentEsn, ContentEsnBank
from crancache.sim import Simulation

LARGE_RESERVOIR = 256


def rounds(users, n_contents, count, seed=5):
    """`count` (contexts, observed distributions) pairs for a bank of `users`."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.0, 1.0, (users, 7)), rng.dirichlet(np.ones(n_contents), size=users))
            for _ in range(count)]


def bank_case(n_reservoir, users, chunk_users=None):
    """A (N_w, U, users per readout-update chunk) case, named N_w-U[-chunkK]."""
    name = f"{n_reservoir}-{users}" + ("" if chunk_users is None else f"-chunk{chunk_users}")
    return pytest.param(n_reservoir, users, chunk_users, id=name)


@pytest.mark.parametrize("n_reservoir,users,chunk_users", [
    bank_case(LARGE_RESERVOIR, 1),
    bank_case(LARGE_RESERVOIR, 5),
    bank_case(LARGE_RESERVOIR - 1, 5),
    bank_case(LARGE_RESERVOIR, 5, chunk_users=2),  # chunks of 2, 2 and 1 users
])
def test_pooled_bank_matches_per_user_esns(monkeypatch, n_reservoir, users, chunk_users):
    """One user is stepped exactly as a ContentEsn; more users share one
    product S @ W.T, whose rows may differ from a per-user product in their
    last bits, so they are compared to 1e-12."""
    n_contents = 9
    if chunk_users is not None:
        monkeypatch.setattr(ContentEsnBank, "UPDATE_CHUNK_ENTRIES",
                            chunk_users * n_contents * (n_reservoir + 7))
    bank = ContentEsnBank(n_contents, 69, [70 + u for u in range(users)],
                          n_reservoir=n_reservoir, learning_rate=0.05)
    esns = []
    for u in range(users):
        esn = ContentEsn(n_contents=n_contents, n_reservoir=n_reservoir, learning_rate=0.05)
        esn.set_weights(bank.input_weights, bank.reservoir_weights, bank.output_weights[u])
        assert np.array_equal(bank.state[u], esn.state)
        esns.append(esn)
    if users == 1:
        same = np.testing.assert_array_equal
    else:
        same = functools.partial(np.testing.assert_allclose, rtol=0, atol=1e-12)
    for x, observed in rounds(users, n_contents, 3):
        predictions = bank.predict(x)
        bank.train_step(observed)
        for u, esn in enumerate(esns):
            same(esn.state_update(x[u]), bank.state[u])
            same(esn.predict(x[u]), predictions[u])
            esn.train_step(x[u], observed[u])
            same(esn.output_weights, bank.output_weights[u])


def test_deep_copied_bank_continues_bit_identically():
    users, n_contents = 5, 9
    bank = ContentEsnBank(n_contents, 89, [90 + u for u in range(users)],
                          n_reservoir=LARGE_RESERVOIR, learning_rate=0.05)
    first, *later = rounds(users, n_contents, 4, seed=11)
    bank.predict(first[0])
    bank.train_step(first[1])
    twin = copy.deepcopy(bank)
    for x, observed in later:
        assert np.array_equal(twin.predict(x), bank.predict(x))
        twin.train_step(observed)
        bank.train_step(observed)
        assert np.array_equal(twin.state, bank.state)
        assert np.array_equal(twin.output_weights, bank.output_weights)


def test_pool_workers_run_only_the_private_solver():
    """No thread but the caller's runs package code while a Simulation
    builds its bank and steps slots: not even the spectral-radius solver."""
    main = threading.get_ident()
    off_main = set()

    def record(frame, event, arg):
        if event == "call" and threading.get_ident() != main:
            off_main.add((frame.f_globals.get("__name__", ""), frame.f_code.co_qualname))

    threading.setprofile(record)
    try:
        # parameter-table defaults at a small reservoir, as the benchmark's default workload
        sim = Simulation(ExperimentConfig.default(T=60, N_w=16), "proposed", seed=0)
        for slot in range(1, 4):
            sim.run_slot(slot)
    finally:
        threading.setprofile(None)
    assert not {call for call in off_main if call[0].startswith("crancache")}
    twin = copy.deepcopy(sim)  # the benchmark runs episodes on deep copies
    assert np.array_equal(twin.content_bank.reservoir_weights, sim.content_bank.reservoir_weights)
    assert np.array_equal(twin.content_bank.output_weights, sim.content_bank.output_weights)
    assert twin.run_slot(4) == sim.run_slot(4)
