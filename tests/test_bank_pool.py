"""The content-ESN bank at large reservoirs, and the threads a Simulation uses.

The bank steps every user with one matrix product on the calling thread.
At reservoirs of about 256 units: every user of the bank must step as a
ContentEsn that carries the shared weights, the shared readout must take
its step summed over users, written out in numpy, and a deep copy must
continue bit for bit. A Simulation builds its banks and runs slots on the
calling thread alone, starting no thread, because the benchmark's span
tracer keeps one span stack and assumes a single thread; a copy taken
mid-episode must continue bit for bit too.
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


@pytest.mark.parametrize("n_reservoir,users", [
    pytest.param(LARGE_RESERVOIR, 1, id="256-1"),
    pytest.param(LARGE_RESERVOIR, 5, id="256-5"),
    pytest.param(LARGE_RESERVOIR - 1, 5, id="255-5"),
])
def test_pooled_bank_matches_per_user_esns(n_reservoir, users):
    """Each user steps as a ContentEsn given the bank's reservoir and, before
    every step, the shared readout; the readout then takes the pooled step
    W_out += lr sum_u r_u z_u^T / sum_u |z_u|^2, written out per user. One
    user is a ContentEsn bit for bit, its own training step included; more
    users share one product X @ W_in.T, whose rows may differ from a
    per-user product in their last bits, so they are compared to 1e-12."""
    n_contents, lr = 9, 0.5
    bank = ContentEsnBank(n_contents, users, 69, n_reservoir=n_reservoir, learning_rate=lr)
    esns = [ContentEsn(n_contents=n_contents, n_reservoir=n_reservoir, learning_rate=lr,
                       seed=69) for _ in range(users)]
    for esn in esns:
        assert np.array_equal(esn.input_weights, bank.input_weights)
        assert np.array_equal(esn.reservoir_weights, bank.reservoir_weights)
        assert np.array_equal(esn.output_weights, bank.output_weights)
    if users == 1:
        same = np.testing.assert_array_equal
    else:
        same = functools.partial(np.testing.assert_allclose, rtol=0, atol=1e-12)
    close = functools.partial(np.testing.assert_allclose, rtol=0, atol=1e-12)
    for x, observed in rounds(users, n_contents, 4):
        shared = bank.output_weights.copy()
        predictions = bank.predict(x)
        bank.train_step(observed)
        step, norm = np.zeros_like(shared), 0.0
        for u, esn in enumerate(esns):
            esn.set_weights(output_weights=shared)
            same(esn.state_update(x[u]), bank.state[u])
            same(esn.predict(x[u]), predictions[u])
            z = np.concatenate([esn.state, x[u]])
            step += np.outer(observed[u] - esn.raw_output(x[u]), z)
            norm += z @ z
        close(bank.output_weights, shared + lr * step / norm)
        if users == 1:
            esns[0].train_step(x[0], observed[0])
            same(esns[0].output_weights, bank.output_weights)
    assert np.abs(bank.output_weights).max() > 1e-4  # learned, far above the tolerance


def test_deep_copied_bank_continues_bit_identically():
    users, n_contents = 5, 9
    bank = ContentEsnBank(n_contents, users, 89, n_reservoir=LARGE_RESERVOIR, learning_rate=0.05)
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


def test_a_simulation_starts_no_thread_and_runs_on_the_calling_thread(monkeypatch):
    """While a Simulation at the parameter-table slot sizes builds its banks and
    steps slots, no thread is started and no package frame runs off the
    caller's thread. A copy taken after slot 3 runs slot 4 as the original
    does."""
    main = threading.get_ident()
    started, off_main = [], set()
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread.name) or start(thread))

    def record(frame, event, arg):
        if event == "call" and threading.get_ident() != main:
            off_main.add((frame.f_globals.get("__name__", ""), frame.f_code.co_qualname))

    before = set(threading.enumerate())
    threading.setprofile(record)
    try:
        # parameter-table defaults at a small reservoir, as the benchmark's default workload
        sim = Simulation(ExperimentConfig.default(T=60, N_w=16), "proposed", seed=0)
        for slot in range(1, 4):
            sim.run_slot(slot)
    finally:
        threading.setprofile(None)
    assert started == []
    assert set(threading.enumerate()) == before
    assert not {call for call in off_main if call[0].startswith("crancache")}
    twin = copy.deepcopy(sim)  # mid-episode
    assert np.array_equal(twin.content_bank.reservoir_weights, sim.content_bank.reservoir_weights)
    assert np.array_equal(twin.content_bank.output_weights, sim.content_bank.output_weights)
    assert twin.run_slot(4) == sim.run_slot(4)
