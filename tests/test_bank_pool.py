"""The content-ESN bank's thread-pooled construction.

Large reservoirs get their spectral radii on a thread pool. The pooled bank
must hold exactly the weights of per-user ContentEsn objects built from the
same seeds, and the workers may run no public crancache callable: the
benchmark's span tracer keeps one span stack and assumes a single thread.
"""
import copy
import threading

import numpy as np
import pytest

from crancache.config import ExperimentConfig
from crancache.esn import ContentEsn, ContentEsnBank, content
from crancache.sim import Simulation

POOL_WORKERS = 2


@pytest.fixture
def two_cpus(monkeypatch):
    """The pool sizes itself as if two CPUs were usable, on any host."""
    monkeypatch.setattr(content, "_usable_cpus", lambda: POOL_WORKERS)


@pytest.mark.parametrize("n_reservoir,users", [
    (content.POOL_MIN_RESERVOIR, 1),
    (content.POOL_MIN_RESERVOIR, POOL_WORKERS + 3),
    (content.POOL_MIN_RESERVOIR - 1, POOL_WORKERS + 3),  # serial path
])
def test_pooled_bank_matches_per_user_esns(two_cpus, n_reservoir, users):
    n_contents = 9
    seeds = [np.random.default_rng(70 + u) for u in range(users)]
    esns = [ContentEsn(n_contents=n_contents, n_reservoir=n_reservoir, learning_rate=0.05,
                       seed=np.random.default_rng(70 + u)) for u in range(users)]
    bank = ContentEsnBank(n_contents, seeds, n_reservoir=n_reservoir, learning_rate=0.05)
    for u, esn in enumerate(esns):
        assert np.array_equal(bank.reservoir_weights[u], esn.reservoir_weights)
        assert np.array_equal(bank.input_weights[u], esn.input_weights)
        assert np.array_equal(bank.output_weights[u], esn.output_weights)
        assert np.array_equal(bank.state[u], esn.state)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.uniform(0.0, 1.0, (users, 7))
        predictions = bank.predict(x)
        observed = rng.dirichlet(np.ones(n_contents), size=users)
        bank.train_step(observed)
        for u, esn in enumerate(esns):
            esn.state_update(x[u])
            assert np.array_equal(esn.predict(x[u]), predictions[u])
            esn.train_step(x[u], observed[u])
            assert np.array_equal(esn.output_weights, bank.output_weights[u])


def test_pool_workers_run_only_the_private_solver(two_cpus, monkeypatch):
    monkeypatch.setattr(content, "POOL_MIN_RESERVOIR", 16)
    main = threading.get_ident()
    off_main = set()

    def record(frame, event, arg):
        if event == "call" and threading.get_ident() != main:
            off_main.add((frame.f_globals.get("__name__", ""), frame.f_code.co_qualname))

    threading.setprofile(record)
    try:
        # parameter-table defaults at a small reservoir, as the benchmark's default workload
        sim = Simulation(ExperimentConfig.default(T=60, N_w=16), "proposed", seed=0)
    finally:
        threading.setprofile(None)
    ran = {call for call in off_main if call[0].startswith("crancache")}
    assert ran == {("crancache.esn.content", "_spectral_radius")}
    twin = copy.deepcopy(sim)  # the benchmark runs episodes on deep copies
    assert np.array_equal(twin.content_bank.reservoir_weights, sim.content_bank.reservoir_weights)
