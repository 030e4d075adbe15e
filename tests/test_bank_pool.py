"""The content-ESN bank on its thread pool.

Large reservoirs get their spectral radii, and every slot's predict and
readout update, on a thread pool that takes the users in contiguous blocks.
The pooled bank must hold and compute exactly what per-user ContentEsn
objects built from the same seeds hold and compute, and the workers may run
no public crancache callable: the benchmark's span tracer keeps one span
stack and assumes a single thread.
"""
import copy
import sys
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


def rounds(users, n_contents, count, seed=5):
    """`count` (contexts, observed distributions) pairs for a bank of `users`."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.0, 1.0, (users, 7)), rng.dirichlet(np.ones(n_contents), size=users))
            for _ in range(count)]


def bank_case(n_reservoir, users, cpus=POOL_WORKERS, chunk_users=None):
    """A (N_w, U, usable CPUs, users per readout-update chunk) case.

    Named N_w-U, plus -cpusC off two CPUs and -chunkK off the default chunk.
    """
    name = (f"{n_reservoir}-{users}" + ("" if cpus == POOL_WORKERS else f"-cpus{cpus}")
            + ("" if chunk_users is None else f"-chunk{chunk_users}"))
    return pytest.param(n_reservoir, users, cpus, chunk_users, id=name)


@pytest.mark.parametrize("n_reservoir,users,cpus,chunk_users", [
    bank_case(content.POOL_MIN_RESERVOIR, 1),
    bank_case(content.POOL_MIN_RESERVOIR, POOL_WORKERS + 3),
    bank_case(content.POOL_MIN_RESERVOIR - 1, POOL_WORKERS + 3),  # serial path
    bank_case(content.POOL_MIN_RESERVOIR, 5, cpus=3),  # uneven blocks: 1, 2 and 2 users
    bank_case(content.POOL_MIN_RESERVOIR, 3, cpus=8),  # more CPUs than users: 1 user a block
    bank_case(content.POOL_MIN_RESERVOIR - 1, 5, cpus=3),  # serial path
    bank_case(content.POOL_MIN_RESERVOIR, 5, chunk_users=2),  # blocks of 2 and 3: 1 and 2 chunks
])
def test_pooled_bank_matches_per_user_esns(monkeypatch, n_reservoir, users, cpus, chunk_users):
    monkeypatch.setattr(content, "_usable_cpus", lambda: cpus)
    n_contents = 9
    if chunk_users is not None:
        monkeypatch.setattr(ContentEsnBank, "UPDATE_CHUNK_ENTRIES",
                            chunk_users * n_contents * (n_reservoir + 7))
    seeds = [np.random.default_rng(70 + u) for u in range(users)]
    esns = [ContentEsn(n_contents=n_contents, n_reservoir=n_reservoir, learning_rate=0.05,
                       seed=np.random.default_rng(70 + u)) for u in range(users)]
    bank = ContentEsnBank(n_contents, seeds, n_reservoir=n_reservoir, learning_rate=0.05)
    for u, esn in enumerate(esns):
        assert np.array_equal(bank.reservoir_weights[u], esn.reservoir_weights)
        assert np.array_equal(bank.input_weights[u], esn.input_weights)
        assert np.array_equal(bank.output_weights[u], esn.output_weights)
        assert np.array_equal(bank.state[u], esn.state)
    for x, observed in rounds(users, n_contents, 3):
        predictions = bank.predict(x)
        bank.train_step(observed)
        for u, esn in enumerate(esns):
            esn.state_update(x[u])
            assert np.array_equal(esn.predict(x[u]), predictions[u])
            esn.train_step(x[u], observed[u])
            assert np.array_equal(esn.output_weights, bank.output_weights[u])


@pytest.mark.parametrize("n_reservoir,items,cpus,blocks", [
    (content.POOL_MIN_RESERVOIR, 5, 3, [(0, 1), (1, 3), (3, 5)]),
    (content.POOL_MIN_RESERVOIR, 3, 8, [(0, 1), (1, 2), (2, 3)]),
    (content.POOL_MIN_RESERVOIR, 4, 1, [(0, 4)]),  # one CPU: serial
    (content.POOL_MIN_RESERVOIR, 1, 2, [(0, 1)]),  # one item: serial
    (content.POOL_MIN_RESERVOIR, 0, 2, [(0, 0)]),
    (content.POOL_MIN_RESERVOIR - 1, 5, 3, [(0, 5)]),  # small reservoirs: serial
], ids=["uneven", "more-cpus-than-items", "one-cpu", "one-item", "no-items", "small-reservoir"])
def test_blocks_are_contiguous_and_pooled_only_when_large(monkeypatch, n_reservoir, items,
                                                          cpus, blocks):
    monkeypatch.setattr(content, "_usable_cpus", lambda: cpus)
    threads = []

    def block(lo, hi):
        threads.append(threading.get_ident())
        return lo, hi

    assert content._map_blocks(block, items, n_reservoir) == blocks
    pooled = len(blocks) > 1
    assert (threading.get_ident() not in threads) == pooled


def test_deep_copied_bank_continues_bit_identically(monkeypatch):
    monkeypatch.setattr(content, "_usable_cpus", lambda: 3)
    users, n_contents = 5, 9
    bank = ContentEsnBank(n_contents, [np.random.default_rng(90 + u) for u in range(users)],
                          n_reservoir=content.POOL_MIN_RESERVOIR, learning_rate=0.05)
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


def test_pool_keeps_every_row_under_frequent_thread_switches(monkeypatch):
    """More workers than cores, switching threads every microsecond: each
    block writes only its own users' rows, so nothing is lost or mixed."""
    users, n_contents = 12, 9
    steps = rounds(users, n_contents, 5, seed=3)
    serial = ContentEsnBank(n_contents, [np.random.default_rng(30 + u) for u in range(users)],
                            n_reservoir=content.POOL_MIN_RESERVOIR, learning_rate=0.05)
    pooled = copy.deepcopy(serial)
    monkeypatch.setattr(content, "_usable_cpus", lambda: 1)
    expected = []
    for x, observed in steps:
        expected.append(serial.predict(x))
        serial.train_step(observed)
    monkeypatch.setattr(content, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for (x, observed), predictions in zip(steps, expected):
            assert np.array_equal(pooled.predict(x), predictions)
            pooled.train_step(observed)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(pooled.state, serial.state)
    assert np.array_equal(pooled.output_weights, serial.output_weights)


# every function of the package that a pool thread may run
POOL_HELPERS = {("crancache.esn.content", name) for name in
                ("_spectral_radius", "_radii_block", "_predict_block", "_train_block")}


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
        for slot in range(1, 4):
            sim.run_slot(slot)
    finally:
        threading.setprofile(None)
    ran = {call for call in off_main if call[0].startswith("crancache")}
    assert ran == POOL_HELPERS
    twin = copy.deepcopy(sim)  # the benchmark runs episodes on deep copies
    assert np.array_equal(twin.content_bank.reservoir_weights, sim.content_bank.reservoir_weights)
    assert np.array_equal(twin.content_bank.output_weights, sim.content_bank.output_weights)
    assert twin.run_slot(4) == sim.run_slot(4)
