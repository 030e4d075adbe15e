"""Batched slot-pipeline helpers against their per-user references.

Every comparison is exact (np.array_equal): the batched forms must
reproduce the per-user computations bit for bit, or episode outputs move.
The one exception is the content bank's reservoir step, one matrix product
for all users, which is compared to per-user ESNs to 1e-12.
"""
import functools
import math

import numpy as np
import pytest

from crancache import qos
from crancache.data import generate_workload, slot_hour, slot_weekday
from crancache.esn import ContentEsn, ContentEsnBank, project_to_simplex
from crancache.qos import (SLOT_SUBSTEPS, RadioParams, effective_capacity_from_samples,
                           effective_capacity_rows, segment_capacity_rows,
                           segment_capacity_samples)
from crancache.seeding import _PURPOSES, rng_for

RADIO = RadioParams()


# ---- per-user references: the per-user code the batched forms replaced ---------

def reference_effective_capacity(theta, samples, tau=1.0):
    samples = np.asarray(samples, dtype=np.float64)
    if theta <= 0.0:
        return float(samples.mean() / tau)
    if math.isinf(theta):
        return 0.0
    exponents = -theta * samples * math.log(2.0)
    peak = exponents.max()
    log2_mean = (peak + math.log(np.exp(exponents - peak).mean())) / math.log(2.0)
    return float(-log2_mean / (theta * tau))


def reference_project_to_simplex(raw):
    p = np.clip(raw, 0.0, None)
    total = p.sum()
    if total <= 0.0:
        return np.full(raw.shape, 1.0 / raw.shape[0])
    return p / total


def reference_conditional(rank_permutation, base_probs, hour, weekday):
    n = base_probs.shape[0]
    perm = rank_permutation.copy()
    rotation = (hour + weekday) % 3
    if rotation:
        for start in range(1, n, 3):
            perm[start:start + 3] = np.roll(perm[start:start + 3], rotation)
    probs = np.empty(n)
    probs[perm] = base_probs
    return probs


def reference_segment_samples(start, end, rrh_positions, serving, interferes,
                              radio, n_mc, rng, unit_scale=1.0):
    """One user's samples: an (n_mc, sub-step) fading block per used column from `rng`."""
    frac = (np.arange(SLOT_SUBSTEPS) + 0.5) / SLOT_SUBSTEPS
    points = start[None, :] + frac[:, None] * (end - start)[None, :]
    power = {}
    for column in range(len(rrh_positions)):
        if column == serving or interferes[column]:
            d = np.linalg.norm(points - rrh_positions[column], axis=1)
            h = rng.exponential(1.0, size=(n_mc, SLOT_SUBSTEPS))
            power[column] = radio.tx_power_w * d ** (-radio.pathloss_exponent) * h
    interference = 0.0
    for column in np.flatnonzero(interferes):  # one column after the other
        interference = interference + power[column]
    gamma = power[serving] / (interference + radio.noise_w)
    return (radio.bandwidth_hz * np.log2(1.0 + gamma)).sum(axis=1) * unit_scale


# ---- effective capacity ---------------------------------------------------------

def test_effective_capacity_rows_match_per_row_reference():
    rng = np.random.default_rng(11)
    samples = rng.uniform(0.0, 40.0, (8, 48))
    thetas = np.array([0.05, math.inf, 0.0, -0.5, 1.7, 0.05, math.inf, 3e-4])
    expected = np.array([reference_effective_capacity(t, s) for t, s in zip(thetas, samples)])
    assert np.array_equal(effective_capacity_rows(thetas, samples), expected)
    for theta in (0.05, 0.0, -1.0, math.inf):
        expected = np.array([reference_effective_capacity(theta, s) for s in samples])
        assert np.array_equal(effective_capacity_rows(theta, samples), expected)
        assert [effective_capacity_from_samples(theta, s) for s in samples] == list(expected)


def test_effective_capacity_rows_honours_tau():
    samples = np.random.default_rng(2).uniform(1.0, 5.0, (3, 20))
    for theta in (0.2, 0.0):
        expected = np.array([reference_effective_capacity(theta, s, tau=2.5) for s in samples])
        assert np.array_equal(effective_capacity_rows(theta, samples, tau=2.5), expected)


# ---- channel sampling -----------------------------------------------------------

def channel_case(counts, n_active=20, seed=5):
    """Segments, RRHs, serving columns and interferer masks with the given counts."""
    rng = np.random.default_rng(seed)
    users = len(counts)
    starts = rng.uniform(-600.0, 600.0, (users, 2))
    ends = starts + rng.uniform(-30.0, 30.0, (users, 2))
    rrhs = rng.uniform(-600.0, 600.0, (n_active, 2))
    serving = rng.integers(0, n_active, users)
    interferes = np.zeros((users, n_active), dtype=bool)
    for u, count in enumerate(counts):
        others = np.delete(np.arange(n_active), serving[u])
        interferes[u, rng.choice(others, size=count, replace=False)] = True
    return starts, ends, rrhs, serving, interferes


@pytest.mark.parametrize("n_mc", [1, 48])
@pytest.mark.parametrize("chunk_entries", [qos.FADING_CHUNK_ENTRIES, 1])
def test_segment_capacity_rows_match_per_user_reference(monkeypatch, n_mc, chunk_entries):
    monkeypatch.setattr(qos, "FADING_CHUNK_ENTRIES", chunk_entries)  # 1: a (user, RRH) pair per chunk
    # zero interferers, a few, and nine or more (where numpy's pairwise sum
    # would group them differently from one column after the other)
    starts, ends, rrhs, serving, interferes = channel_case([0, 3, 9, 1, 12, 0, 9, 3, 17])
    shared = np.random.default_rng(100)  # users draw in turn from one generator
    expected = np.stack([
        reference_segment_samples(starts[u], ends[u], rrhs, serving[u], interferes[u], RADIO,
                                  n_mc, shared, unit_scale=1e-6)
        for u in range(len(serving))])
    got = segment_capacity_rows(starts, ends, rrhs, serving, interferes, RADIO, n_mc,
                                np.random.default_rng(100), unit_scale=1e-6)
    assert np.array_equal(got, expected)
    for u in range(len(serving)):
        # the one-user form puts the serving RRH first, then the interferers
        positions = np.vstack([rrhs[serving[u]], rrhs[interferes[u]]])
        alone = np.arange(len(positions)) > 0
        single = segment_capacity_samples(starts[u], ends[u], rrhs[serving[u]],
                                          rrhs[interferes[u]], RADIO, n_mc,
                                          np.random.default_rng(200 + u), unit_scale=1e-6)
        assert np.array_equal(single, reference_segment_samples(
            starts[u], ends[u], positions, 0, alone, RADIO, n_mc,
            np.random.default_rng(200 + u), unit_scale=1e-6))


@pytest.mark.parametrize("n_mc", [1, 48])
def test_segment_capacity_rows_chunking_moves_no_draw(monkeypatch, n_mc):
    case = channel_case([0, 3, 9, 1, 12, 0, 9, 3, 17, 19, 5])
    default = segment_capacity_rows(*case, RADIO, n_mc, np.random.default_rng(3))
    monkeypatch.setattr(qos, "FADING_CHUNK_ENTRIES", 1)
    assert np.array_equal(segment_capacity_rows(*case, RADIO, n_mc, np.random.default_rng(3)),
                          default)


@pytest.mark.parametrize("pairs_per_chunk", [5, 11])
def test_users_straddling_a_chunk_boundary_match_the_reference(monkeypatch, pairs_per_chunk):
    """Chunks of 5 or 11 (user, RRH) pairs: several users start in one chunk
    and end in a later one, and their interference keeps adding one column
    after the other across the boundary."""
    n_mc = 8
    starts, ends, rrhs, serving, interferes = channel_case([0, 3, 9, 1, 12, 0, 9, 3, 17])
    last_pair = np.cumsum(interferes.sum(axis=1) + 1) - 1
    first_pair = np.concatenate([[0], last_pair[:-1] + 1])
    assert np.count_nonzero(first_pair // pairs_per_chunk != last_pair // pairs_per_chunk) >= 3
    monkeypatch.setattr(qos, "FADING_CHUNK_ENTRIES", pairs_per_chunk * n_mc * SLOT_SUBSTEPS)
    shared = np.random.default_rng(31)
    expected = np.stack([
        reference_segment_samples(starts[u], ends[u], rrhs, serving[u], interferes[u], RADIO,
                                  n_mc, shared)
        for u in range(len(serving))])
    got = segment_capacity_rows(starts, ends, rrhs, serving, interferes, RADIO, n_mc,
                                np.random.default_rng(31))
    assert np.array_equal(got, expected)


def test_fully_cooperating_user_matches_a_zero_interferer_reference():
    starts, ends, rrhs, serving, _ = channel_case([0, 0, 0])
    # every active RRH cooperates with every user's serving RRH
    interferes = np.zeros((len(serving), len(rrhs)), dtype=bool)
    got = segment_capacity_rows(starts, ends, rrhs, serving, interferes, RADIO, 24,
                                np.random.default_rng(8))
    rng = np.random.default_rng(8)
    frac = (np.arange(SLOT_SUBSTEPS) + 0.5) / SLOT_SUBSTEPS
    for u in range(len(serving)):
        points = starts[u] + frac[:, None] * (ends[u] - starts[u])
        d = np.linalg.norm(points - rrhs[serving[u]], axis=1)
        h = rng.exponential(1.0, size=(24, SLOT_SUBSTEPS))
        snr = RADIO.tx_power_w * d ** (-RADIO.pathloss_exponent) * h / RADIO.noise_w
        assert np.array_equal(got[u], (RADIO.bandwidth_hz * np.log2(1.0 + snr)).sum(axis=1))


def test_user_on_an_rrh_gets_finite_capacity():
    rrh = np.array([120.0, -40.0])
    samples = segment_capacity_samples(rrh, rrh, rrh, np.array([[rrh[0], 300.0], rrh]),
                                       RADIO, 16, np.random.default_rng(0))
    assert samples.shape == (16,)
    assert np.all(np.isfinite(samples)) and np.all(samples > 0)


# ---- content ESNs ---------------------------------------------------------------

@pytest.mark.parametrize("n_reservoir,n_contents,chunk_entries", [
    (48, 24, ContentEsnBank.UPDATE_CHUNK_ENTRIES),
    (7, 5, 2 * 5 * (7 + 7)),  # readout updates in chunks of two users
])
def test_content_bank_matches_per_user_esns(monkeypatch, n_reservoir, n_contents,
                                            chunk_entries):
    """One shared reservoir, one readout per user.

    The bank steps all users with one product per term, S @ W.T, where a
    per-user ESN takes W @ s; a user's row of the product may differ from
    that in its last bits, and with U, so states and readouts are compared
    to 1e-12 (measured: at most 5.3e-14 at N_w = 1000).
    """
    monkeypatch.setattr(ContentEsnBank, "UPDATE_CHUNK_ENTRIES", chunk_entries)
    users = 5

    bank = ContentEsnBank(n_contents, 999, [1000 + u for u in range(users)],
                          n_reservoir=n_reservoir, learning_rate=0.03)
    # the reservoir is W_in, the mask and W drawn from its own generator,
    # with W rescaled by one spectral radius
    rng = np.random.default_rng(999)
    w_in = rng.uniform(-1.0, 1.0, (n_reservoir, 7))
    mask = rng.random((n_reservoir, n_reservoir)) < 0.1
    w = rng.uniform(-1.0, 1.0, (n_reservoir, n_reservoir)) * mask
    w *= 0.9 / np.max(np.abs(np.linalg.eigvals(w)))
    assert np.array_equal(bank.input_weights, w_in)
    assert np.array_equal(bank.reservoir_weights, w)
    esns = []
    for u in range(users):
        readout = np.random.default_rng(1000 + u).uniform(-0.1, 0.1,
                                                          (n_contents, n_reservoir + 7))
        assert np.array_equal(bank.output_weights[u], readout)
        esn = ContentEsn(n_contents=n_contents, n_reservoir=n_reservoir, learning_rate=0.03)
        esn.set_weights(w_in, w, readout)
        esns.append(esn)

    close = functools.partial(np.testing.assert_allclose, rtol=0, atol=1e-12)
    rng = np.random.default_rng(9)
    for _ in range(6):
        x = rng.uniform(0.0, 1.0, (users, 7))
        predictions = bank.predict(x)
        for u, esn in enumerate(esns):
            close(esn.state_update(x[u]), bank.state[u])
            close(esn.predict(x[u]), predictions[u])
        observed = np.zeros((users, n_contents))
        observed[np.arange(users), rng.integers(0, n_contents, users)] = 1.0
        bank.train_step(observed)
        for u, esn in enumerate(esns):
            esn.train_step(x[u], observed[u])
            close(esn.output_weights, bank.output_weights[u])


def reference_learn(weights, z, residual, learning_rate, step):
    """The broadcast outer product the einsum update replaced, chunk by chunk."""
    for start in range(0, weights.shape[0], step):
        stop = start + step
        part = residual[start:stop, :, None] * z[start:stop, None, :]
        part *= learning_rate
        weights[start:stop] += part


@pytest.mark.parametrize("chunk_users", [5, 2])
def test_einsum_update_equals_broadcast_reference_bit_for_bit(monkeypatch, chunk_users):
    """Bit patterns compared, so signed zeros count. einsum turns a -0.0
    product into +0.0; a readout entry absorbs either alike unless it is
    -0.0, which the bank never makes, so the readouts below hold +0.0 but no
    -0.0."""
    grid = [-0.0, 0.0, -1.5, 0.25, 3.0, -7e-300]  # -7e-300 squared underflows to 0.0
    n_contents, n_reservoir = 9, 32
    monkeypatch.setattr(ContentEsnBank, "UPDATE_CHUNK_ENTRIES",
                        chunk_users * n_contents * (n_reservoir + 7))
    bank = ContentEsnBank(n_contents, 3, [4 + u for u in range(5)], n_reservoir=n_reservoir,
                          learning_rate=0.05)
    rng = np.random.default_rng(13)
    bank.output_weights[...] = rng.choice(grid[1:], size=bank.output_weights.shape)
    z = rng.choice(grid, size=(5, n_reservoir + 7))
    residual = rng.choice(grid, size=(5, n_contents))
    products = residual[:, :, None] * z[:, None, :]
    assert (np.signbit(products) & (products == 0.0)).any()  # -0.0 products occur
    expected = bank.output_weights.copy()
    reference_learn(expected, z, residual, bank.learning_rate, chunk_users)
    bank._learn(z, residual)
    assert np.array_equal(bank.output_weights.view(np.uint64), expected.view(np.uint64))


def test_project_to_simplex_rows_match_single_rows():
    raw = np.random.default_rng(4).normal(size=(6, 9))
    raw[2] = -1.0  # nothing survives the clamp: uniform fallback
    projected = project_to_simplex(raw)
    for u in range(raw.shape[0]):
        assert np.array_equal(projected[u], reference_project_to_simplex(raw[u]))
        assert np.array_equal(project_to_simplex(raw[u]), projected[u])
    np.testing.assert_array_equal(projected[2], np.full(9, 1.0 / 9))


# ---- workload table -------------------------------------------------------------

@pytest.mark.parametrize("n_contents", [2, 3, 23, 24])
def test_workload_table_matches_archetype_conditionals(n_contents):
    wl = generate_workload(n_users=9, n_contents=n_contents, zipf_alpha=0.9,
                           n_archetypes=4, seed=6)
    for slot in range(24 * 7):
        hour, weekday = slot_hour(slot), slot_weekday(slot)
        contexts = wl.contexts(slot)
        for user in range(wl.n_users):
            arch = wl.archetypes[wl.user_archetype[user]]
            expected = reference_conditional(arch.rank_permutation, wl.base_probs, hour, weekday)
            assert np.array_equal(arch.conditional(wl.base_probs, hour, weekday), expected)
            assert np.array_equal(wl.distribution(user, slot), expected)
            context = np.array([hour / 23.0, weekday / 6.0, float(wl.user_gender[user]),
                                arch.occupation_code, arch.age_band,
                                float(wl.user_device[user]), 0.0])
            assert np.array_equal(contexts[user], context)
            assert np.array_equal(wl.context(user, slot), context)
    with pytest.raises(ValueError):
        wl.distribution(0, 1)[0] = 1.0


# ---- seeding --------------------------------------------------------------------

def test_rng_for_streams_match_word_list_seeding():
    for seed, purpose, indices in [(0, "channel", (1, 0)), (7919, "requests", (120,)),
                                   (2 ** 40 + 3, "content_esn", (31,)), (5, "topology", ()),
                                   (0, "sampling", (0, 2 ** 32 + 1))]:
        words = [seed & 0xFFFFFFFF, _PURPOSES[purpose], *(i & 0xFFFFFFFF for i in indices)]
        expected = np.random.default_rng(np.random.SeedSequence(words)).random(8)
        assert np.array_equal(rng_for(seed, purpose, *indices).random(8), expected)
