"""Batched slot-pipeline helpers against their per-user references.

Every comparison is exact (np.array_equal): the batched forms must
reproduce the per-user computations bit for bit, or episode outputs move.
The content bank, whose reservoir step is one matrix product for all users,
is compared to per-user ESNs in test_bank_pool.py and test_content_esn.py.
"""
import math

import numpy as np
import pytest

from crancache import qos
from crancache.data import generate_workload, slot_hour, slot_weekday
from crancache.esn import project_to_simplex
from crancache.qos import (SLOT_SUBSTEPS, RadioParams, capacity_from_fading,
                           effective_capacity_from_samples, effective_capacity_rows,
                           fading_block, pair_layout, segment_capacity_samples)
from crancache.seeding import _PURPOSES, rng_for

RADIO = RadioParams()


# ---- per-user references: the per-user code the batched forms replaced ---------

def reference_effective_capacity(theta, samples):
    samples = np.asarray(samples, dtype=np.float64)
    if theta <= 0.0:
        return float(samples.mean())
    if math.isinf(theta):
        return 0.0
    exponents = -theta * samples * math.log(2.0)
    peak = exponents.max()
    log2_mean = (peak + math.log(np.exp(exponents - peak).mean())) / math.log(2.0)
    return float(-log2_mean / theta)


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


# ---- channel sampling -----------------------------------------------------------

def segment_capacity_rows(starts, ends, rrh_positions, serving, interferes, radio, n_mc, rng):
    """(U, n_mc) slot capacities along U segments, by the three steps an episode runs."""
    layout = pair_layout(starts, ends, rrh_positions, serving, interferes, radio, n_mc)
    with fading_block(layout, rng) as fading:
        return capacity_from_fading(*fading.take(), radio)


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
@pytest.mark.parametrize("inline_entries", [qos.MAX_INLINE_FADING_ENTRIES, 1])
def test_segment_capacity_rows_match_per_user_reference(monkeypatch, n_mc, inline_entries):
    monkeypatch.setattr(qos, "MAX_INLINE_FADING_ENTRIES", inline_entries)  # 1: on the worker
    # zero interferers, a few, and nine or more (where numpy's pairwise sum
    # would group them differently from one column after the other)
    starts, ends, rrhs, serving, interferes = channel_case([0, 3, 9, 1, 12, 0, 9, 3, 17])
    shared = np.random.default_rng(100)  # users draw in turn from one generator
    expected = np.stack([
        reference_segment_samples(starts[u], ends[u], rrhs, serving[u], interferes[u], RADIO,
                                  n_mc, shared, unit_scale=1e-6)
        for u in range(len(serving))])
    handed_off = []
    submit = qos._FADING_WORKER.submit

    def spy_submit(fn, *args, **kwargs):
        handed_off.append(fn)
        return submit(fn, *args, **kwargs)

    monkeypatch.setattr(qos._FADING_WORKER, "submit", spy_submit)
    got = segment_capacity_rows(starts, ends, rrhs, serving, interferes, RADIO, n_mc,
                                np.random.default_rng(100)) * 1e-6
    assert np.array_equal(got, expected)
    # on the worker: one job, the fading helper
    assert handed_off == ([qos._draw_fading] if inline_entries == 1 else [])
    for u in range(len(serving)):
        # the one-user form puts the serving RRH first, then the interferers
        positions = np.vstack([rrhs[serving[u]], rrhs[interferes[u]]])
        alone = np.arange(len(positions)) > 0
        single = segment_capacity_samples(starts[u], ends[u], rrhs[serving[u]],
                                          rrhs[interferes[u]], RADIO, n_mc,
                                          np.random.default_rng(200 + u)) * 1e-6
        assert np.array_equal(single, reference_segment_samples(
            starts[u], ends[u], positions, 0, alone, RADIO, n_mc,
            np.random.default_rng(200 + u), unit_scale=1e-6))


@pytest.mark.parametrize("n_mc", [1, 48])
def test_segment_capacity_rows_worker_path_matches_inline_path(monkeypatch, n_mc):
    """The block drawn on the worker holds the draws of the inline path."""
    case = channel_case([0, 3, 9, 1, 12, 0, 9, 3, 17, 19, 5])
    inline = segment_capacity_rows(*case, RADIO, n_mc, np.random.default_rng(3))
    monkeypatch.setattr(qos, "MAX_INLINE_FADING_ENTRIES", 1)
    assert np.array_equal(segment_capacity_rows(*case, RADIO, n_mc, np.random.default_rng(3)),
                          inline)


def one_block_fading(layout, rng):
    """The whole-block draw that the grouped one replaced: (signal, interference)
    from one (pairs, n_mc, SLOT_SUBSTEPS) block, with the same numpy calls."""
    block = np.empty((len(layout.users), layout.n_mc, SLOT_SUBSTEPS))
    rng.standard_exponential(out=block)
    np.multiply(block, layout.gains[:, None, :], out=block)
    signal = block[layout.serves]
    block[layout.serves] = 0.0
    interference = np.empty_like(signal)
    bounds = np.flatnonzero(np.diff(layout.users, prepend=-1, append=-1)).tolist()
    for user, (first, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        np.add.reduce(block[first:stop], axis=0, out=interference[user])
    return signal, interference


# how the users fall into groups of FADING_GROUP_ENTRIES: (n_mc, interferer counts)
GROUP_CASES = {
    "one-group": (48, [0, 3, 9, 1]),
    "several-groups": (48, [9, 12, 0, 17, 3, 10, 11, 1] * 8),
    "a-user-alone-exceeds-a-group": (800, [3, 12, 0, 17, 2, 9]),
    "one-sample-several-groups": (1, [0, 3, 9, 12, 17, 19] * 240),
}


@pytest.mark.parametrize("case", GROUP_CASES)
@pytest.mark.parametrize("inline_entries", [1 << 40, 0])
def test_grouped_fading_matches_the_one_block_draw(monkeypatch, case, inline_entries):
    """signal, interference and the samples equal the one-block draw's byte for
    byte, inline and on the worker. Every case has users with more than eight
    interferers, where a pairwise sum would group their rows differently."""
    monkeypatch.setattr(qos, "MAX_INLINE_FADING_ENTRIES", inline_entries)  # 0: on the worker
    n_mc, counts = GROUP_CASES[case]
    layout = pair_layout(*channel_case(counts), RADIO, n_mc)
    rows = np.bincount(layout.users) * n_mc * SLOT_SUBSTEPS
    assert (rows.sum() > qos.FADING_GROUP_ENTRIES) == (case != "one-group")
    assert (rows.max() > qos.FADING_GROUP_ENTRIES) == (case == "a-user-alone-exceeds-a-group")
    handed_off = []
    submit = qos._FADING_WORKER.submit
    monkeypatch.setattr(qos._FADING_WORKER, "submit",
                        lambda fn, *args: handed_off.append(fn) or submit(fn, *args))
    with fading_block(layout, np.random.default_rng(21)) as fading:
        signal, interference = fading.take()
    assert handed_off == ([qos._draw_fading] if inline_entries == 0 else [])
    expected = one_block_fading(layout, np.random.default_rng(21))
    assert signal.tobytes() == expected[0].tobytes()
    assert interference.tobytes() == expected[1].tobytes()
    assert (capacity_from_fading(signal, interference, RADIO).tobytes()
            == capacity_from_fading(*expected, RADIO).tobytes())


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


# ---- content predictions --------------------------------------------------------

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
        for user in range(len(wl.user_archetype)):
            arch = wl.archetypes[wl.user_archetype[user]]
            expected = reference_conditional(arch.rank_permutation, wl.base_probs, hour, weekday)
            rotation = (hour + weekday) % 3
            assert np.array_equal(arch.conditional(wl.base_probs, rotation), expected)
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
                                   (2 ** 40 + 3, "mobility_esn", (31,)), (5, "topology", ()),
                                   (0, "sampling", (0, 2 ** 32 + 1))]:
        words = [seed & 0xFFFFFFFF, _PURPOSES[purpose], *(i & 0xFFFFFFFF for i in indices)]
        expected = np.random.default_rng(np.random.SeedSequence(words)).random(8)
        assert np.array_equal(rng_for(seed, purpose, *indices).random(8), expected)
