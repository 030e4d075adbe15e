"""Property tests: greedy selections, clustering, the cooperating-set map and
mask, cache-state invariants, row-wise delivery paths and the ordering of the
mapped QoS exponents."""
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

from crancache import cache
from crancache.cache import (CacheState, ClusterSet, cluster_rrhs, content_mask,
                             random_caches, rrh_popularities, select_cloud_cache,
                             select_rrh_caches, top_k_contents)
from crancache.errors import ConfigurationError
from crancache.qos import (PATH_CLOUD, PATH_LOCAL, PATH_REMOTE, PATH_SERVER, WiredParams,
                           map_qos_exponents_lenient, per_content_rate)
from crancache.sim import enumerate_best_subset, resolve_delivery_path

# small integers: subset sums are exact, so ties are real ties
scores = st.lists(st.integers(-3, 3), min_size=1, max_size=9)


@settings(max_examples=300, deadline=None)
@given(scores, st.data())
def test_top_k_equals_exhaustive_search_with_ties(values, data):
    k = data.draw(st.integers(0, len(values)))
    vec = np.asarray(values, dtype=np.float64)
    assert top_k_contents(vec, k) == enumerate_best_subset(vec, k)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from([0, 1, n]), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))))
def test_random_caches_hold_capacity_distinct_ids(case):
    n_contents, capacity, n_caches, seed = case
    caches = random_caches(np.random.default_rng(seed), n_caches, n_contents, capacity)
    assert caches.shape == (n_caches, n_contents) and caches.dtype == bool
    assert caches.sum(axis=1).tolist() == [capacity] * n_caches
    # each row holds the contents of its smallest keys in one block of uniforms
    keys = np.random.default_rng(seed).random((n_caches, n_contents))
    for row, key in zip(caches, keys):
        assert np.array_equal(row, content_mask(np.argsort(key)[:capacity] + 1, n_contents))


def scan_cooperating_set(clusters, rrh):
    """The per-call scan over every cluster that the map replaced."""
    coop = {rrh}
    for members in clusters:
        if rrh in members:
            coop |= set(members)
    return coop


clusters = st.lists(
    st.lists(st.integers(0, 11), min_size=1, max_size=6, unique=True).map(lambda m: tuple(sorted(m))),
    max_size=10)


def cluster_set_of(cluster_list, n_rrhs=14):
    """The ClusterSet whose mask rows are the distinct clusters of `cluster_list`."""
    distinct = sorted(set(cluster_list))
    member = np.zeros((len(distinct), n_rrhs), dtype=bool)
    for row, members in zip(member, distinct):
        row[list(members)] = True
    return ClusterSet(member=member)


@settings(max_examples=300, deadline=None)
@given(clusters)
def test_cooperating_set_map_equals_cluster_scan(cluster_list):
    cluster_set = cluster_set_of(cluster_list)
    for rrh in range(14):  # 12 and 13 sit in no cluster
        assert cluster_set.cooperating_set(rrh) == scan_cooperating_set(cluster_list, rrh)
        assert cluster_set.cooperating_set(np.int64(rrh)) == scan_cooperating_set(cluster_list, rrh)


@settings(max_examples=300, deadline=None)
@given(clusters, st.lists(st.integers(0, 13), unique=True).map(sorted))
def test_cooperation_mask_matches_cooperating_sets(cluster_list, rrhs):
    mask = cluster_set_of(cluster_list).cooperation(np.array(rrhs, dtype=int))
    assert mask.shape == (len(rrhs), len(rrhs))
    for i, rrh in enumerate(rrhs):
        coop = scan_cooperating_set(cluster_list, rrh)
        assert [bool(v) for v in mask[i]] == [other in coop for other in rrhs]


def reference_cluster_rrhs(rrh_user_distributions, threshold):
    """The per-anchor clustering and the map over every cluster that it replaced."""
    anchors = []
    flat = []
    for rrh in sorted(rrh_user_distributions):
        for dist in rrh_user_distributions[rrh]:
            vec = np.asarray(dist, dtype=np.float64)
            anchors.append(vec)
            flat.append((rrh, vec))
    clusters = set()
    if flat:
        mat = np.stack([vec for _, vec in flat])
        owners = np.array([rrh for rrh, _ in flat])
        for vec in anchors:
            tv = 0.5 * np.abs(mat - vec[None, :]).sum(axis=1)
            members = frozenset(owners[tv < threshold].tolist())
            if members:
                clusters.add(members)
    covered = set().union(*clusters) if clusters else set()
    for rrh in rrh_user_distributions:
        if rrh not in covered:
            clusters.add(frozenset([rrh]))
    ordered = [tuple(sorted(c)) for c in sorted(clusters, key=lambda c: (len(c), tuple(sorted(c))))]
    coop = {}
    for members in ordered:
        for rrh in members:
            coop.setdefault(rrh, set()).update(members)
    return ordered, coop


# quarters of a 4-content catalog: every TV distance is a multiple of 1/4, held
# exactly, so thresholds on that grid land exactly on some distances
dyadic = st.lists(st.integers(0, 3), min_size=4, max_size=4).map(
    lambda quanta: np.bincount(quanta, minlength=4) / 4.0)
dirichlet = st.integers(0, 2 ** 16).map(lambda s: np.random.default_rng(s).dirichlet(np.ones(4)))
grouped = st.integers(1, 12).flatmap(lambda n_rrh: st.fixed_dictionaries(
    {r: st.lists(st.one_of(dyadic, dirichlet), max_size=3) for r in range(n_rrh)}))
thresholds = st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.floats(1e-3, 1.0))


@settings(max_examples=300, deadline=None)
@given(grouped, thresholds, st.sampled_from([1, 4, cache.TV_CHUNK_ENTRIES]), st.randoms())
def test_cluster_rrhs_equals_per_anchor_reference(groups, threshold, chunk, random):
    expected, coop = reference_cluster_rrhs(groups, threshold)
    users = [(rrh, dist) for rrh in groups for dist in groups[rrh]]
    random.shuffle(users)  # anchors come in user order, not grouped by RRH
    assoc = np.array([rrh for rrh, _ in users], dtype=int)
    dists = np.array([dist for _, dist in users]).reshape(len(users), 4)
    original = cache.TV_CHUNK_ENTRIES
    cache.TV_CHUNK_ENTRIES = chunk  # one anchor per block, several, or all at once
    try:
        cluster_set = cluster_rrhs(assoc, dists, threshold, n_rrhs=len(groups))
    finally:
        cache.TV_CHUNK_ENTRIES = original
    assert cluster_set.clusters == expected
    assert len(cluster_set) == len(expected)
    for rrh in groups:
        assert cluster_set.cooperating_set(rrh) == coop[rrh]
    rrhs = random.sample(sorted(groups), random.randint(0, len(groups)))  # any order
    mask = cluster_set.cooperation(np.array(rrhs, dtype=int))
    assert mask.shape == (len(rrhs), len(rrhs))
    for i, rrh in enumerate(rrhs):
        assert [bool(v) for v in mask[i]] == [other in coop[rrh] for other in rrhs]


def masks(n_rows, width):
    return st.lists(st.lists(st.booleans(), min_size=width, max_size=width),
                    min_size=n_rows, max_size=n_rows).map(
        lambda rows: np.array(rows, dtype=bool).reshape(n_rows, width))


# RRH masks one content narrower than the catalog, as wide, or one wider
@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n), st.integers(0, n), masks(1, n).map(lambda m: m[0]),
    st.tuples(st.integers(0, 5), st.sampled_from([n - 1, n, n, n + 1])).flatmap(
        lambda shape: masks(*shape)))))
def test_cache_state_validate_raises_exactly_on_overflow_or_wrong_shape(case):
    n_contents, cloud_capacity, rrh_capacity, cloud, rrh = case
    wrong_shape = rrh.shape[1] != n_contents
    overflow = cloud.sum() > cloud_capacity or any(row.sum() > rrh_capacity for row in rrh)
    state = CacheState(cloud_capacity=cloud_capacity, rrh_capacity=rrh_capacity,
                       cloud=np.zeros(n_contents, dtype=bool),
                       rrh=np.zeros((len(rrh), n_contents), dtype=bool))
    state.cloud, state.rrh = cloud, rrh
    if wrong_shape or overflow:
        with pytest.raises(ConfigurationError):
            state.validate()
        with pytest.raises(ConfigurationError):
            CacheState(cloud_capacity, rrh_capacity, cloud=cloud, rrh=rrh)
    else:
        state.validate()
        CacheState(cloud_capacity, rrh_capacity, cloud=cloud, rrh=rrh)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n), st.integers(0, n),
    st.lists(st.integers(0, 4), min_size=1, max_size=5), st.integers(0, 2 ** 16))))
def test_selected_caches_always_validate(case):
    n_contents, cloud_capacity, rrh_capacity, users_per_rrh, seed = case
    rng = np.random.default_rng(seed)
    assoc = np.repeat(np.arange(len(users_per_rrh)), users_per_rrh)
    dists = rng.dirichlet(np.ones(n_contents), size=len(assoc))
    weights = rng.exponential(1.0, len(assoc))
    rrh = select_rrh_caches(assoc, dists, weights, rrh_capacity, len(users_per_rrh))
    # an RRH with users holds a full cache, a user-less one holds nothing
    assert rrh.sum(axis=1).tolist() == [rrh_capacity if users else 0 for users in users_per_rrh]
    cloud = select_cloud_cache(dists.sum(axis=0) / max(1, len(assoc)), cloud_capacity)
    CacheState(cloud_capacity, rrh_capacity, cloud=content_mask(cloud, n_contents), rrh=rrh)


# rates on a 1 Mbit/s grid split over at most 40 transfers, and L/(v D) >= 2e-6:
# distinct per-content rates then give distinct denominators, so an order
# between the rates is never hidden by rounding
link_cases = st.tuples(
    st.floats(1e-3, 10.0), st.integers(1, 10 ** 4), st.integers(1, 10 ** 4),
    st.floats(1e5, 1e8), st.floats(1e-2, 10.0), st.integers(0, 40), st.integers(0, 40))


@settings(max_examples=500, deadline=None)
@given(link_cases)
def test_mapped_exponents_order(case):
    theta_O, v_B, v_F, size, bound, n_B, n_F = case
    wired = WiredParams(backhaul_rate=v_B * 1e6, fronthaul_rate=v_F * 1e6,
                        content_size=size, delay_bound=bound)
    v_BU = per_content_rate(wired.backhaul_rate, n_B)
    v_FU = per_content_rate(wired.fronthaul_rate, n_F)
    link = map_qos_exponents_lenient(theta_O, wired, v_BU, v_FU)
    assert link.theta_O <= link.theta_A <= link.theta_G  # +inf when infeasible
    if math.isfinite(link.theta_G) and math.isfinite(link.theta_S):
        assert (link.theta_G <= link.theta_S) == (v_FU >= v_BU)


def test_remote_exponent_exceeds_server_when_fronthaul_share_is_slower():
    """The desk rates with one backhaul and three fronthaul transfers."""
    wired = WiredParams(backhaul_rate=6e8, fronthaul_rate=1.2e9, content_size=1e7,
                        delay_bound=1.0)
    link = map_qos_exponents_lenient(0.05, wired, per_content_rate(6e8, 1),
                                     per_content_rate(1.2e9, 3))
    assert link.theta_G == 0.05 / (1.0 - 2e7 / 4e8) > link.theta_S == 0.05 / (1.0 - 2e7 / 6e8)


def reference_rrh_caches(assoc, dists, weights, capacity):
    """The per-RRH loop the batched selection replaced: each RRH sums its users'
    weighted rows in user order, divides by their count and sorts with lexsort."""
    caches = {}
    for rrh in sorted(set(assoc.tolist())):
        users = np.flatnonzero(assoc == rrh)
        popularity = (dists[users] * weights[users][:, None]).sum(axis=0) / len(users)
        order = np.lexsort((np.arange(len(popularity)), -popularity))
        caches[rrh] = (popularity, frozenset((order[:capacity] + 1).tolist()))
    return caches


# quarters and eighths: popularity ties between contents are common
@settings(max_examples=300, deadline=None)
@given(st.integers(1, 20), st.integers(1, 9), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.data())
def test_batched_rrh_caches_match_the_per_rrh_loop(n_users, n_contents, seed, dyadic, data):
    rng = np.random.default_rng(seed)
    capacity = data.draw(st.integers(0, n_contents))
    assoc = rng.integers(0, 6, n_users)
    if dyadic:
        dists = rng.integers(0, 3, (n_users, n_contents)) / 8.0
        weights = rng.integers(1, 4, n_users) / 4.0
    else:
        dists = rng.dirichlet(np.ones(n_contents), size=n_users)
        weights = rng.uniform(0.0, 300.0, n_users)
    expected = reference_rrh_caches(assoc, dists, weights, capacity)
    rrhs, popularity = rrh_popularities(assoc, dists, weights)
    assert rrhs.tolist() == list(expected)
    for row, (pop, _) in zip(popularity, expected.values()):
        if n_contents > 1:
            assert np.array_equal(row, pop)
        else:  # a one-column sum(axis=0) is summed pairwise from 8 rows on
            np.testing.assert_allclose(row, pop, rtol=1e-13)  # 20 terms of eps
    mask = np.zeros((6, n_contents), dtype=bool)
    for rrh, (_, cached) in expected.items():
        mask[rrh] = content_mask(cached, n_contents)
    assert np.array_equal(select_rrh_caches(assoc, dists, weights, capacity, 6), mask)


def scan_delivery_path(content, serving, cloud_ids, rrh_ids):
    """The per-request scan over a dict of RRH caches that the mask lookup replaced."""
    if content in rrh_ids.get(serving, frozenset()):
        return PATH_LOCAL
    if content in cloud_ids:
        return PATH_CLOUD
    for rrh, cached in rrh_ids.items():
        if rrh != serving and content in cached:
            return PATH_REMOTE
    return PATH_SERVER


def ids(mask):
    return frozenset((np.flatnonzero(mask) + 1).tolist())


# RRH 0 alone holds content 1: local at RRH 0, remote elsewhere. Three RRHs
# hold content 2 (local at each, remote at the fourth) and the cloud content 1.
@example(case=(np.array([[1, 0], [0, 0], [0, 0]], dtype=bool), np.zeros(2, dtype=bool),
               list(range(6))))
@example(case=(np.array([[0, 1], [0, 1], [0, 1], [0, 0]], dtype=bool),
               np.array([1, 0], dtype=bool), list(range(8))[::-1]))
@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(1, 6), st.integers(1, 8)).flatmap(lambda shape: st.tuples(
    masks(*shape), masks(1, shape[1]).map(lambda m: m[0]),
    st.permutations(range(shape[0] * shape[1])))))
def test_row_wise_paths_equal_the_per_request_scan(case):
    rrh, cloud, order = case
    n_rrhs = rrh.shape[0]
    caches = CacheState(cloud_capacity=int(cloud.sum()), rrh_capacity=int(rrh.sum(axis=1).max()),
                        cloud=cloud, rrh=rrh)
    rrh_ids = {r: ids(row) for r, row in enumerate(rrh)}
    # every (content, serving RRH) pair once, in a drawn order
    contents, serving = np.divmod(np.array(order), n_rrhs)
    contents += 1
    expected = [scan_delivery_path(c, s, ids(cloud), rrh_ids)
                for c, s in zip(contents.tolist(), serving.tolist())]
    assert resolve_delivery_path(contents, serving, caches).tolist() == expected
    assert resolve_delivery_path(contents.reshape(-1, 1), serving.reshape(-1, 1),
                                 caches).ravel().tolist() == expected
    for c, s, path in zip(contents[:3].tolist(), serving[:3].tolist(), expected):
        assert resolve_delivery_path(c, s, caches) == path
