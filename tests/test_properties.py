"""Property tests: greedy selections, clustering, the cooperating-set map,
cache-state invariants and the ordering of the mapped QoS exponents."""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

from crancache import cache
from crancache.cache import (CacheState, ClusterSet, cluster_rrhs, select_cloud_cache,
                             select_rrh_cache, top_k_contents)
from crancache.errors import ConfigurationError
from crancache.qos import WiredParams, map_qos_exponents_lenient, per_content_rate
from crancache.sim import enumerate_best_subset

# small integers: subset sums are exact, so ties are real ties
scores = st.lists(st.integers(-3, 3), min_size=1, max_size=9)


@settings(max_examples=300, deadline=None)
@given(scores, st.data())
def test_top_k_equals_exhaustive_search_with_ties(values, data):
    k = data.draw(st.integers(0, len(values)))
    vec = np.asarray(values, dtype=np.float64)
    assert top_k_contents(vec, k) == enumerate_best_subset(vec, k)


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


@settings(max_examples=300, deadline=None)
@given(clusters)
def test_cooperating_set_map_equals_cluster_scan(cluster_list):
    cluster_set = ClusterSet(clusters=cluster_list)
    for rrh in range(14):  # 12 and 13 sit in no cluster
        assert cluster_set.cooperating_set(rrh) == scan_cooperating_set(cluster_list, rrh)
        assert cluster_set.cooperating_set(np.int64(rrh)) == scan_cooperating_set(cluster_list, rrh)


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
@given(grouped, thresholds, st.sampled_from([1, 4, cache.TV_CHUNK_ENTRIES]))
def test_cluster_rrhs_equals_per_anchor_reference(groups, threshold, chunk):
    expected, coop = reference_cluster_rrhs(groups, threshold)
    original = cache.TV_CHUNK_ENTRIES
    cache.TV_CHUNK_ENTRIES = chunk  # one anchor per block, several, or all at once
    try:
        cluster_set = cluster_rrhs(groups, threshold)
    finally:
        cache.TV_CHUNK_ENTRIES = original
    assert cluster_set.clusters == expected
    for rrh in groups:
        assert cluster_set.cooperating_set(rrh) == coop[rrh]


# ids around the valid range 1..n: 0, negatives and n + 1 are outside it
def cache_contents(n_contents):
    return st.frozensets(st.integers(-1, n_contents + 1), max_size=n_contents + 2)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n), st.integers(0, n), cache_contents(n),
    st.dictionaries(st.integers(0, 5), cache_contents(n), max_size=4))))
def test_cache_state_validate_raises_exactly_on_overflow_or_foreign_id(case):
    n_contents, cloud_capacity, rrh_capacity, cloud, rrh = case
    foreign = any(not 1 <= c <= n_contents for c in cloud.union(*rrh.values()))
    overflow = len(cloud) > cloud_capacity or any(len(c) > rrh_capacity for c in rrh.values())
    state = CacheState(cloud_capacity=cloud_capacity, rrh_capacity=rrh_capacity,
                       n_contents=n_contents)
    state.cloud, state.rrh = cloud, rrh
    if foreign or overflow:
        with pytest.raises(ConfigurationError):
            state.validate()
        with pytest.raises(ConfigurationError):
            CacheState(cloud_capacity, rrh_capacity, n_contents, cloud=cloud, rrh=rrh)
    else:
        state.validate()
        CacheState(cloud_capacity, rrh_capacity, n_contents, cloud=cloud, rrh=rrh)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n), st.integers(0, n),
    st.lists(st.integers(0, 4), min_size=1, max_size=5), st.integers(0, 2 ** 16))))
def test_selected_caches_always_validate(case):
    n_contents, cloud_capacity, rrh_capacity, users_per_rrh, seed = case
    rng = np.random.default_rng(seed)
    rrh = {}
    demand = np.zeros(n_contents)
    for r, users in enumerate(users_per_rrh):
        dists = rng.dirichlet(np.ones(n_contents), size=users)
        weights = rng.exponential(1.0, users)
        rrh[r] = select_rrh_cache(dists, weights, rrh_capacity, n_contents)
        demand += dists.sum(axis=0)
    cloud = select_cloud_cache(demand / max(1, sum(users_per_rrh)), cloud_capacity)
    CacheState(cloud_capacity, rrh_capacity, n_contents, cloud=cloud, rrh=rrh)


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
