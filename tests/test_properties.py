"""Property tests: greedy selections, clustering and the cooperating-set map."""
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from crancache import cache
from crancache.cache import ClusterSet, cluster_rrhs, top_k_contents
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
