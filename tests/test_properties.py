"""Property tests: greedy selections and the cooperating-set map."""
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from crancache.cache import ClusterSet, top_k_contents
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
