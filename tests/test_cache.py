"""Sample sizing, popularity estimation, clustering, and cache selection."""
import warnings
from itertools import combinations

import numpy as np
import pytest

from crancache.cache import (CacheState, SamplingPlan, cluster_rrhs, content_mask,
                             distribution_distance, estimate_popularity,
                             hoeffding_sample_size, select_cloud_cache,
                             select_rrh_cache, update_distribution)
from crancache.errors import ConfigurationError


def test_hoeffding_reported_values():
    assert hoeffding_sample_size(0.05, 0.05) == 600
    assert hoeffding_sample_size(0.03, 0.05) == 1665
    assert hoeffding_sample_size(0.2, 1.0) == 0


def test_hoeffding_monotone_in_both_parameters():
    eps = [0.01, 0.03, 0.05, 0.1, 0.3]
    for d in (0.01, 0.05, 0.2):
        sizes = [hoeffding_sample_size(e, d) for e in eps]
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))
    deltas = [0.01, 0.05, 0.2, 0.5, 1.0]
    for e in (0.02, 0.05):
        sizes = [hoeffding_sample_size(e, d) for d in deltas]
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))


def test_hoeffding_rejects_out_of_range():
    for eps, d in [(0.0, 0.05), (1.0, 0.05), (0.05, 0.0), (0.05, 1.5), (-0.1, 0.5)]:
        with pytest.raises(ConfigurationError):
            hoeffding_sample_size(eps, d)


def test_estimate_constant_distribution_exact():
    p = np.array([0.5, 0.3, 0.2])
    dists = np.tile(p, (2000, 1))
    weights = np.full(2000, 2.5)
    plan = SamplingPlan(epsilon=0.05, delta=0.05)
    est = estimate_popularity(dists, weights, plan, seed=1)
    np.testing.assert_allclose(est, p * 2.5, rtol=1e-12)


def test_estimate_full_scan_fallback_equals_weighted_mean():
    rng = np.random.default_rng(2)
    dists = rng.dirichlet(np.ones(5), size=40)  # fewer rows than the plan needs
    weights = rng.uniform(0.5, 2.0, 40)
    plan = SamplingPlan(epsilon=0.05, delta=0.05)
    est = estimate_popularity(dists, weights, plan, seed=3)
    np.testing.assert_allclose(est, (dists * weights[:, None]).mean(axis=0))


def test_estimate_coverage_meets_confidence():
    # Bernoulli-like coordinate: estimate within epsilon with frequency >= 1-delta
    plan = SamplingPlan(epsilon=0.05, delta=0.05)
    rng = np.random.default_rng(10)
    population = (rng.random(4000) < 0.4).astype(float)[:, None]
    weights = np.ones(4000)
    truth = population.mean()
    failures = 0
    trials = 1000
    for t in range(trials):
        est = estimate_popularity(population, weights, plan, seed=5000 + t)
        failures += abs(est[0] - truth) > plan.epsilon
    assert failures / trials <= plan.delta + 0.02


def test_estimate_stratified_is_deterministic_and_balanced():
    rng = np.random.default_rng(4)
    dists = rng.dirichlet(np.ones(3), size=3000)
    weights = np.ones(3000)
    strata = np.repeat(np.arange(30), 100)
    plan = SamplingPlan(epsilon=0.05, delta=0.05)
    a = estimate_popularity(dists, weights, plan, seed=7, strata=strata)
    b = estimate_popularity(dists, weights, plan, seed=7, strata=strata)
    np.testing.assert_array_equal(a, b)
    truth = dists.mean(axis=0)
    assert np.abs(a - truth).max() < plan.epsilon


@pytest.mark.parametrize("strata", [None, np.repeat(np.arange(4), 10)])
def test_estimate_zero_sample_plan_draws_one_item(strata):
    """At delta = 1 the Hoeffding size is 0; both paths still draw one row."""
    rng = np.random.default_rng(6)
    dists = rng.dirichlet(np.ones(5), size=40)
    weights = rng.uniform(0.5, 2.0, 40)
    plan = SamplingPlan(epsilon=0.2, delta=1.0)
    assert plan.sample_size == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_popularity(dists, weights, plan, seed=3, strata=strata)
    assert any(np.array_equal(est, row) for row in dists * weights[:, None])


@pytest.mark.parametrize("n, epsilon, delta, m", [(4000, 0.05, 0.05, 600), (100, 0.3, 0.5, 4)])
def test_estimate_unstratified_draw_is_one_plain_choice(n, epsilon, delta, m):
    """Without strata the sample is the rows of one choice(n, m) on the seed's generator."""
    rng = np.random.default_rng(9)
    dists = rng.dirichlet(np.ones(5), size=n)
    weights = rng.uniform(0.5, 2.0, n)
    plan = SamplingPlan(epsilon=epsilon, delta=delta)
    assert plan.sample_size == m
    for seed in range(3):
        rows = np.random.default_rng(seed).choice(n, m, replace=False)
        expected = (dists[rows] * weights[rows][:, None]).mean(axis=0)
        assert np.array_equal(estimate_popularity(dists, weights, plan, seed), expected)


def test_tv_distance_examples():
    assert distribution_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert distribution_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert distribution_distance([0.5, 0.5, 0.0], [0.25, 0.25, 0.5]) == pytest.approx(0.5)
    with pytest.raises(ConfigurationError):
        distribution_distance([0.5, 0.5], [1.0])


def test_tv_distance_metric_axioms_on_random_triples():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        p, q, r = rng.dirichlet(np.ones(n), size=3)
        dpq = distribution_distance(p, q)
        assert dpq == pytest.approx(distribution_distance(q, p))
        assert distribution_distance(p, p) == 0.0
        assert dpq <= distribution_distance(p, r) + distribution_distance(r, q) + 1e-12
        assert 0.0 <= dpq <= 1.0 + 1e-12


def test_tv_distance_rows_equal_one_dimensional_calls():
    rng = np.random.default_rng(8)
    p = rng.dirichlet(np.ones(9), size=(4, 1))
    q = rng.dirichlet(np.ones(9), size=6)
    rows = distribution_distance(p, q)  # every p row against every q row
    assert rows.shape == (4, 6)
    for i in range(4):
        for j in range(6):
            assert rows[i, j] == distribution_distance(p[i, 0], q[j])
    assert isinstance(distribution_distance(p[0, 0], q[0]), float)


def test_cluster_worked_example():
    p1 = np.array([1.0, 0.0, 0.0])
    p2 = np.array([0.0, 1.0, 0.0])
    # RRH 0 hosts a p1 and a p2 user, RRH 1 a p1 user, RRH 2 a p2 user
    clusters = cluster_rrhs([0, 0, 1, 2], [p1, p2, p1, p2], threshold=0.1, n_rrhs=3)
    assert (0, 1) in clusters.clusters
    assert (0, 2) in clusters.clusters
    assert set().union(*clusters.clusters) == {0, 1, 2}


def test_cluster_all_far_gives_singletons():
    clusters = cluster_rrhs(np.arange(4), np.eye(4), threshold=0.5, n_rrhs=4)
    assert sorted(clusters.clusters) == [(0,), (1,), (2,), (3,)]


def test_cluster_close_triple_merges():
    base = np.array([0.5, 0.3, 0.2])
    dists = [base + np.array([eps, -eps, 0.0]) for eps in (0.0, 0.05, -0.05)]
    clusters = cluster_rrhs(np.arange(3), dists, threshold=0.85, n_rrhs=3)
    assert clusters.clusters == [(0, 1, 2)]


def test_cluster_userless_rrh_gets_singleton_and_cover_holds():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n_rrh = int(rng.integers(2, 8))
        assoc = np.repeat(np.arange(n_rrh), rng.integers(0, 3, n_rrh))  # 0 to 2 users each
        dists = rng.dirichlet(np.ones(4), size=len(assoc))
        clusters = cluster_rrhs(assoc, dists, threshold=float(rng.uniform(0.05, 0.9)),
                                n_rrhs=n_rrh)
        assert set().union(*clusters.clusters) == set(range(n_rrh))


def test_select_rrh_cache_single_user_argmax():
    picked = select_rrh_cache([np.array([0.5, 0.3, 0.2])], [1.0], 1, 3)
    assert picked == frozenset([1])


def test_select_rrh_cache_weighting_decides():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    picked = select_rrh_cache([a, b], [0.3, 2.0], 1, 2)
    assert picked == frozenset([2])  # higher-capacity user wins


def test_select_rrh_cache_tie_breaks_low_id():
    p = np.array([0.2, 0.3, 0.1, 0.1, 0.3])
    picked = select_rrh_cache([p], [1.0], 1, 5)
    assert picked == frozenset([2])  # ids 2 and 5 tie on 0.3


def test_select_rrh_cache_no_users_and_overflow():
    assert select_rrh_cache([], [], 2, 5) == frozenset()
    with pytest.raises(ConfigurationError):
        select_rrh_cache([np.ones(3) / 3], [1.0], 4, 3)


def _brute_force_best(scores, k):
    best, best_val = None, -np.inf
    for combo in combinations(range(len(scores)), k):
        val = sum(scores[i] for i in combo)
        if val > best_val:
            best_val, best = val, frozenset(c + 1 for c in combo)
    return best


def test_topk_matches_exhaustive_on_random_instances():
    rng = np.random.default_rng(9)
    for _ in range(500):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, n + 1))
        n_users = int(rng.integers(1, 5))
        dists = rng.dirichlet(np.ones(n), size=n_users)
        weights = rng.uniform(0.1, 3.0, n_users)
        picked = select_rrh_cache(list(dists), list(weights), k, n)
        scores = (dists * weights[:, None]).sum(axis=0) / n_users
        assert sum(scores[i - 1] for i in picked) == pytest.approx(
            sum(scores[i - 1] for i in _brute_force_best(scores, k)))


def test_update_distribution_examples():
    p = np.array([0.5, 0.3, 0.2])
    np.testing.assert_array_equal(update_distribution(p, np.zeros(3, dtype=bool)), p)
    np.testing.assert_array_equal(update_distribution(p, np.ones(3, dtype=bool)), np.zeros(3))
    np.testing.assert_array_equal(update_distribution(p, content_mask({1}, 3)), [0.0, 0.3, 0.2])
    # no renormalization: the result is a demand measure
    assert update_distribution(p, content_mask({1}, 3)).sum() == pytest.approx(0.5)
    # rows of demand pair with rows of cache masks
    rows = update_distribution(np.stack([p, p[::-1]]), np.array([[1, 0, 0], [0, 0, 1]], dtype=bool))
    np.testing.assert_array_equal(rows, [[0.0, 0.3, 0.2], [0.2, 0.3, 0.0]])


def test_select_cloud_cache_examples():
    assert select_cloud_cache([0.1, 0.4, 0.3, 0.2], 2) == frozenset([2, 3])
    assert select_cloud_cache(np.full(6, 0.25), 3) == frozenset([1, 2, 3])
    with pytest.raises(ConfigurationError):
        select_cloud_cache([0.5, 0.5], 3)


def test_select_cloud_matches_exhaustive():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, n + 1))
        pop = rng.uniform(0, 1, n)
        picked = select_cloud_cache(pop, k)
        assert sum(pop[i - 1] for i in picked) == pytest.approx(
            sum(pop[i - 1] for i in _brute_force_best(pop, k)))


def _masks(ids_per_row, n_contents=5):
    return np.array([content_mask(ids, n_contents) for ids in ids_per_row], dtype=bool)


def test_cache_state_invariants():
    state = CacheState(cloud_capacity=2, rrh_capacity=1,
                       cloud=content_mask([1, 5], 5), rrh=_masks([[3]]))
    state.validate()
    with pytest.raises(ConfigurationError, match="cloud cache exceeds"):
        CacheState(cloud_capacity=1, rrh_capacity=1,
                   cloud=content_mask([1, 2], 5), rrh=_masks([[]]))
    # a catalog one content wider than the RRH masks
    with pytest.raises(ConfigurationError, match="cache masks must be"):
        CacheState(cloud_capacity=2, rrh_capacity=1,
                   cloud=content_mask([6], 6), rrh=_masks([[2], [3]]))
    with pytest.raises(ConfigurationError, match="cache masks must be"):
        CacheState(cloud_capacity=2, rrh_capacity=1,
                   cloud=content_mask([1], 5), rrh=_masks([[2], [3]]).astype(int))
    with pytest.raises(ConfigurationError, match="RRH 1 cache exceeds"):
        CacheState(cloud_capacity=2, rrh_capacity=1,
                   cloud=content_mask([], 5), rrh=_masks([[2], [3, 4]]))
