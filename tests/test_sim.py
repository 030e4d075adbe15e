"""World stepping, path resolution, slot accounting, and policy behavior."""
import builtins
import copy
import itertools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from crancache import qos
from crancache.cache import CacheState, ClusterSet, content_mask, distribution_distance
from crancache.config import ExperimentConfig
from crancache.data import MobilitySchedule, draw_requests
from crancache.errors import InstanceTooLargeError
from crancache.qos import PATH_CLOUD, PATH_LOCAL, PATH_REMOTE, PATH_SERVER
from crancache.seeding import rng_for
from crancache.sim import episode
from crancache.sim import (POLICY_ORACLE, POLICY_PROPOSED,
                           POLICY_RANDOM_CLUSTERED, POLICY_RANDOM_UNCLUSTERED,
                           Simulation, check_oracle_guard, enumerate_best_subset,
                           nearest_rrh, oracle_search_space,
                           resolve_delivery_path, run_episode)


def tiny_config(**overrides):
    base = dict(N=6, R=3, U=4, C_c=2, C_r=1, T=60, T_tau=30, N_w=24,
                n_mc=24, archetypes=2, v_B=6e8, v_F=1.2e9)
    base.update(overrides)
    return ExperimentConfig.default(**base)


def desk_config():
    """The acceptance suite's desk_config."""
    return ExperimentConfig.default(N=24, R=12, U=16, C_c=6, C_r=3, T=120, T_tau=30, N_w=48,
                                    n_mc=48, archetypes=4, zipf_alpha=1.0, v_B=6e8, v_F=1.2e9)


# ---- mobility stepping ------------------------------------------------------

def test_zero_speed_position_unchanged():
    sched = MobilitySchedule(waypoints=np.array([[10.0, 20.0], [50.0, 60.0]]),
                             dwell_slots=np.array([0, 0]), speed=0.0)
    pos = sched.positions(5)
    assert np.allclose(pos, [10.0, 20.0])


def test_unit_vector_advance():
    sched = MobilitySchedule(waypoints=np.array([[0.0, 0.0], [30.0, 40.0]]),
                             dwell_slots=np.array([0, 0]), speed=5.0)
    pos = sched.positions(1)
    np.testing.assert_allclose(pos[0], [3.0, 4.0])


def test_waypoint_cycle_periodicity():
    sched = MobilitySchedule(waypoints=np.array([[0.0, 0.0], [100.0, 0.0],
                                                 [0.0, 80.0]]),
                             dwell_slots=np.array([1, 0, 2]), speed=30.0)
    p = sched.period()
    pos = sched.positions(4 * p)
    np.testing.assert_allclose(pos[:p], pos[p:2 * p])
    np.testing.assert_allclose(pos[:p], pos[3 * p:4 * p])


def test_nearest_rrh_resolution():
    rrhs = np.array([[0.0, 0.0], [100.0, 0.0]])
    assert nearest_rrh(np.array([[10.0, 0.0]]), rrhs)[0] == 0
    assert nearest_rrh(np.array([[90.0, 0.0]]), rrhs)[0] == 1


def test_nearest_rrh_matches_the_broadcast_squared_distance():
    """dx*dx + dy*dy is the two-term sum the (U, R, 2) form took, so the
    argmins agree, exact ties included: users on the mirror line x = 0 of an
    RRH pair are equally far from both, and the lower index wins."""
    rng = np.random.default_rng(12)
    rrhs = rng.uniform(-1000.0, 1000.0, (200, 2))
    rrhs[80:100, 0] = rng.uniform(1.0, 20.0, 20) * np.repeat([1.0, -1.0], 10)
    rrhs[100:120] = rrhs[80:100] * [-1.0, 1.0]  # mirrored across x = 0
    on_mirror = np.column_stack([np.zeros(20), rrhs[80:100, 1] + 1.0])
    users = np.vstack([rng.uniform(-1000.0, 1000.0, (300, 2)), on_mirror, rrhs[40:60]])
    d2 = ((users[:, None, :] - rrhs[None, :, :]) ** 2).sum(axis=2)
    expected = d2.argmin(axis=1)
    tied = expected[300:320] == np.arange(80, 100)  # the lower index of an equidistant pair
    assert tied[:10].sum() >= 8 and tied[10:].sum() >= 8  # both mirror orientations
    assert np.array_equal(nearest_rrh(users, rrhs), expected)


# ---- delivery-path table ----------------------------------------------------

def _state(cloud=(), local=(), remote=()):
    """Six contents; RRH 0 serves the request and RRH 1 is the remote one."""
    return CacheState(cloud_capacity=6, rrh_capacity=3, cloud=content_mask(cloud, 6),
                      rrh=np.stack([content_mask(local, 6), content_mask(remote, 6)]))


def test_path_priority_local_beats_cloud():
    st = _state(cloud=[3], local=[3])
    assert resolve_delivery_path(3, 0, st) == PATH_LOCAL


def test_path_uncached_goes_to_server():
    assert resolve_delivery_path(5, 0, _state()) == PATH_SERVER


def test_path_remote_only():
    st = _state(remote=[4])
    assert resolve_delivery_path(4, 0, st) == PATH_REMOTE


def test_path_table_enumeration():
    for in_local in (False, True):
        for in_cloud in (False, True):
            for in_remote in (False, True):
                st = _state(cloud=[2] if in_cloud else [],
                            local=[2] if in_local else [],
                            remote=[2] if in_remote else [])
                path = resolve_delivery_path(2, 0, st)
                if in_local:
                    assert path == PATH_LOCAL
                elif in_cloud:
                    assert path == PATH_CLOUD
                elif in_remote:
                    assert path == PATH_REMOTE
                else:
                    assert path == PATH_SERVER


# ---- slot accounting --------------------------------------------------------

def test_slot_accounting_no_caches_all_server():
    sim = Simulation(tiny_config(C_c=1, C_r=1), POLICY_PROPOSED, seed=2)
    sim.caches.rrh = np.zeros((sim.cfg["R"], sim.cfg["N"]), dtype=bool)
    sim.caches.cloud = np.zeros(sim.cfg["N"], dtype=bool)
    # peek at one slot without letting the policy place anything
    sim._update_rrh_caches = lambda *a, **k: None
    metrics = sim.run_slot(1)
    assert metrics.miss_server == 1.0
    assert metrics.n_backhaul == sim.cfg["U"]
    assert metrics.n_fronthaul == sim.cfg["U"]


def test_slot_accounting_fronthaul_counts_non_local_paths():
    cfg = tiny_config()
    for seed in range(3):
        report = run_episode(cfg, POLICY_PROPOSED, seed)
        for m in report.slots:
            u = cfg["U"]
            assert m.n_backhaul == round(m.miss_server * u)
            assert m.n_fronthaul == round((m.miss_server + m.hit_cloud
                                           + m.hit_remote) * u)
            assert m.hit_local + m.hit_cloud + m.hit_remote + m.miss_server == pytest.approx(1.0)


def test_all_local_hits_zero_wired_load():
    # single content catalog makes every cache hold the only content
    cfg = tiny_config(N=2, C_r=2, C_c=2, T=30, T_tau=30)
    report = run_episode(cfg, POLICY_PROPOSED, seed=1)
    late = report.slots[5:]
    assert all(m.n_backhaul == 0 for m in late)
    assert all(m.hit_local == 1.0 for m in late)


def test_static_users_run_a_full_episode():
    cfg = ExperimentConfig.default(N=24, R=12, U=16, C_c=6, C_r=3, T=120, T_tau=30,
                                   N_w=48, n_mc=48, archetypes=4, v_B=6e8, v_F=1.2e9,
                                   S=0.0)
    sim = Simulation(cfg, POLICY_PROPOSED, seed=0)
    tracks = sim.topology.tracks
    np.testing.assert_array_equal(tracks, np.broadcast_to(tracks[0], tracks.shape))
    report = sim.run()
    assert len(report.slots) == cfg["T"]
    assert np.isfinite(report.effective_capacity_avg)


def test_request_draw_stays_in_catalog_when_cdf_ends_short():
    cfg = tiny_config(U=16)
    n = cfg["N"]
    sim = Simulation(cfg, POLICY_PROPOSED, seed=0)
    sim.workload.table = np.full(sim.workload.table.shape, 0.5 / n)
    requests = draw_requests(sim.workload.distributions(1), rng_for(0, "requests", 1))
    assert min(requests) >= 1
    assert max(requests) == n  # draws past the CDF's end map to the last content
    sim.run_slot(1)  # the content ESNs train on these requests


def test_user_on_an_rrh_keeps_a_finite_slot():
    sim = Simulation(tiny_config(), POLICY_PROPOSED, seed=0)
    topology = sim.topology
    topology.tracks[:, 0] = topology.rrh_positions[1]
    for k in (1, 2):
        metrics = sim.run_slot(k)
        assert np.isfinite(metrics.effective_sum)


def test_channel_draws_use_previous_slot_clusters(monkeypatch):
    """Slot k's layout reads the ClusterSet formed in slot k - 1, which builds
    that layout once it has formed its clusters; slot 1 reads none."""
    sim = Simulation(tiny_config(), POLICY_PROPOSED, seed=1)
    building, read = [], {}  # the slot whose layout is being built; slot -> ClusterSets read
    cooperation = ClusterSet.cooperation
    channel_draw = Simulation._channel_draw

    def spy(self, rrhs):
        read[building[-1]].append(self)
        return cooperation(self, rrhs)

    def spy_channel_draw(self, slot):
        building.append(slot)
        read[slot] = []
        return channel_draw(self, slot)

    monkeypatch.setattr(ClusterSet, "cooperation", spy)
    monkeypatch.setattr(Simulation, "_channel_draw", spy_channel_draw)
    formed = {0: sim.cluster_set}  # slot 1 samples with singleton cooperation: no clusters
    assert len(formed[0].member) == 0
    for k in range(1, 6):
        sim.run_slot(k)
        assert sim.cluster_set is not formed[k - 1]
        formed[k] = sim.cluster_set
    assert sorted(read) == list(range(1, 7))  # slot 5 built slot 6's layout
    for k, clusters in read.items():
        assert len(clusters) == 1  # one cooperation mask per slot
        assert clusters[0] is formed[k - 1]


def test_run_is_deterministic():
    cfg = tiny_config()
    a = run_episode(cfg, POLICY_PROPOSED, seed=7)
    b = run_episode(cfg, POLICY_PROPOSED, seed=7)
    assert a.slot_csv() == b.slot_csv()
    assert a.summary_text() == b.summary_text()
    assert a.cloud_trace == b.cloud_trace
    c = run_episode(cfg, POLICY_PROPOSED, seed=8)
    assert a.slot_csv() != c.slot_csv()


# ---- policies ---------------------------------------------------------------

def test_random_unclustered_uses_singleton_cooperation():
    sim = Simulation(tiny_config(), POLICY_RANDOM_UNCLUSTERED, seed=1)
    sim.run_slot(1)
    assert sim.cluster_set.member.shape == (0, sim.cfg["R"])  # no clusters
    assert np.array_equal(sim.cluster_set.cooperation(np.array([0, 2])), np.eye(2, dtype=bool))
    assert sim.caches.rrh.sum(axis=1).tolist() == [sim.cfg["C_r"]] * sim.cfg["R"]


def test_random_clustered_runs_cluster_procedure():
    sim = Simulation(tiny_config(), POLICY_RANDOM_CLUSTERED, seed=1)
    sim.run_slot(1)
    assert len(sim.cluster_set.member) > 0
    assert set().union(*sim.cluster_set.clusters) == set(range(sim.cfg["R"]))


def test_cache_invariants_hold_through_episode():
    cfg = tiny_config(T=30, T_tau=30)
    sim = Simulation(cfg, POLICY_PROPOSED, seed=4)
    for k in range(1, 31):
        sim.run_slot(k)
        sim.caches.validate()
        assert sim.caches.cloud.shape == (cfg["N"],)
        assert sim.caches.rrh.shape == (cfg["R"], cfg["N"])
        assert sim.caches.cloud.sum() <= cfg["C_c"]
        assert (sim.caches.rrh.sum(axis=1) <= cfg["C_r"]).all()


def test_proposed_rrh_caches_do_not_go_stale():
    """Each slot replaces every RRH cache: an RRH whose users have all left
    holds nothing in the next slot."""
    cfg = tiny_config(R=4)
    sim = Simulation(cfg, POLICY_PROPOSED, seed=0)
    for slot, assoc in enumerate(([0, 0, 1, 1], [1, 1, 1, 1], [2, 3, 2, 3]), start=1):
        sim._assoc_for_caching = lambda serving, assoc=assoc: np.array(assoc)
        sim.run_slot(slot)
        held = sim.caches.rrh.sum(axis=1).tolist()
        assert held == [cfg["C_r"] if r in assoc else 0 for r in range(cfg["R"])]


@pytest.mark.parametrize("policy", [POLICY_RANDOM_CLUSTERED, POLICY_RANDOM_UNCLUSTERED])
def test_random_policies_fill_every_rrh_cache(policy):
    """More RRHs than users: the user-less RRHs hold a full random cache too."""
    cfg = tiny_config(R=12, T=30, T_tau=10)
    sim = Simulation(cfg, policy, seed=5)
    for slot in range(1, 31):
        sim.run_slot(slot)
        assert sim.caches.rrh.sum(axis=1).tolist() == [cfg["C_r"]] * cfg["R"]
    assert sim.caches.cloud.sum() == cfg["C_c"]
    assert [len(cloud) for _, cloud in sim.cloud_trace] == [cfg["C_c"]] * 3


def test_theorem2_equality_on_tiny_instances():
    for seed in range(3):
        cfg = tiny_config()
        proposed = run_episode(cfg, POLICY_PROPOSED, seed, oracle_predictions=True)
        oracle = run_episode(cfg, POLICY_ORACLE, seed)
        assert abs(proposed.effective_capacity_avg
                   - oracle.effective_capacity_avg) <= 1e-9


@pytest.mark.parametrize("seed", [0, 1])
def test_theorem2_equality_at_desk_scale(monkeypatch, seed):
    """Theorem 2 at the acceptance desk_config: proposed fed the true
    distributions equals the exhaustive oracle in E_bar. The joint search
    space, about 1e45 subsets, is past the guard, so this test lifts the
    limit; the oracle searches each RRH's and the cloud's subsets on their
    own (2024 and 134 596 of them)."""
    cfg = desk_config()
    space = oracle_search_space(cfg["N"], cfg["C_c"], cfg["C_r"], cfg["R"])
    monkeypatch.setattr(episode, "ORACLE_SEARCH_LIMIT", 10 ** math.ceil(space))
    proposed = run_episode(cfg, POLICY_PROPOSED, seed, oracle_predictions=True)
    oracle = run_episode(cfg, POLICY_ORACLE, seed)
    assert abs(proposed.effective_capacity_avg - oracle.effective_capacity_avg) <= 1e-9


def test_oracle_dominates_other_policies():
    # The oracle maximizes the expected per-slot objective; scored on sampled
    # requests, a converged competitor can edge it by realization noise, so
    # per-seed dominance carries a 0.1% tolerance and the means are strict.
    by_policy = {p: [] for p in (POLICY_PROPOSED, POLICY_RANDOM_CLUSTERED,
                                 POLICY_RANDOM_UNCLUSTERED)}
    oracle_vals = []
    for seed in range(5):
        cfg = tiny_config()
        oracle = run_episode(cfg, POLICY_ORACLE, seed).effective_capacity_avg
        oracle_vals.append(oracle)
        for policy in by_policy:
            other = run_episode(cfg, policy, seed).effective_capacity_avg
            by_policy[policy].append(other)
            assert oracle >= other * (1 - 1e-3), (seed, policy)
    for policy, vals in by_policy.items():
        assert np.mean(oracle_vals) >= np.mean(vals) - 1e-9, policy


def test_oracle_caches_modal_content_single_user():
    cfg = tiny_config(U=1, R=1, C_r=1, C_c=1, T=30, T_tau=30)
    sim = Simulation(cfg, POLICY_ORACLE, seed=3)
    sim.run_slot(1)
    dist = sim.workload.distribution(0, 1)
    assert np.flatnonzero(sim.caches.rrh[0]).tolist() == [int(np.argmax(dist))]


def test_full_rrh_capacity_caches_everything():
    cfg = tiny_config(N=4, C_r=4, C_c=2, T=30, T_tau=30)
    report = run_episode(cfg, POLICY_ORACLE, seed=1)
    assert all(m.hit_local == 1.0 for m in report.slots[2:])


def test_oracle_guard_blocks_large_instances():
    assert oracle_search_space(6, 2, 1, 3) == pytest.approx(np.log10(15 * 6 ** 3))
    check_oracle_guard(6, 2, 1, 3)
    with pytest.raises(InstanceTooLargeError):
        check_oracle_guard(50, 6, 3, 16)
    with pytest.raises(InstanceTooLargeError):
        Simulation(ExperimentConfig.default(), POLICY_ORACLE, seed=0)


def test_enumerate_best_subset_tie_breaks_low_ids():
    assert enumerate_best_subset(np.array([0.5, 0.5, 0.5]), 2) == frozenset([1, 2])
    assert enumerate_best_subset(np.array([0.1, 0.9, 0.2]), 1) == frozenset([2])


def test_proposed_beats_random_in_expectation():
    gaps_pc, gaps_cu = [], []
    cfg = ExperimentConfig.default(N=24, R=10, U=12, C_c=6, C_r=3, T=60,
                                   T_tau=30, N_w=32, n_mc=32, archetypes=4,
                                   v_B=6e8, v_F=1.2e9)
    for seed in range(5):
        p = run_episode(cfg, POLICY_PROPOSED, seed).effective_capacity_avg
        c = run_episode(cfg, POLICY_RANDOM_CLUSTERED, seed).effective_capacity_avg
        u = run_episode(cfg, POLICY_RANDOM_UNCLUSTERED, seed).effective_capacity_avg
        gaps_pc.append(p - c)
        gaps_cu.append(c - u)
    assert np.mean(gaps_pc) > 0
    assert np.mean(gaps_cu) > 0


def test_policies_build_only_the_predictors_they_read():
    cfg = tiny_config()
    learned = Simulation(cfg, POLICY_RANDOM_CLUSTERED, seed=0)
    assert learned.content_bank is not None and learned.mobility is not None
    bare = Simulation(cfg, POLICY_RANDOM_UNCLUSTERED, seed=0)
    assert bare.content_bank is None and bare.mobility is None
    oracle_fed = Simulation(cfg, POLICY_PROPOSED, seed=0, oracle_predictions=True)
    assert oracle_fed.content_bank is None and oracle_fed.mobility is None
    for sim in (learned, bare):
        sim.run()
        assert sim.demand_stream == []
        assert [s for s, _ in sim.cloud_trace] == [30, 60]


def test_predictor_quality_is_the_mean_tv_distance_of_the_predictions():
    cfg = tiny_config(T=6, T_tau=6)
    sim = Simulation(cfg, POLICY_PROPOSED, seed=2)
    for slot in range(1, 7):
        bank = copy.deepcopy(sim.content_bank)
        metrics = sim.run_slot(slot)
        predicted = bank.predict(sim.workload.contexts(slot))
        truth = [sim.workload.distribution(u, slot) for u in range(cfg["U"])]
        tv = [0.5 * np.abs(p - t).sum() for p, t in zip(predicted, truth)]
        assert metrics.tv_content == pytest.approx(np.mean(tv), rel=0, abs=1e-15)
        assert 0.0 < metrics.tv_content <= 1.0
        assert metrics.n_clusters == len(sim.cluster_set) == len(sim.cluster_set.clusters) >= 1


def test_predictor_csv_per_policy():
    cfg = tiny_config(T=30)
    proposed = run_episode(cfg, POLICY_PROPOSED, seed=1)
    lines = proposed.predictor_csv().splitlines()
    assert lines[0] == "k,tv_content,n_clusters"
    assert len(lines) == 31
    assert lines[1] == f"1,{proposed.slots[0].tv_content:.10g},{proposed.slots[0].n_clusters}"
    # predictions that are the true distributions are off by nothing
    fed = run_episode(cfg, POLICY_PROPOSED, seed=1, oracle_predictions=True)
    assert all(m.tv_content == 0.0 for m in fed.slots)
    bare = run_episode(cfg, POLICY_RANDOM_UNCLUSTERED, seed=1)
    assert bare.predictor_csv() is None
    assert all(m.tv_content is None and m.n_clusters is None for m in bare.slots)


def test_content_predictions_beat_the_uniform_guess_at_desk_scale():
    """Desk proposed episodes (the acceptance desk_config), seeds 0-2: over
    the last 40 of 120 slots the predictions lie nearer the true request
    distributions, in mean TV distance, than the uniform distribution does."""
    cfg = desk_config()
    uniform = np.full(cfg["N"], 1.0 / cfg["N"])
    for seed in range(3):
        sim = Simulation(cfg, POLICY_PROPOSED, seed)
        predicted, guessed = [], []
        for slot in range(1, cfg["T"] + 1):
            metrics = sim.run_slot(slot)
            if slot > cfg["T"] - 40:
                predicted.append(metrics.tv_content)
                truth = sim.workload.distributions(slot)
                guessed.append(distribution_distance(uniform, truth).mean())
        assert np.mean(predicted) < np.mean(guessed), (seed, np.mean(predicted), np.mean(guessed))


@pytest.mark.parametrize("policy", [POLICY_PROPOSED, POLICY_RANDOM_CLUSTERED])
def test_deep_copy_mid_episode_continues_bit_identically(policy):
    # T_tau = 10 puts several mobility retrains before and after the copy
    cfg = tiny_config(T=60, T_tau=10, H=2, N_tr=8, N_s=2, W=3)
    sim = Simulation(cfg, policy, seed=4)
    for slot in range(1, 26):
        sim.run_slot(slot)
    assert sim.mobility.prediction is not None
    twin = copy.deepcopy(sim)  # mid-episode: readouts fitted, slot 26's draw handed off
    for slot in range(26, 61):
        assert twin.run_slot(slot) == sim.run_slot(slot)
    for name in ("state", "states", "codes", "readouts", "prediction"):
        assert np.array_equal(getattr(twin.mobility, name), getattr(sim.mobility, name))
    assert twin.cloud_trace == sim.cloud_trace


@pytest.mark.parametrize("policy", [POLICY_PROPOSED, POLICY_RANDOM_CLUSTERED,
                                    POLICY_RANDOM_UNCLUSTERED, POLICY_ORACLE])
def test_empty_caches_run_a_full_episode(policy):
    sim = Simulation(tiny_config(C_c=0, C_r=0), policy, seed=0)
    report = sim.run()
    assert len(report.slots) == 60
    assert all(m.miss_server == 1.0 and m.n_backhaul == 4 for m in report.slots)
    assert all(cloud == () for _, cloud in report.cloud_trace)
    assert sim.caches.rrh.shape == (3, 6) and not sim.caches.rrh.any()
    assert np.isfinite(report.effective_capacity_avg)


def test_content_reservoir_has_a_stream_of_its_own():
    bank = Simulation(tiny_config(), POLICY_PROPOSED, seed=3).content_bank
    rng = rng_for(3, "reservoir")
    assert np.array_equal(bank.input_weights, rng.uniform(-1.0, 1.0, (24, 7)))
    # then the cycle weights: +/- the spectral radius, one sign per unit
    assert np.array_equal(bank.reservoir_weights, 0.9 * rng.choice([-1.0, 1.0], size=24))
    # the one readout shared by all users draws nothing: it starts at zero
    assert np.array_equal(bank.output_weights, np.zeros((6, 24 + 7)))


# ---- the fading worker ----------------------------------------------------------

def spy_on_fading(monkeypatch):
    """Record the PairLayout of each fading draw an episode starts, and every
    callable handed to the fading worker with the future it returned."""
    seen = {"layouts": [], "callables": [], "futures": []}
    submit = qos._FADING_WORKER.submit
    start_draw = episode.fading_block

    def spy_submit(fn, *args, **kwargs):
        seen["callables"].append(fn)
        seen["futures"].append(submit(fn, *args, **kwargs))
        return seen["futures"][-1]

    def spy_start_draw(layout, rng):
        seen["layouts"].append(layout)
        return start_draw(layout, rng)

    monkeypatch.setattr(qos._FADING_WORKER, "submit", spy_submit)
    monkeypatch.setattr(episode, "fading_block", spy_start_draw)
    return seen


def on_the_worker(layout):
    """Whether the layout's fading is too large to draw inline."""
    return layout.gains.size * layout.n_mc > qos.MAX_INLINE_FADING_ENTRIES


@pytest.mark.parametrize("policy", [POLICY_PROPOSED, POLICY_RANDOM_CLUSTERED,
                                    POLICY_RANDOM_UNCLUSTERED])
def test_fading_worker_matches_inline_draws(monkeypatch, policy):
    inline = run_episode(tiny_config(), policy, seed=2)
    seen = spy_on_fading(monkeypatch)
    monkeypatch.setattr(qos, "MAX_INLINE_FADING_ENTRIES", 1)  # every slot on the worker
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often between hand-offs and reads
    try:
        handed_off = run_episode(tiny_config(), policy, seed=2)
    finally:
        sys.setswitchinterval(interval)
    assert len(seen["layouts"]) == 60
    assert seen["callables"] == [qos._draw_fading] * 60  # one job per slot
    assert handed_off.slot_csv() == inline.slot_csv()
    assert handed_off.predictor_csv() == inline.predictor_csv()
    assert handed_off.cloud_trace == inline.cloud_trace


def default_size_simulation():
    """Parameter-table slot sizes (U = 32, R = 1000, n_mc = 64) at a small reservoir."""
    return Simulation(ExperimentConfig.default(T=60, N_w=16), POLICY_PROPOSED, seed=0)


def test_fading_worker_matches_inline_draws_at_default_size(monkeypatch):
    sim = default_size_simulation()
    twin = copy.deepcopy(sim)
    seen = spy_on_fading(monkeypatch)
    handed_off = [sim.run_slot(slot) for slot in range(1, 4)]
    assert all(on_the_worker(layout) for layout in seen["layouts"])
    monkeypatch.setattr(qos, "MAX_INLINE_FADING_ENTRIES", 1 << 40)  # every slot inline
    seen["callables"].clear()
    inline = [twin.run_slot(slot) for slot in range(1, 4)]
    assert not seen["callables"]
    assert handed_off == inline
    assert np.array_equal(twin.caches.rrh, sim.caches.rrh)


def test_fading_worker_runs_one_numpy_only_job_per_draw(monkeypatch):
    """A spy on the worker's submit sees every hand-off, whether or not an
    earlier test already started the worker's thread. Each draw too large to
    run inline is one job, the private fading helper, and the helper looks
    up no package callable: it calls numpy only (test_bank_pool.py checks
    the frames the worker runs)."""
    seen = spy_on_fading(monkeypatch)
    sim = default_size_simulation()
    for slot in range(1, 4):
        sim.run_slot(slot)
    assert len(seen["layouts"]) == 4  # slot 3 handed off slot 4's draw
    worker_draws = sum(on_the_worker(layout) for layout in seen["layouts"])
    assert worker_draws >= 1
    assert seen["callables"] == [qos._draw_fading] * worker_draws
    for name in qos._draw_fading.__code__.co_names:
        found = vars(qos).get(name, getattr(builtins, name, None))
        assert not getattr(found, "__module__", "").startswith("crancache"), name


class DrawFailed(Exception):
    pass


class FailingChannel:
    """A channel generator whose exponential draws raise."""

    def standard_exponential(self, *args, **kwargs):
        raise DrawFailed("no fading")


def test_fading_worker_exception_reaches_the_caller(monkeypatch):
    seen = spy_on_fading(monkeypatch)
    monkeypatch.setattr(qos, "MAX_INLINE_FADING_ENTRIES", 1)
    monkeypatch.setattr(episode, "rng_for", lambda seed, purpose, *keys: (
        FailingChannel() if purpose == "channel" else rng_for(seed, purpose, *keys)))
    sim = Simulation(tiny_config(), POLICY_PROPOSED, seed=0)
    with pytest.raises(DrawFailed):
        sim.run_slot(1)
    assert seen["callables"]  # the failing draw ran on the worker
    # nothing is left queued: the worker takes the next job at once
    assert qos._FADING_WORKER.submit(int).result(timeout=30) == 0


class PredictFailed(Exception):
    pass


def test_exception_in_the_slot_leaves_the_fading_worker_idle(monkeypatch):
    seen = spy_on_fading(monkeypatch)
    sim = default_size_simulation()

    def failing_predict(contexts):
        raise PredictFailed("no prediction")

    monkeypatch.setattr(sim.content_bank, "predict", failing_predict)
    with pytest.raises(PredictFailed):
        sim.run_slot(1)
    assert len(seen["futures"]) == 1  # slot 1 handed its fading to the worker
    # leaving the slot cancelled or waited for the job
    assert all(future.done() for future in seen["futures"])
    assert qos._FADING_WORKER.submit(int).result(timeout=30) == 0


def hold_the_worker_after(monkeypatch, calls):
    """After the `calls`-th capacity_from_fading, queue a job that holds the
    fading worker until the returned event is set (or 30 s pass), so the draw
    that slot hands off next waits on the worker's queue."""
    gate = threading.Event()
    accumulate = episode.capacity_from_fading
    count = itertools.count(1)

    def spy_accumulate(signal, interference, radio):
        if next(count) == calls:  # the class's submit, past any spy on the instance's
            ThreadPoolExecutor.submit(qos._FADING_WORKER, gate.wait, 30)
        return accumulate(signal, interference, radio)

    monkeypatch.setattr(episode, "capacity_from_fading", spy_accumulate)
    return gate


def test_deep_copy_with_a_worker_draw_pending_continues_bit_identically(monkeypatch):
    """A deep copy taken while the worker still holds the next slot's draw
    holds no draw and leaves the original's jobs alone: it draws slot 4
    itself, from the same clusters and generator, and continues bit for bit."""
    seen = spy_on_fading(monkeypatch)
    gate = hold_the_worker_after(monkeypatch, 3)  # slot 4's draw waits behind it
    signals = []
    accumulate = episode.capacity_from_fading
    monkeypatch.setattr(episode, "capacity_from_fading", lambda signal, interference, radio: (
        signals.append(signal) or accumulate(signal, interference, radio)))
    sim = default_size_simulation()
    try:
        for slot in range(1, 4):
            sim.run_slot(slot)
        handed_off = seen["futures"][3:]
        assert len(handed_off) == 1
        twin = copy.deepcopy(sim)  # while the worker is held
        assert twin._handed_off is None and sim._handed_off[0] == 4
        assert len(seen["futures"]) == 4  # the copy started no job
        assert not any(job.done() or job.cancelled() for job in handed_off)
    finally:
        gate.set()
    for slot in range(4, 32):  # past the slot-30 cloud refresh
        assert twin.run_slot(slot) == sim.run_slot(slot)
    assert all(job.done() and not job.cancelled() for job in handed_off)
    assert all(on_the_worker(layout) for layout in seen["layouts"])
    assert not np.shares_memory(signals[3], signals[4])  # slot 4: the twin's, then the original's
    assert np.array_equal(twin.caches.rrh, sim.caches.rrh)
    assert twin.cloud_trace == sim.cloud_trace


class TrainFailed(Exception):
    pass


def test_exception_after_the_hand_off_leaves_the_fading_worker_idle(monkeypatch):
    seen = spy_on_fading(monkeypatch)
    gate = hold_the_worker_after(monkeypatch, 1)  # slot 2's draw waits behind it
    sim = default_size_simulation()

    def failing_train_step(observed):
        raise TrainFailed("no training")

    monkeypatch.setattr(sim.content_bank, "train_step", failing_train_step)
    try:
        with pytest.raises(TrainFailed):
            sim.run_slot(1)
        # slot 1's job, then the one of the draw it handed off for slot 2,
        # which the failing slot cancelled while it waited
        assert len(seen["futures"]) == 2
        assert all(future.done() for future in seen["futures"])
    finally:
        gate.set()
    assert qos._FADING_WORKER.submit(int).result(timeout=30) == 0


@pytest.mark.parametrize("inline_entries", [qos.MAX_INLINE_FADING_ENTRIES, 1])
def test_handed_off_draw_exception_comes_out_of_the_slot_that_reads_it(monkeypatch,
                                                                       inline_entries):
    seen = spy_on_fading(monkeypatch)
    monkeypatch.setattr(qos, "MAX_INLINE_FADING_ENTRIES", inline_entries)  # 1: on the worker
    monkeypatch.setattr(episode, "rng_for", lambda seed, purpose, *keys: (
        FailingChannel() if (purpose, keys) == ("channel", (2,))
        else rng_for(seed, purpose, *keys)))
    sim = Simulation(tiny_config(), POLICY_PROPOSED, seed=0)
    sim.run_slot(1)  # hands off slot 2's draw, which fails
    with pytest.raises(DrawFailed):
        sim.run_slot(2)
    assert len(seen["futures"]) == (2 if inline_entries == 1 else 0)
    assert all(future.done() for future in seen["futures"])
    assert qos._FADING_WORKER.submit(int).result(timeout=30) == 0


def test_a_slot_run_out_of_turn_draws_its_own_fading(monkeypatch):
    """run_slot(3) straight after run_slot(1) discards the draw handed off for
    slot 2 and draws slot 3 itself: the layout under slot 1's clusters, the
    fading from slot 3's own generator."""
    seen = spy_on_fading(monkeypatch)
    taken = []
    accumulate = episode.capacity_from_fading
    monkeypatch.setattr(episode, "capacity_from_fading", lambda signal, interference, radio: (
        taken.append((signal.copy(), interference.copy()))
        or accumulate(signal, interference, radio)))
    monkeypatch.setattr(qos, "MAX_INLINE_FADING_ENTRIES", 1)  # every draw on the worker
    sim = Simulation(tiny_config(), POLICY_PROPOSED, seed=5)
    sim.run_slot(1)
    slot_2 = seen["futures"][1:]
    assert len(slot_2) == 1
    sim._channel_draw(3)[1].discard()  # built under slot 1's clusters
    expected = seen["layouts"][-1]
    submitted = len(seen["futures"])
    sim.run_slot(3)
    assert all(job.done() for job in slot_2)
    assert len(seen["futures"]) == submitted + 2  # slot 3's own draw, then slot 4's
    layout = seen["layouts"][-2]  # slot 3's, then slot 4's
    for name in ("users", "serves", "gains"):
        assert np.array_equal(getattr(layout, name), getattr(expected, name))
    monkeypatch.undo()  # the reference runs inline, past every spy
    with qos.fading_block(layout, rng_for(5, "channel", 3)) as fading:
        signal, interference = fading.take()
    assert np.array_equal(taken[-1][0], signal)
    assert np.array_equal(taken[-1][1], interference)


def test_a_slot_holds_far_less_than_its_whole_fading_block(monkeypatch):
    """At U = 64 the traced peak of slot 1, which draws its own fading and
    hands off slot 2's, stays well below the slot's whole (pairs, n_mc,
    SLOT_SUBSTEPS) block: the fading is drawn in groups of whole users and
    summed per user as it goes."""
    seen = spy_on_fading(monkeypatch)
    sim = Simulation(ExperimentConfig.default(U=64, T=4, T_tau=4, N_w=16), POLICY_PROPOSED,
                     seed=0)
    tracemalloc.start()
    try:
        sim.run_slot(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    layout = seen["layouts"][0]
    block_bytes = layout.gains.size * layout.n_mc * 8
    assert block_bytes > 16e6  # 20.3 MB: a block worth the guard
    assert peak < block_bytes / 4
