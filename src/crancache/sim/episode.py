"""Slot-by-slot episode execution for the caching policies.

Per slot: advance mobility, refresh per-user predictions, update RRH caches
and clusters, realize one request per user, resolve delivery paths, split the
wired pipes over the realized load, and score per-user effective capacities.
Caches are boolean masks over the catalog (see CacheState) and delivery
paths are the integer codes of the qos module, so each of these steps is one
array pass over the users.
A policy that reads predictions also records their quality per slot: the
mean total-variation distance to the true distributions and the number of
RRH clusters (`EpisodeReport.predictor_csv`).
Every cloud-update period: retrain the mobility readouts, estimate the
fronthaul-demand popularity from a bounded sample of the users' demand rows
since the last refresh, and refresh the cloud cache.

Policies: "proposed" (prediction-driven greedy selections), two random
baselines (with/without clustering), and "optimal_oracle" (per-decision
exhaustive subset search fed with ground-truth knowledge, gated by instance
size). A slot draws its requests, fading and random caches from one generator
per purpose, rng_for(seed, purpose, slot, ...), so every policy sees the same
requests; fading is drawn only for the RRHs a user hears.

Effective capacities are scored with slot service measured in Mbit so the
default exponent theta = 0.05 sits in the discriminating regime of the
log-MGF (see qos module notes); reported sums are in Mbit per slot.
"""
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ..cache import (CacheState, SamplingPlan, cluster_rrhs, content_mask,
                     distribution_distance, estimate_popularity, random_caches,
                     rrh_popularities, select_cloud_cache, select_rrh_caches,
                     update_distribution)
from ..config import ExperimentConfig
from ..data import draw_requests, generate_mobility, generate_workload
from ..errors import ConfigurationError, InstanceTooLargeError
from ..esn import ContentEsnBank, LocationGrid, MobilityEsnBank
from ..qos import (PATH_CLOUD, PATH_LOCAL, PATH_REMOTE, PATH_SERVER, RadioParams,
                   WiredParams, effective_capacity_rows,
                   map_qos_exponents_lenient, per_content_rate,
                   segment_capacity_rows, sum_effective_capacity)
from ..seeding import rng_for
from .world import build_topology, nearest_rrh, resolve_delivery_path

POLICY_PROPOSED = "proposed"
POLICY_RANDOM_CLUSTERED = "random_clustered"
POLICY_RANDOM_UNCLUSTERED = "random_unclustered"
POLICY_ORACLE = "optimal_oracle"
RANDOM_POLICIES = (POLICY_RANDOM_CLUSTERED, POLICY_RANDOM_UNCLUSTERED)

ORACLE_SEARCH_LIMIT = 10 ** 6
CAPACITY_UNIT = 1e-6  # slot service scored in Mbit


@dataclass
class SlotMetrics:
    slot: int
    effective_sum: float
    hit_local: float
    hit_cloud: float
    hit_remote: float
    miss_server: float
    n_backhaul: int
    n_fronthaul: int
    infeasible: int
    # predictor quality; None when the policy reads no prediction
    tv_content: float | None = None  # mean over users of TV(predicted, true distribution)
    n_clusters: int | None = None    # RRH clusters formed from the predictions


@dataclass
class EpisodeReport:
    policy: str
    seed: int
    effective_capacity_avg: float
    slots: list
    cloud_trace: list            # (slot, sorted content ids) at each refresh

    def slot_csv(self):
        lines = ["k,E_k,hit_O,hit_A,hit_G,miss_S,N_B,N_F"]
        for m in self.slots:
            lines.append(
                f"{m.slot},{m.effective_sum:.10g},{m.hit_local:.6g},{m.hit_cloud:.6g},"
                f"{m.hit_remote:.6g},{m.miss_server:.6g},{m.n_backhaul},{m.n_fronthaul}"
            )
        return "\n".join(lines) + "\n"

    def predictor_csv(self):
        """Per-slot predictor quality, or None when the policy reads no prediction."""
        if any(m.tv_content is None for m in self.slots):
            return None
        lines = ["k,tv_content,n_clusters"]
        lines += [f"{m.slot},{m.tv_content:.10g},{m.n_clusters}" for m in self.slots]
        return "\n".join(lines) + "\n"

    def summary_text(self):
        n = max(len(self.slots), 1)
        lines = [
            f"policy = {self.policy}",
            f"seed = {self.seed}",
            f"E_bar = {self.effective_capacity_avg:.10g}",
            f"slots = {len(self.slots)}",
            f"hit_O = {sum(m.hit_local for m in self.slots) / n:.6g}",
            f"hit_A = {sum(m.hit_cloud for m in self.slots) / n:.6g}",
            f"hit_G = {sum(m.hit_remote for m in self.slots) / n:.6g}",
            f"miss_S = {sum(m.miss_server for m in self.slots) / n:.6g}",
            f"infeasible = {sum(m.infeasible for m in self.slots)}",
        ]
        return "\n".join(lines) + "\n"


def oracle_search_space(n_contents, cloud_slots, rrh_slots, n_rrhs):
    """log10 of the joint subset space C(N,C_c) * C(N,C_r)^R."""
    return (math.log10(math.comb(n_contents, cloud_slots))
            + n_rrhs * math.log10(math.comb(n_contents, rrh_slots)))


def check_oracle_guard(n_contents, cloud_slots, rrh_slots, n_rrhs):
    log_space = oracle_search_space(n_contents, cloud_slots, rrh_slots, n_rrhs)
    if log_space > math.log10(ORACLE_SEARCH_LIMIT):
        raise InstanceTooLargeError(
            f"oracle search space ~1e{log_space:.0f} exceeds {ORACLE_SEARCH_LIMIT}"
        )


def enumerate_best_subset(scores, k):
    """Exhaustive argmax of sum(scores) over k-subsets; first max wins.

    combinations() yields subsets in lexicographic order, so ties resolve to
    the lowest content ids, matching the greedy selections.
    """
    n = len(scores)
    best_val, best = -math.inf, frozenset()
    for combo in combinations(range(n), k):
        val = sum(scores[i] for i in combo)
        if val > best_val:
            best_val, best = val, frozenset(c + 1 for c in combo)
    return best


class Simulation:
    """One seeded episode of one policy over T slots."""

    def __init__(self, config: ExperimentConfig, policy, seed,
                 oracle_predictions=False):
        if policy not in (POLICY_PROPOSED, POLICY_RANDOM_CLUSTERED,
                          POLICY_RANDOM_UNCLUSTERED, POLICY_ORACLE):
            raise ConfigurationError(f"unknown policy {policy!r}")
        self.cfg = config
        self.policy = policy
        self.seed = int(seed)
        self.oracle_like = policy == POLICY_ORACLE or oracle_predictions
        if policy == POLICY_ORACLE:
            check_oracle_guard(config["N"], config["C_c"], config["C_r"], config["R"])

        self.radio = RadioParams(tx_power_dbm=config["P"],
                                 pathloss_exponent=config["beta"],
                                 noise_dbm=config["sigma2"],
                                 bandwidth_hz=config["B"],
                                 cell_radius_m=config["r"])
        self.wired = WiredParams(backhaul_rate=config["v_B"],
                                 fronthaul_rate=config["v_F"],
                                 content_size=config["L"],
                                 delay_bound=config["D_max"])
        self.theta_O = config["theta_s_O"]
        self.n_mc = config["n_mc"]
        self.plan = SamplingPlan(epsilon=config["epsilon"], delta=config["delta"])

        self.workload = generate_workload(config["U"], config["N"],
                                          config["zipf_alpha"],
                                          config["archetypes"], self.seed)
        schedules = generate_mobility(config["U"], config["r"],
                                      config["waypoints"], config["S"], self.seed)
        self.topology = build_topology(config["R"], schedules, config["T"],
                                       config["r"], self.seed)
        self.grid = LocationGrid(config["r"])

        # Only what the policy reads is built: random_unclustered reads no
        # prediction, and oracle-like runs read the true distributions and
        # the true serving RRHs. Streams are drawn per purpose, so skipping
        # one moves no other draw.
        self.content_bank = self.mobility = None
        if policy != POLICY_RANDOM_UNCLUSTERED and not self.oracle_like:
            users = range(config["U"])
            self.content_bank = ContentEsnBank(
                config["N"], rng_for(self.seed, "reservoir"),
                [rng_for(self.seed, "content_esn", u) for u in users],
                n_features=config["K"], n_reservoir=config["N_w"],
                learning_rate=config["lambda_alpha"])
            self.mobility = MobilityEsnBank(
                config["W"], config.weight_spec(), config["N_s"],
                [rng_for(self.seed, "mobility_esn", u) for u in users], self.grid,
                n_observations=(config["T"] - 1) // config["H"] + 1,
                ridge_lambda=config["lambda"])

        self.caches = CacheState(cloud_capacity=config["C_c"],
                                 rrh_capacity=config["C_r"],
                                 cloud=np.zeros(config["N"], dtype=bool),
                                 rrh=np.zeros((config["R"], config["N"]), dtype=bool))
        self.cluster_set = None  # slot 1 runs with singleton cooperation
        # one (slots, demand rows, weights) block of U users per slot since the
        # last refresh; random policies keep none
        self.demand_stream = []
        self.cloud_trace = []

    # ----- per-slot pieces -------------------------------------------------

    def _cooperation(self, active):
        """(A, A) cooperation mask over the ascending RRH ids `active`; singletons
        while there are no clusters (slot 1, random_unclustered)."""
        if self.cluster_set is None:
            return np.eye(len(active), dtype=bool)
        return self.cluster_set.cooperation(active)

    def _capacity_samples(self, slot, serving):
        """(U, n_mc) slot-capacity draws, all users from rng_for(seed, "channel", slot).

        Idle RRHs transmit nothing: interference comes from RRHs that are
        actively serving users and sit outside the cooperating set.
        """
        active = np.flatnonzero(np.bincount(serving, minlength=self.cfg["R"]))
        column = np.searchsorted(active, serving)
        return segment_capacity_rows(*self.topology.segments(slot),
                                     self.topology.rrh_positions[active], column,
                                     ~self._cooperation(active)[column],
                                     self.radio, self.n_mc, rng_for(self.seed, "channel", slot),
                                     unit_scale=CAPACITY_UNIT)

    def _predictions(self, slot, truth):
        """(U, N) request-distribution predictions (BBU view); None if the policy reads none."""
        if self.policy == POLICY_RANDOM_UNCLUSTERED:
            return None
        if self.oracle_like:
            return truth
        return self.content_bank.predict(self.workload.contexts(slot))

    def _assoc_for_caching(self, serving):
        """Predicted serving RRH per user at the cache-decision instant."""
        assoc = serving.copy()
        if self.mobility is None:
            return assoc
        users, predicted = self.mobility.predicted_positions()
        if len(users):
            assoc[users] = nearest_rrh(predicted, self.topology.rrh_positions)
        return assoc

    def _update_rrh_caches(self, slot, assoc, predictions, samples):
        cfg = self.cfg
        if self.policy in RANDOM_POLICIES:
            rng = rng_for(self.seed, "random_cache", slot, 1)
            new = random_caches(rng, cfg["R"], cfg["N"], cfg["C_r"])
        else:
            weights = effective_capacity_rows(self.theta_O, samples)
            if self.policy == POLICY_ORACLE:
                rrhs, popularity = rrh_popularities(assoc, predictions, weights)
                new = np.zeros((cfg["R"], cfg["N"]), dtype=bool)
                new[rrhs] = [content_mask(enumerate_best_subset(p, cfg["C_r"]), cfg["N"])
                             for p in popularity]
            else:
                new = select_rrh_caches(assoc, predictions, weights, cfg["C_r"], cfg["R"])
        self.caches.rrh = new
        self.caches.validate()

    def _update_clusters(self, assoc, predictions):
        self.cluster_set = (None if self.policy == POLICY_RANDOM_UNCLUSTERED else
                            cluster_rrhs(assoc, predictions, self.cfg["chi"], self.cfg["R"]))

    def _refresh_cloud(self, slot):
        if self.policy in RANDOM_POLICIES:
            rng = rng_for(self.seed, "random_cache", slot, 0)
            cloud = random_caches(rng, 1, self.cfg["N"], self.cfg["C_c"])[0]
        elif not self.demand_stream:
            return
        else:
            slots, dists, weights = map(np.concatenate, zip(*self.demand_stream))
            if self.policy == POLICY_ORACLE:
                popularity = estimate_popularity(dists, weights, None, None)
                chosen = enumerate_best_subset(popularity, self.cfg["C_c"])
            else:
                rng = rng_for(self.seed, "sampling", slot // self.cfg["T_tau"])
                popularity = estimate_popularity(dists, weights, self.plan, rng,
                                                 strata=slots)
                chosen = select_cloud_cache(popularity, self.cfg["C_c"])
            cloud = content_mask(chosen, self.cfg["N"])
        self.caches.cloud = cloud
        self.caches.validate()
        self.cloud_trace.append((slot, tuple((np.flatnonzero(cloud) + 1).tolist())))
        self.demand_stream = []

    # ----- main loop -------------------------------------------------------

    def run_slot(self, slot):
        cfg = self.cfg
        U = cfg["U"]
        positions = self.topology.user_tracks[slot - 1]
        serving = nearest_rrh(positions, self.topology.rrh_positions)

        if self.mobility is not None and (slot - 1) % cfg["H"] == 0:
            self.mobility.observe(positions)

        samples = self._capacity_samples(slot, serving)
        truth = self.workload.distributions(slot)
        predictions = self._predictions(slot, truth)

        assoc = self._assoc_for_caching(serving)
        self._update_rrh_caches(slot, assoc, predictions, samples)
        self._update_clusters(assoc, predictions)

        requests = draw_requests(truth, rng_for(self.seed, "requests", slot))
        paths = resolve_delivery_path(requests, serving, self.caches)
        counts = np.bincount(paths, minlength=4)
        n_backhaul = int(counts[PATH_SERVER])
        n_fronthaul = U - int(counts[PATH_LOCAL])

        v_BU = per_content_rate(self.wired.backhaul_rate, n_backhaul)
        v_FU = per_content_rate(self.wired.fronthaul_rate, n_fronthaul)
        link = map_qos_exponents_lenient(self.theta_O, self.wired, v_BU, v_FU)

        # an infeasible path (theta = +inf) scores zero
        thetas = link.thetas[paths]
        energies = effective_capacity_rows(thetas, samples)
        infeasible = int(np.isinf(thetas).sum())

        if self.policy not in RANDOM_POLICIES:
            weights_A = effective_capacity_rows(link.theta_A, samples)
            demand = update_distribution(predictions, self.caches.rrh[assoc])
            self.demand_stream.append((np.full(U, slot), demand, weights_A))

        if self.content_bank is not None:
            observed = np.zeros((U, cfg["N"]))
            observed[np.arange(U), requests - 1] = 1.0
            self.content_bank.train_step(observed)

        if slot % cfg["T_tau"] == 0:
            if self.mobility is not None:
                self.mobility.retrain(cfg["N_tr"])
            self._refresh_cloud(slot)

        shares = (counts / U).tolist()
        quality = {}
        if predictions is not None:
            quality = dict(tv_content=float(distribution_distance(predictions, truth).mean()),
                           n_clusters=len(self.cluster_set.clusters))
        return SlotMetrics(
            slot=slot,
            effective_sum=sum_effective_capacity(energies),
            hit_local=shares[PATH_LOCAL],
            hit_cloud=shares[PATH_CLOUD],
            hit_remote=shares[PATH_REMOTE],
            miss_server=shares[PATH_SERVER],
            n_backhaul=n_backhaul,
            n_fronthaul=n_fronthaul,
            infeasible=infeasible,
            **quality,
        )

    def run(self):
        slots = [self.run_slot(k) for k in range(1, self.cfg["T"] + 1)]
        e_bar = float(np.mean([m.effective_sum for m in slots]))
        return EpisodeReport(policy=self.policy, seed=self.seed,
                             effective_capacity_avg=e_bar, slots=slots,
                             cloud_trace=self.cloud_trace)


def run_episode(config, policy, seed, oracle_predictions=False):
    """Execute one episode; see Simulation for the slot structure."""
    return Simulation(config, policy, seed,
                      oracle_predictions=oracle_predictions).run()
