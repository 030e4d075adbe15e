"""Slot-by-slot episode execution for the caching policies.

Per slot: lay out the slot's channel (user, RRH) pairs and their path gains
under the clusters the previous slot formed, draw their fading and score
the slot-capacity samples; advance mobility; predict every user's request
distribution (each user steps a reservoir state of its own, and one readout
serves all users), the association for caching and the clusters; update
RRH caches, realize one request per user, resolve delivery paths, split the
wired pipes over the realized load, score per-user effective capacities,
and take one step of the shared content readout on all users' requests.
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
requests; fading is drawn only for the RRHs a user hears, on the caller's
thread, at the top of the slot that scores it.

Effective capacities are scored with slot service measured in Mbit so the
default exponent theta = 0.05 sits in the discriminating regime of the
log-MGF (see qos module notes); reported sums are in Mbit per slot.
"""
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ..cache import (CacheState, ClusterSet, cluster_rrhs, content_mask,
                     distribution_distance, estimate_popularity, random_caches,
                     rrh_popularities, select_cloud_cache, select_rrh_caches,
                     update_distribution)
from ..config import POLICIES, ExperimentConfig
from ..data import draw_requests, generate_mobility, generate_workload
from ..errors import ConfigurationError, InstanceTooLargeError
from ..esn import ContentEsnBank, LocationGrid, MobilityEsnBank
from ..qos import (PATH_CLOUD, PATH_LOCAL, PATH_REMOTE, PATH_SERVER,
                   effective_capacity_rows, long_term_average, map_qos_exponents_lenient,
                   per_content_rate, segment_capacity_rows, sum_effective_capacity)
from ..seeding import rng_for
from .world import build_topology, nearest_rrh, resolve_delivery_path

POLICY_PROPOSED, POLICY_RANDOM_CLUSTERED, POLICY_RANDOM_UNCLUSTERED, POLICY_ORACLE = POLICIES
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

    def slot_mean(self, name):
        """Mean over the slots of the SlotMetrics field `name`; 0 without slots."""
        return sum(getattr(m, name) for m in self.slots) / max(len(self.slots), 1)

    def summary_text(self):
        lines = [
            f"policy = {self.policy}",
            f"seed = {self.seed}",
            f"E_bar = {self.effective_capacity_avg:.10g}",
            f"slots = {len(self.slots)}",
            f"hit_O = {self.slot_mean('hit_local'):.6g}",
            f"hit_A = {self.slot_mean('hit_cloud'):.6g}",
            f"hit_G = {self.slot_mean('hit_remote'):.6g}",
            f"miss_S = {self.slot_mean('miss_server'):.6g}",
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


def build_world(config, seed):
    """The content workload and the U users' mobility schedules of a `seed` episode
    of `config`: what `Simulation` runs on and `gen-data` writes."""
    workload = generate_workload(config["U"], config["N"], config["zipf_alpha"],
                                 config["archetypes"], seed)
    schedules = generate_mobility(config["U"], config["r"], config["waypoints"],
                                  config["S"], seed)
    return workload, schedules


def build_mobility_bank(config, n_users, seed):
    """The mobility ESNs of users 0..n_users-1 in a `seed` episode of `config`."""
    return MobilityEsnBank(config["W"], config.weight_spec(), config["N_s"],
                           [rng_for(seed, "mobility_esn", u) for u in range(n_users)],
                           LocationGrid(config["r"]), ridge_lambda=config["lambda"])


class Simulation:
    """One seeded episode of one policy over T slots."""

    def __init__(self, config: ExperimentConfig, policy, seed,
                 oracle_predictions=False):
        if policy not in POLICIES:
            raise ConfigurationError(f"unknown policy {policy!r}")
        self.cfg = config
        self.policy = policy
        self.seed = int(seed)
        self.oracle_like = policy == POLICY_ORACLE or oracle_predictions
        if policy == POLICY_ORACLE:
            check_oracle_guard(config["N"], config["C_c"], config["C_r"], config["R"])

        self.radio = config.radio()
        self.wired = config.wired()
        self.theta_O = config["theta_s_O"]
        self.plan = config.plan()

        self.workload, schedules = build_world(config, self.seed)
        self.rrh_positions, self.tracks = build_topology(config["R"], schedules, config["T"],
                                                         config["r"], self.seed)

        # Only what the policy reads is built: random_unclustered reads no
        # prediction, and oracle-like runs read the true distributions and
        # the true serving RRHs. Streams are drawn per purpose, so skipping
        # one moves no other draw.
        self.content_bank = self.mobility = None
        if policy != POLICY_RANDOM_UNCLUSTERED and not self.oracle_like:
            self.content_bank = ContentEsnBank(
                config["N"], config["U"], rng_for(self.seed, "reservoir"),
                n_features=config["K"], n_reservoir=config["N_w"],
                learning_rate=config["lambda_alpha"])
            self.mobility = build_mobility_bank(config, config["U"], self.seed)

        self.caches = CacheState(cloud_capacity=config["C_c"],
                                 rrh_capacity=config["C_r"],
                                 cloud=np.zeros(config["N"], dtype=bool),
                                 rrh=np.zeros((config["R"], config["N"]), dtype=bool))
        # no clusters yet: slot 1 (and every random_unclustered slot) runs with
        # singleton cooperation
        self.cluster_set = ClusterSet(member=np.zeros((0, config["R"]), dtype=bool))
        # one (slots, demand rows, weights) block of U users per slot since the
        # last refresh; random policies keep none
        self.demand_stream = []
        self.cloud_trace = []

    # ----- per-slot pieces -------------------------------------------------

    def _channel_draw(self, slot):
        """The serving RRHs of `slot` and its (U, n_mc) slot-capacity samples in Mbit.

        The layout reads the current clusters, which the previous slot
        formed. Idle RRHs transmit nothing: interference comes from RRHs that
        are actively serving users and sit outside the cooperating set.
        """
        serving = nearest_rrh(self.tracks[slot], self.rrh_positions)
        active, column = np.unique(serving, return_inverse=True)
        samples = segment_capacity_rows(self.tracks[slot - 1], self.tracks[slot],
                                        self.rrh_positions[active], column,
                                        ~self.cluster_set.cooperation(active)[column],
                                        self.radio, self.cfg["n_mc"],
                                        rng_for(self.seed, "channel", slot))
        return serving, samples * CAPACITY_UNIT

    def _predictions(self, slot, truth):
        """(U, N) request-distribution predictions (BBU view); None if the policy reads none."""
        if self.policy == POLICY_RANDOM_UNCLUSTERED:
            return None
        if self.oracle_like:
            return truth
        return self.content_bank.predict(self.workload.contexts(slot))

    def _assoc_for_caching(self, serving):
        """Predicted serving RRH per user at the cache-decision instant."""
        predicted = None if self.mobility is None else self.mobility.predicted_positions()
        if predicted is None:
            return serving
        return nearest_rrh(predicted, self.rrh_positions)

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

    def _refresh_cloud(self, slot):
        if self.policy in RANDOM_POLICIES:
            rng = rng_for(self.seed, "random_cache", slot, 0)
            cloud = random_caches(rng, 1, self.cfg["N"], self.cfg["C_c"])[0]
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
        """Run and score `slot`. Its channel is drawn first, before this slot
        forms its clusters, so its layout reads the clusters of slot - 1."""
        cfg = self.cfg
        U = cfg["U"]
        serving, samples = self._channel_draw(slot)
        if self.mobility is not None and (slot - 1) % cfg["H"] == 0:
            self.mobility.observe(self.tracks[slot][None])

        truth = self.workload.distributions(slot)
        predictions = self._predictions(slot, truth)
        assoc = self._assoc_for_caching(serving)
        if predictions is not None:  # random_unclustered keeps singleton cooperation
            self.cluster_set = cluster_rrhs(assoc, predictions, cfg["chi"], cfg["R"])
        self._update_rrh_caches(slot, assoc, predictions, samples)

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
                           n_clusters=len(self.cluster_set))
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
        e_bar = long_term_average([m.effective_sum for m in slots])
        return EpisodeReport(policy=self.policy, seed=self.seed,
                             effective_capacity_avg=e_bar, slots=slots,
                             cloud_trace=self.cloud_trace)


def run_episode(config, policy, seed, oracle_predictions=False):
    """Execute one episode; see Simulation for the slot structure."""
    return Simulation(config, policy, seed,
                      oracle_predictions=oracle_predictions).run()
