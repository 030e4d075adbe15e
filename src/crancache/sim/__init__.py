"""Time-slotted simulation of caching policies over a CRAN world."""
from .episode import (POLICY_ORACLE, POLICY_PROPOSED, POLICY_RANDOM_CLUSTERED,
                      POLICY_RANDOM_UNCLUSTERED, EpisodeReport, Simulation,
                      SlotMetrics, build_mobility_bank, build_world, check_oracle_guard,
                      enumerate_best_subset, oracle_search_space, run_episode)
from .world import build_topology, nearest_rrh, resolve_delivery_path

__all__ = [
    "EpisodeReport",
    "POLICY_ORACLE",
    "POLICY_PROPOSED",
    "POLICY_RANDOM_CLUSTERED",
    "POLICY_RANDOM_UNCLUSTERED",
    "Simulation",
    "SlotMetrics",
    "build_mobility_bank",
    "build_topology",
    "build_world",
    "check_oracle_guard",
    "enumerate_best_subset",
    "nearest_rrh",
    "oracle_search_space",
    "resolve_delivery_path",
    "run_episode",
]
