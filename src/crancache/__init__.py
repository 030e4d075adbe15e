"""Proactive caching for cloud radio access networks.

Echo-state predictors forecast per-user content demand and periodic mobility;
a sampling-based engine places content at RRH and cloud caches; an
effective-capacity link model scores the resulting decisions against random
and exhaustive-oracle baselines.
"""
from .cache import (CacheState, SamplingPlan, cluster_rrhs, distribution_distance,
                    estimate_popularity, hoeffding_sample_size, select_cloud_cache,
                    select_rrh_cache, update_distribution)
from .config import ExperimentConfig
from .data import generate_mobility, generate_workload, load_traces
from .esn import (ContentEsn, LocationGrid, MobilityEsn, WeightDistribution,
                  build_cycle_reservoir, empirical_memory_capacity,
                  memory_capacity, memory_capacity_bounds, ridge_train)
from .qos import (LinkQos, RadioParams, WiredParams, delay_violation_prob,
                  effective_capacity, effective_capacity_from_samples,
                  long_term_average, map_qos_exponents, per_content_rate, sinr,
                  slot_capacity, sum_effective_capacity)
from .sim import (EpisodeReport, Simulation, resolve_delivery_path, run_episode)

__version__ = "0.1.0"
kernel_backend = "python"  # the only kernel path; the benchmark's run record reads it
