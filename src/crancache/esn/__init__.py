"""Echo-state predictors and their memory-capacity analytics."""
from .content import (CONTEXT_FEATURES, ContentEsn, ContentEsnBank, project_to_simplex,
                      require_distribution)
from .memory import (empirical_memory_capacity, memory_capacity,
                     memory_capacity_bounds, min_trace_len)
from .mobility import (LocationGrid, MobilityEsn, MobilityEsnBank, WeightDistribution,
                       readout_windows, ridge_train)

__all__ = [
    "CONTEXT_FEATURES",
    "ContentEsn",
    "ContentEsnBank",
    "LocationGrid",
    "MobilityEsn",
    "MobilityEsnBank",
    "WeightDistribution",
    "empirical_memory_capacity",
    "memory_capacity",
    "memory_capacity_bounds",
    "min_trace_len",
    "project_to_simplex",
    "readout_windows",
    "require_distribution",
    "ridge_train",
]
