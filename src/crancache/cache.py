"""Cache decision engine: sample sizing, clustering, and content selection.

Content ids are 1-based (1..N); probability vectors index id n at position
n-1. All selections break ties toward the lowest content id so runs replay
deterministically.
"""
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .seeding import as_rng

log = logging.getLogger(__name__)


def hoeffding_sample_size(epsilon, delta):
    """Samples needed for an (epsilon, delta) mean estimate: ceil(-ln d / (2 e^2))."""
    if not 0.0 < epsilon < 1.0:
        raise ConfigurationError("epsilon must lie in (0, 1)")
    if not 0.0 < delta <= 1.0:
        raise ConfigurationError("delta must lie in (0, 1]")
    return math.ceil(-math.log(delta) / (2.0 * epsilon * epsilon))


@dataclass(frozen=True)
class SamplingPlan:
    """An (epsilon, delta) accuracy contract and its implied sample count."""
    epsilon: float
    delta: float
    sample_size: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sample_size",
                           hoeffding_sample_size(self.epsilon, self.delta))


def estimate_popularity(distributions, weights, plan, seed, strata=None):
    """Weighted mean of per-user demand vectors from a sublinear sample.

    Draws plan.sample_size items uniformly without replacement (stratified
    proportionally when `strata` labels are given) and returns the mean of
    distribution * weight over the sample. Streams shorter than the plan fall
    back to a full scan with a logged notice. Pass plan=None to force the
    full scan.
    """
    distributions = np.atleast_2d(np.asarray(distributions, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    n_items = distributions.shape[0]
    if weights.shape != (n_items,):
        raise ConfigurationError("one weight per distribution required")
    if n_items == 0:
        raise ConfigurationError("empty distribution stream")
    wanted = n_items if plan is None else plan.sample_size
    if wanted >= n_items:
        if plan is not None and plan.sample_size > n_items:
            log.info("sample size %d exceeds stream length %d; scanning fully",
                     plan.sample_size, n_items)
        chosen = np.arange(n_items)
    elif strata is None:
        rng = as_rng(seed)
        chosen = rng.choice(n_items, size=wanted, replace=False)
    else:
        strata = np.asarray(strata)
        if strata.shape != (n_items,):
            raise ConfigurationError("one stratum label per item required")
        rng = as_rng(seed)
        labels = np.unique(strata)
        base, extra = divmod(wanted, len(labels))
        picks = []
        for rank, label in enumerate(labels):
            members = np.flatnonzero(strata == label)
            quota = min(base + (1 if rank < extra else 0), len(members))
            if quota:
                picks.append(rng.choice(members, size=quota, replace=False))
        chosen = np.concatenate(picks) if picks else np.arange(n_items)
    sample = distributions[chosen] * weights[chosen][:, None]
    return sample.mean(axis=0)


def distribution_distance(p, q, sampled=False, plan=None, seed=0):
    """Total-variation distance between request distributions along the last axis.

    Leading axes broadcast; 1-D inputs give a float. With `sampled` (1-D only),
    estimates from plan.sample_size coordinate draws without replacement,
    scaled back to the full support; plans at least as large as the support
    degrade to the exact sum.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape[-1:] != q.shape[-1:]:
        raise ConfigurationError("distributions must share their length")
    diffs = p - q
    np.abs(diffs, out=diffs)  # in place: a second temporary this size costs page faults
    if sampled:
        if diffs.ndim != 1:
            raise ConfigurationError("sampled distance takes two 1-D distributions")
        if plan is None:
            raise ConfigurationError("sampled distance needs a SamplingPlan")
        n = diffs.shape[0]
        m = min(plan.sample_size, n)
        if m < n:
            coords = as_rng(seed).choice(n, size=m, replace=False)
            return 0.5 * float(diffs[coords].sum()) * n / m
    tv = 0.5 * diffs.sum(axis=-1)
    return float(tv) if tv.ndim == 0 else tv


@dataclass
class ClusterSet:
    """RRH clusters keyed by request-distribution similarity.

    An RRH may appear in several clusters (one per distinct distribution type
    among its users); every RRH appears in at least one. The RRH ->
    cooperating-set map is built once, at construction.
    """
    clusters: list
    _cooperating: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coop = {}
        for members in self.clusters:
            if len(members) == 1:  # cooperating_set's default covers a singleton
                continue
            for rrh in members:
                coop.setdefault(rrh, set()).update(members)
        self._cooperating = {rrh: frozenset(group) for rrh, group in coop.items()}

    def coverage(self):
        out = set()
        for members in self.clusters:
            out |= set(members)
        return out

    def cooperating_set(self, rrh):
        """All RRHs sharing at least one cluster with `rrh` (incl. itself)."""
        return self._cooperating.get(rrh, frozenset([rrh]))


# anchors' total-variation rows are computed in blocks of at most this many
# (anchor, user, content) entries
TV_CHUNK_ENTRIES = 1 << 18


def cluster_rrhs(rrh_user_distributions, threshold):
    """Group RRHs whose users share a request-distribution type.

    `rrh_user_distributions` maps rrh id -> list of per-user distributions.
    Each user distribution anchors one candidate cluster: the set of RRHs
    hosting any user within total-variation distance < threshold of it.
    Duplicate clusters collapse; user-less RRHs become singletons; output is
    sorted canonically (by size-then-members) for determinism.
    """
    owners, vecs = [], []
    for rrh in sorted(rrh_user_distributions):
        for dist in rrh_user_distributions[rrh]:
            owners.append(rrh)
            vecs.append(np.asarray(dist, dtype=np.float64))
    clusters = set()
    if vecs:
        mat = np.stack(vecs)
        owners = np.array(owners)
        step = max(1, TV_CHUNK_ENTRIES // mat.size)
        for lo in range(0, len(mat), step):
            # row i: the total variation of every user's distribution from anchor lo + i
            tv = distribution_distance(mat[lo:lo + step, None], mat[None])
            for near in tv < threshold:
                members = frozenset(owners[near].tolist())
                if members:
                    clusters.add(members)
    covered = set().union(*clusters)
    # singletons sort before every larger cluster, and among themselves by RRH
    singles = sorted([rrh for rrh in rrh_user_distributions if rrh not in covered]
                     + [rrh for c in clusters if len(c) == 1 for rrh in c])
    groups = sorted((tuple(sorted(c)) for c in clusters if len(c) > 1),
                    key=lambda c: (len(c), c))
    return ClusterSet(clusters=[(rrh,) for rrh in singles] + groups)


def top_k_contents(scores, k):
    """Ids (1-based) of the k largest scores, ties to the lowest id."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    if k > n:
        raise ConfigurationError(f"cannot cache {k} of {n} contents")
    if k <= 0:
        return frozenset()
    order = np.lexsort((np.arange(n), -scores))
    return frozenset(int(i) + 1 for i in order[:k])


def rrh_popularity(user_distributions, user_weights):
    """Average weighted request percentage p_rn over an RRH's users."""
    dists = np.atleast_2d(np.asarray(user_distributions, dtype=np.float64))
    weights = np.asarray(user_weights, dtype=np.float64)
    if dists.shape[0] != weights.shape[0]:
        raise ConfigurationError("one weight per user distribution required")
    return (dists * weights[:, None]).sum(axis=0) / dists.shape[0]


def select_rrh_cache(user_distributions, user_weights, capacity, n_contents):
    """Pick the RRH cache: top `capacity` contents by p_rn (empty if no users)."""
    if capacity > n_contents:
        raise ConfigurationError("RRH cache larger than the catalog")
    if len(user_distributions) == 0:
        return frozenset()
    return top_k_contents(rrh_popularity(user_distributions, user_weights), capacity)


def random_caches(rng, n_caches, n_contents, capacity):
    """`n_caches` random `capacity`-subsets of the ids 1..n_contents: each row of
    one (n_caches, n_contents) block of uniforms keeps the ids of its smallest keys."""
    keys = rng.random((n_caches, n_contents))
    return [frozenset(row) for row in (np.argsort(keys, axis=1)[:, :capacity] + 1).tolist()]


def update_distribution(p, cached_contents):
    """Zero out the entries an RRH cache already serves; no renormalization.

    The result is a fronthaul-demand measure, not a probability vector.
    """
    out = np.array(p, dtype=np.float64, copy=True)
    for content in cached_contents:
        out[content - 1] = 0.0
    return out


def select_cloud_cache(popularity, capacity):
    """Pick the cloud cache: top `capacity` contents by mean updated demand."""
    popularity = np.asarray(popularity, dtype=np.float64)
    if capacity > popularity.shape[0]:
        raise ConfigurationError("cloud cache larger than the catalog")
    return top_k_contents(popularity, capacity)


@dataclass
class CacheState:
    """Current cloud and per-RRH cache contents with their capacities."""
    cloud_capacity: int
    rrh_capacity: int
    n_contents: int
    cloud: frozenset = frozenset()
    rrh: dict = None

    def __post_init__(self):
        if self.rrh is None:
            self.rrh = {}
        self.validate()

    def validate(self):
        if len(self.cloud) > self.cloud_capacity:
            raise ConfigurationError("cloud cache exceeds its capacity")
        for rrh, contents in self.rrh.items():
            if len(contents) > self.rrh_capacity:
                raise ConfigurationError(f"RRH {rrh} cache exceeds its capacity")
        ids = set(self.cloud).union(*self.rrh.values())
        for content in (min(ids), max(ids)) if ids else ():
            if not 1 <= content <= self.n_contents:
                raise ConfigurationError(f"content id {content} outside 1..{self.n_contents}")
