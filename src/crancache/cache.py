"""Cache decision engine: sample sizing, clustering, and content selection.

Content ids are 1-based (1..N); probability vectors and cache masks index id
n at position n-1. A cache is a boolean mask over the catalog: one (N,) row
for the cloud, one (R, N) block for the RRHs. All selections break ties
toward the lowest content id so runs replay deterministically.
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
    among its users); every RRH appears in at least one.
    """
    clusters: list

    def coverage(self):
        out = set()
        for members in self.clusters:
            out |= set(members)
        return out

    def cooperating_set(self, rrh):
        """All RRHs sharing at least one cluster with `rrh` (incl. itself)."""
        together = {rrh}
        for members in self.clusters:
            if rrh in members:
                together.update(members)
        return frozenset(together)

    def cooperation(self, rrhs):
        """(A, A) mask over the ascending RRH ids `rrhs`: entry (i, j) is set
        when rrhs[j] is in cooperating_set(rrhs[i])."""
        rrhs = np.asarray(rrhs)
        together = np.eye(len(rrhs), dtype=bool)
        groups = [members for members in self.clusters if len(members) > 1]
        if groups:
            ids = np.concatenate(groups)
            labels = np.repeat(np.arange(len(groups)), [len(m) for m in groups])
            hit = np.isin(ids, rrhs)
            member = np.zeros((len(groups), len(rrhs)))  # member[g, i]: rrhs[i] is in group g
            member[labels[hit], np.searchsorted(rrhs, ids[hit])] = 1.0
            together |= member.T @ member > 0.0  # rrhs i and j share a group
        return together


# anchors' total-variation rows are computed in blocks of at most this many
# (anchor, user, content) entries
TV_CHUNK_ENTRIES = 1 << 18


def cluster_rrhs(assoc, distributions, threshold, n_rrhs):
    """Group the RRHs 0..n_rrhs-1 whose users share a request-distribution type.

    User u sits at RRH assoc[u] with distribution row u. Each user anchors
    one candidate cluster: the set of RRHs hosting any user within
    total-variation distance < threshold of it. Duplicate clusters collapse;
    user-less RRHs become singletons; output is sorted canonically (by
    size-then-members) for determinism.
    """
    assoc = np.asarray(assoc)
    mat = np.asarray(distributions, dtype=np.float64)
    member = np.zeros((len(assoc), n_rrhs), dtype=bool)  # member[a, r]: anchor a's cluster holds r
    step = max(1, TV_CHUNK_ENTRIES // max(mat.size, 1))
    for lo in range(0, len(mat), step):
        # row i: the total variation of every user's distribution from anchor lo + i
        anchor, user = np.nonzero(distribution_distance(mat[lo:lo + step, None], mat[None])
                                  < threshold)
        member[lo + anchor, assoc[user]] = True
    sizes = member.sum(axis=1)
    # singletons sort before every larger cluster, and among themselves by RRH
    singles = np.flatnonzero(~member.any(axis=0) | member[sizes == 1].any(axis=0))
    groups = sorted({tuple(np.flatnonzero(c).tolist()) for c in member[sizes > 1]},
                    key=lambda c: (len(c), c))
    return ClusterSet(clusters=[(rrh,) for rrh in singles.tolist()] + groups)


def top_k_ids(scores, k):
    """Ids (1-based) of the k largest scores along the last axis, ties to the lowest id."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), axis=-1, kind="stable")[..., :k] + 1


def top_k_contents(scores, k):
    """Ids (1-based) of the k largest scores, ties to the lowest id."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    if k > n:
        raise ConfigurationError(f"cannot cache {k} of {n} contents")
    if k <= 0:
        return frozenset()
    return frozenset(top_k_ids(scores, k).tolist())


def rrh_popularities(assoc, user_distributions, user_weights):
    """(rrhs, p_rn): the RRHs some user is associated with, ascending, and one
    row per RRH averaging its users' weighted request percentages.

    Each row sums its users' weighted distributions in user order.
    """
    dists = np.atleast_2d(np.asarray(user_distributions, dtype=np.float64))
    weights = np.asarray(user_weights, dtype=np.float64)
    if not dists.shape[0] == weights.shape[0] == len(assoc):
        raise ConfigurationError("one weight and one RRH per user distribution required")
    rrhs, owner, counts = np.unique(assoc, return_inverse=True, return_counts=True)
    totals = np.zeros((len(rrhs), dists.shape[1]))
    np.add.at(totals, owner, dists * weights[:, None])
    return rrhs, totals / counts[:, None]


def rrh_popularity(user_distributions, user_weights):
    """Average weighted request percentage p_rn over an RRH's users."""
    n_users = np.atleast_2d(np.asarray(user_distributions)).shape[0]
    return rrh_popularities(np.zeros(n_users, dtype=int), user_distributions, user_weights)[1][0]


def select_rrh_caches(assoc, user_distributions, user_weights, capacity, n_rrhs):
    """(n_rrhs, N) mask: each RRH some user is associated with holds its top
    `capacity` contents by p_rn; the others hold nothing."""
    rrhs, popularity = rrh_popularities(assoc, user_distributions, user_weights)
    mask = np.zeros((n_rrhs, popularity.shape[1]), dtype=bool)
    mask[rrhs[:, None], top_k_ids(popularity, capacity) - 1] = True
    return mask


def select_rrh_cache(user_distributions, user_weights, capacity, n_contents):
    """Pick the RRH cache: top `capacity` contents by p_rn (empty if no users)."""
    if capacity > n_contents:
        raise ConfigurationError("RRH cache larger than the catalog")
    if len(user_distributions) == 0:
        return frozenset()
    return top_k_contents(rrh_popularity(user_distributions, user_weights), capacity)


def random_caches(rng, n_caches, n_contents, capacity):
    """(n_caches, n_contents) mask of random `capacity`-subsets: each row of one
    block of uniforms holds the contents of its smallest keys."""
    mask = np.zeros((n_caches, n_contents), dtype=bool)
    np.put_along_axis(mask, np.argsort(rng.random(mask.shape), axis=1)[:, :capacity], True, axis=1)
    return mask


def content_mask(ids, n_contents):
    """(n_contents,) mask holding the 1-based content ids `ids`."""
    return np.isin(np.arange(1, n_contents + 1), list(ids))


def update_distribution(p, cached):
    """Zero out the entries the `cached` mask already serves; no renormalization.

    Rows of `p` pair with rows of `cached`. The result is a fronthaul-demand
    measure, not a probability vector.
    """
    return np.where(cached, 0.0, p)


def select_cloud_cache(popularity, capacity):
    """Pick the cloud cache: top `capacity` contents by mean updated demand."""
    popularity = np.asarray(popularity, dtype=np.float64)
    if capacity > popularity.shape[0]:
        raise ConfigurationError("cloud cache larger than the catalog")
    return top_k_contents(popularity, capacity)


@dataclass
class CacheState:
    """Cloud and per-RRH caches as (N,) and (R, N) boolean masks, entry n-1 set
    when the cache holds content n; the capacities bound each row's count."""
    cloud_capacity: int
    rrh_capacity: int
    cloud: np.ndarray
    rrh: np.ndarray

    def __post_init__(self):
        self.validate()

    def validate(self):
        cloud, rrh = np.asarray(self.cloud), np.asarray(self.rrh)
        if not (cloud.dtype == rrh.dtype == bool and cloud.ndim == 1
                and rrh.shape[1:] == cloud.shape):
            raise ConfigurationError(f"cache masks must be boolean (N,) and (R, N) arrays, "
                                     f"not {cloud.shape} and {rrh.shape}")
        if cloud.sum() > self.cloud_capacity:
            raise ConfigurationError("cloud cache exceeds its capacity")
        over = np.flatnonzero(rrh.sum(axis=1) > self.rrh_capacity)
        if over.size:
            raise ConfigurationError(f"RRH {over[0]} cache exceeds its capacity")
