"""Deterministic per-purpose RNG derivation.

Every random draw in the package comes from a generator derived from
(root seed, purpose tag, indices...) so that runs replay bit-identically and
streams for different purposes never interleave.
"""
import numpy as np

_PURPOSES = {
    "topology": 1,
    "workload": 2,
    "mobility": 3,
    "requests": 4,
    "channel": 5,
    "content_esn": 6,
    "mobility_esn": 7,
    "random_cache": 8,
    "sampling": 9,
    "memcap": 10,
    "reservoir": 11,
}


def as_rng(seed):
    """`seed` itself when it is a Generator, else a fresh generator seeded by it."""
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def rng_for(seed, purpose, *indices):
    """Generator for (seed, purpose, *indices); purpose from the fixed table.

    SeedSequence pads entropy shorter than its four-word pool with zeros, so
    trailing zero indices can name the same stream: rng_for(s, p) and
    rng_for(s, p, 0) are one generator. An episode's tuples never meet that
    way: () per run, (slot,) with 1-based slots, (slot, 0) and (slot, 1) for
    the cloud and RRH random caches, (user,) per readout, (slot // T_tau,).
    """
    tag = _PURPOSES[purpose]
    words = [int(seed) & 0xFFFFFFFF, tag, *(int(i) & 0xFFFFFFFF for i in indices)]
    # a uint32 array is the entropy SeedSequence would assemble from the list
    # of words, without converting each word separately
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))
