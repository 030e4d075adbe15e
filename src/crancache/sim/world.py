"""The episode's world: RRH positions and user tracks, serving RRHs, delivery paths.

`build_topology` places the RRHs and steps every user's tour once, at
construction; `nearest_rrh` gives each position its serving RRH and
`resolve_delivery_path` each request its delivery path.
"""
import numpy as np

from ..data import scatter_in_disk, tour_positions
from ..errors import ConfigurationError
from ..qos import PATH_CLOUD, PATH_LOCAL, PATH_REMOTE, PATH_SERVER
from ..seeding import rng_for


def nearest_rrh(positions, rrh_positions):
    """Index of the closest RRH for each user position (row-wise)."""
    positions = np.atleast_2d(positions)
    dx = positions[:, 0, None] - rrh_positions[:, 0]
    dy = positions[:, 1, None] - rrh_positions[:, 1]
    return (dx * dx + dy * dy).argmin(axis=1)


def build_topology(n_rrhs, schedules, n_slots, disk_radius, seed):
    """(rrh_positions, tracks): the (R, 2) RRH layout and the users' (T + 1, U, 2) tracks.

    The RRHs are scattered in the disk from the seed's topology generator.
    `tracks` is `data.tour_positions` of the users' schedules over T slots,
    with every user stepped together. Row k holds every user's position after
    slot k, so row 0 is the start (each user's waypoint 0) and slot k runs
    from row k - 1 to row k.
    """
    if n_rrhs < 1 or not schedules:
        raise ConfigurationError("topology needs RRHs and users")
    rng = rng_for(seed, "topology")
    rrh_positions = scatter_in_disk(n_rrhs, disk_radius, rng)
    return rrh_positions, tour_positions(schedules, n_slots)


def resolve_delivery_path(contents, serving, caches):
    """Path code of each request for content id `contents` (1-based) at RRH
    `serving`, scalars or equal-shaped arrays. Source priority when several
    hold the content: local > cloud > remote (another RRH) > server.

    The mapped exponents always satisfy theta_O <= theta_A <= theta_G, so the
    local, cloud and remote paths come in order of effective capacity. The
    server path's theta_S is the largest only while the per-content fronthaul
    rate v_FU is at least the backhaul rate v_BU. With v_B = 6e8, v_F = 1.2e9,
    one backhaul and three fronthaul transfers, theta_G = theta_O / 0.95
    exceeds theta_S = theta_O / 0.9667, and the order still prefers remote.
    """
    column = np.asarray(contents) - 1
    # held by any RRH: when the serving one holds it, the local path comes first
    return np.select([caches.rrh[serving, column], caches.cloud[column],
                      caches.rrh[:, column].any(axis=0)],
                     [PATH_LOCAL, PATH_CLOUD, PATH_REMOTE], PATH_SERVER)
