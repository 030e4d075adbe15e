"""Topology, per-slot world state, and delivery-path resolution."""
from dataclasses import dataclass, field

import numpy as np

from ..data import scatter_in_disk
from ..errors import ConfigurationError
from ..qos import PATH_CLOUD, PATH_LOCAL, PATH_REMOTE, PATH_SERVER
from ..seeding import rng_for


def nearest_rrh(positions, rrh_positions):
    """Index of the closest RRH for each user position (row-wise)."""
    positions = np.atleast_2d(positions)
    dx = positions[:, 0, None] - rrh_positions[:, 0]
    dy = positions[:, 1, None] - rrh_positions[:, 1]
    return (dx * dx + dy * dy).argmin(axis=1)


@dataclass
class Topology:
    """RRH layout plus the per-user mobility tracks for a whole episode."""
    rrh_positions: np.ndarray        # (R, 2)
    user_tracks: np.ndarray          # (T, U, 2) positions at slots 1..T
    start_positions: np.ndarray      # (U, 2) positions before slot 1

    @property
    def n_rrhs(self):
        return self.rrh_positions.shape[0]

    @property
    def n_users(self):
        return self.user_tracks.shape[1]

    def segments(self, slot):
        """(starts, ends), each (U, 2): every user's movement during 1-based `slot`."""
        starts = self.start_positions if slot == 1 else self.user_tracks[slot - 2]
        return starts, self.user_tracks[slot - 1]


def build_topology(n_rrhs, schedules, n_slots, disk_radius, seed):
    if n_rrhs < 1 or not schedules:
        raise ConfigurationError("topology needs RRHs and users")
    rng = rng_for(seed, "topology")
    rrh_positions = scatter_in_disk(n_rrhs, disk_radius, rng)
    tracks = np.stack([sched.positions(n_slots) for sched in schedules], axis=1)
    starts = np.stack([sched.waypoints[0] for sched in schedules])
    return Topology(rrh_positions=rrh_positions, user_tracks=tracks,
                    start_positions=starts)


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
