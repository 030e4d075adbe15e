"""Synthetic workloads and trace files.

Content demand: a Zipf(alpha) base over N contents, differentiated into user
archetypes by block-local rank shuffles (blocks of three, rank 1 pinned so the
head of the popularity curve survives) and modulated over (hour-of-day,
weekday) buckets by block rotations. Mobility: exactly periodic waypoint
tours inside the coverage disk, every user's tour stepped together, one array
step per slot (`tour_positions`). Both replace proprietary datasets. The
content trace (gen-data) holds the requests the simulator realizes for the
same workload and seed.

Trace schemas (headers are normative):
  content:  user_id,slot,t_hour,weekday,gender,occupation,age,device,reserved,content_id
  mobility: user_id,t,x_m,y_m
"""
import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .esn.content import CONTEXT_FEATURES
from .seeding import rng_for

CONTENT_HEADER = ["user_id", "slot", "t_hour", "weekday", "gender",
                  "occupation", "age", "device", "reserved", "content_id"]
MOBILITY_HEADER = ["user_id", "t", "x_m", "y_m"]

_BLOCK = 3  # rank-shuffle block size; rank 1 is never moved
MAX_DWELL_SLOTS = 2  # a waypoint's dwell is uniform on 0..MAX_DWELL_SLOTS


def zipf_probs(n_contents, alpha):
    ranks = np.arange(1, n_contents + 1, dtype=np.float64)
    weights = ranks ** -float(alpha)
    return weights / weights.sum()


def slot_hour(slot):
    return slot % 24


def slot_weekday(slot):
    return (slot // 24) % 7


@dataclass
class Workload:
    """Per-user archetypes and the ground-truth conditional distributions.

    Archetype a ranks the contents by `rank_permutations[a]` (rank position ->
    content index, 0-based). The conditionals depend on the slot only through
    the block rotation (hour + weekday) % 3, so `table[a, rotation]` holds
    archetype a's distribution at each rotation (read-only). The static context
    columns follow from the archetype index a of A: occupation a / max(A - 1, 1)
    and age band (a + 0.5) / A.
    """
    user_archetype: np.ndarray     # (U,) archetype index of each user
    user_gender: np.ndarray        # (U,) 0 or 1
    user_device: np.ndarray        # (U,) device type, 0 or 1
    base_probs: np.ndarray         # (N,) Zipf probability of each rank
    rank_permutations: np.ndarray  # (A, N) rank position -> content index
    table: np.ndarray = field(repr=False, compare=False)  # (A, _BLOCK, N)

    def distribution(self, user, slot):
        """Request distribution of `user` in `slot` (a read-only table row)."""
        rotation = (slot_hour(slot) + slot_weekday(slot)) % _BLOCK
        return self.table[self.user_archetype[user], rotation]

    def contexts(self, slot):
        """(n_users, CONTEXT_FEATURES) context vectors, each entry normalized to [0, 1].

        Columns: request hour, weekday, gender, occupation, age, device, reserved.
        """
        n_archetypes = len(self.table)
        out = np.zeros((len(self.user_archetype), CONTEXT_FEATURES))
        out[:, 0] = slot_hour(slot) / 23.0
        out[:, 1] = slot_weekday(slot) / 6.0
        out[:, 2] = self.user_gender
        out[:, 3] = self.user_archetype / max(n_archetypes - 1, 1)
        out[:, 4] = (self.user_archetype + 0.5) / n_archetypes
        out[:, 5] = self.user_device
        return out

    def context(self, user, slot):
        """Context feature vector of one user (a row of `contexts`)."""
        return self.contexts(slot)[user]

    def distributions(self, slot):
        """(n_users, n_contents) request distributions in `slot`, one table row per user."""
        return self.distribution(slice(None), slot)


def draw_requests(distributions, rng):
    """One content id (1-based) per row of `distributions`, by inverse CDF on one uniform
    per row; a CDF that ends below its uniform maps it to the last content."""
    distributions = np.asarray(distributions, dtype=np.float64)
    uniforms = rng.random(distributions.shape[0])
    cdf = np.cumsum(distributions, axis=1)
    idx = np.minimum((cdf <= uniforms[:, None]).sum(axis=1), distributions.shape[1] - 1)
    return idx + 1


def generate_workload(n_users, n_contents, zipf_alpha, n_archetypes, seed):
    """Draw each archetype's rank permutation and device mix, assign the users
    round-robin and tabulate the conditionals; deterministic per seed."""
    if n_contents < 2:
        raise ConfigurationError("need at least two contents")
    if n_users < 1 or n_archetypes < 1:
        raise ConfigurationError("need at least one user and one archetype")
    rng = rng_for(seed, "workload")
    base = zipf_probs(n_contents, zipf_alpha)
    perms = np.tile(np.arange(n_contents), (n_archetypes, 1))
    device_mix = np.empty(n_archetypes)
    for a, perm in enumerate(perms):
        for start in range(1, n_contents, _BLOCK):  # rank 1 stays put
            rng.shuffle(perm[start:start + _BLOCK])
        device_mix[a] = rng.uniform(0.2, 0.8)
    user_archetype = np.arange(n_users) % n_archetypes
    user_gender = rng.integers(0, 2, size=n_users)
    user_device = (rng.random(n_users) < device_mix[user_archetype]).astype(int)
    # at rotation r every block of ranks 2..n, a short last block too, is rolled
    # r steps; `order` is the rolled rank positions, rolled one step per rotation
    table = np.empty((n_archetypes, _BLOCK, n_contents))
    order = np.arange(n_contents)
    cut = 1 + (n_contents - 1) // _BLOCK * _BLOCK
    for rotation in range(_BLOCK):
        table[np.arange(n_archetypes)[:, None], rotation, perms[:, order]] = base
        order[1:cut] = np.roll(order[1:cut].reshape(-1, _BLOCK), 1, axis=1).ravel()
        order[cut:] = np.roll(order[cut:], 1)
    table.flags.writeable = False
    return Workload(user_archetype=user_archetype, user_gender=user_gender,
                    user_device=user_device, base_probs=base, rank_permutations=perms,
                    table=table)


def scatter_in_disk(n_points, radius, rng):
    """Uniform points in the disk (area-uniform radial law)."""
    radii = radius * np.sqrt(rng.random(n_points))
    angles = rng.uniform(0.0, 2.0 * np.pi, n_points)
    return np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)


def _length(deltas):
    """Euclidean length of each row of (m, 2) `deltas`, with the bits of `np.linalg.norm(row)`.

    `norm` is the BLAS dot of the row with itself under a correctly rounded
    square root. The stacked matmul below calls that same dot once per row. A
    plain dx*dx + dy*dy, an einsum or (d*d).sum(1) rounds differently in about
    one case in six; `np.vecdot` would match but needs numpy 2.
    """
    return np.sqrt((deltas[:, None, :] @ deltas[:, :, None])[:, 0, 0])


def _advance(pos, target, speed, going):
    """Move the `going` rows of (m, 2) `pos` one slot toward `target` at speeds `speed` (m,).

    A row whose target lies within one slot's travel arrives instead: the
    returned mask marks those rows, and the caller sets their positions. Every
    other going row moves by delta * (speed / distance), in place.
    """
    delta = target - pos
    dist = _length(delta)
    far = dist > speed
    travel = going & far
    scale = np.divide(speed, dist, out=np.zeros_like(dist), where=travel)
    np.add(pos, np.multiply(delta, scale[:, None], out=delta), out=pos, where=travel[:, None])
    return going > far  # going and not far


def tour_positions(schedules, n_slots):
    """(n_slots + 1, U, 2) positions of every user's tour: row k is after slot k, row 0 the start.

    All users step together, one array step per slot. A user who is dwelling,
    or whose speed is not positive, stays put; only the users that arrive in
    a slot take their waypoint, its dwell and their next target. Tours may
    differ in speed and in their number of waypoints.
    """
    waypoints = [np.asarray(s.waypoints, dtype=np.float64) for s in schedules]
    dwell = [np.asarray(s.dwell_slots).tolist() for s in schedules]
    speed = np.array([float(s.speed) for s in schedules])
    moves = speed > 0
    target_idx = [1 % len(w) for w in waypoints]
    target = np.array([w[i] for w, i in zip(waypoints, target_idx)])
    idle_until = np.array([d[0] for d in dwell], dtype=np.int64)  # last slot of the dwell
    out = np.empty((n_slots + 1, len(schedules), 2))
    out[0] = [w[0] for w in waypoints]
    pos = out[0].copy()
    for k in range(1, n_slots + 1):
        arrived = _advance(pos, target, speed, moves > (idle_until >= k))  # moving, not dwelling
        for u in arrived.nonzero()[0].tolist():
            i = target_idx[u]
            pos[u] = target[u]
            idle_until[u] = k + dwell[u][i]
            target_idx[u] = i = (i + 1) % len(waypoints[u])
            target[u] = waypoints[u][i]
        out[k] = pos
    return out


@dataclass
class MobilitySchedule:
    """An exactly periodic waypoint tour: move at constant speed, then dwell.

    Each slot the user travels `speed` metres toward the next waypoint, or
    arrives there if it is within reach (arrival consumes the slot and lands
    exactly on the waypoint), then dwells there for its dwell slots.
    `sim.build_topology` steps all users' tours together with `tour_positions`;
    `positions` is the one-tour case of the same stepper.
    """
    waypoints: np.ndarray    # (n, 2) positions inside the disk
    dwell_slots: np.ndarray  # (n,) dwell after arriving at each waypoint
    speed: float             # metres per slot

    def period(self):
        """Slots after which `positions` repeats: every leg's travel slots plus every dwell.

        Each leg starts exactly on its waypoint, so its travel slots are
        counted by stepping it with the stepper's own arithmetic (about
        length / speed steps); ceil(length / speed) can miss by one where the
        length is a whole multiple of the speed. A tour that does not move
        has period 1.
        """
        if self.speed <= 0:
            return 1
        starts = self.waypoints.astype(np.float64)
        ends = np.roll(starts, -1, axis=0)
        speed = np.full(len(starts), float(self.speed))
        going = np.ones(len(starts), dtype=bool)
        total = int(np.sum(self.dwell_slots))
        while going.any():
            total += int(going.sum())
            going &= ~_advance(starts, ends, speed, going)
        return max(total, 1)

    def positions(self, n_slots):
        """(n_slots, 2) positions at slots 1..n_slots, starting at waypoint 0.

        `tour_positions` of this one tour: it pays the fleet's per-slot array
        overhead for a single user, so long one-tour traces step more slowly
        than a fleet does per user.
        """
        return tour_positions([self], n_slots)[1:, 0]


def generate_mobility(n_users, disk_radius, waypoints_per_user, speed, seed):
    """Periodic schedules with waypoints uniform in the disk; seeded."""
    if disk_radius <= 0:
        raise ConfigurationError("disk radius must be positive")
    if waypoints_per_user < 1:
        raise ConfigurationError("need at least one waypoint per user")
    rng = rng_for(seed, "mobility")
    schedules = []
    for _ in range(n_users):
        pts = scatter_in_disk(waypoints_per_user, disk_radius, rng)
        dwell = rng.integers(0, MAX_DWELL_SLOTS + 1, size=waypoints_per_user)
        schedules.append(MobilitySchedule(waypoints=pts, dwell_slots=dwell,
                                          speed=float(speed)))
    return schedules


def write_content_trace(path, workload, n_slots, seed):
    """Write the content CSV: the requests a `Simulation` with this workload and seed realizes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CONTENT_HEADER)
        for slot in range(1, n_slots + 1):
            requests = draw_requests(workload.distributions(slot), rng_for(seed, "requests", slot))
            for user, (ctx, content) in enumerate(zip(workload.contexts(slot),
                                                      requests.tolist())):
                writer.writerow([user, slot] + [f"{v:.6g}" for v in ctx] + [content])


def write_mobility_trace(path, schedules, n_slots):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MOBILITY_HEADER)
        tracks = tour_positions(schedules, n_slots)
        for user in range(len(schedules)):
            for t, (x, y) in enumerate(tracks[1:, user], start=1):
                writer.writerow([user, t, f"{x:.3f}", f"{y:.3f}"])

