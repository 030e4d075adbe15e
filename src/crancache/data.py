"""Synthetic workloads and trace files.

Content demand: a Zipf(alpha) base over N contents, differentiated into user
archetypes by block-local rank shuffles (blocks of three, rank 1 pinned so the
head of the popularity curve survives) and modulated over (hour-of-day,
weekday) buckets by block rotations. Mobility: exactly periodic waypoint
tours inside the coverage disk. Both replace proprietary datasets; CSV
ingestion is provided for external traces. The content trace (gen-data)
holds the requests the simulator realizes for the same workload and seed.

Trace schemas (headers are normative):
  content:  user_id,slot,t_hour,weekday,gender,occupation,age,device,reserved,content_id
  mobility: user_id,t,x_m,y_m
"""
import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, TraceParseError, TraceValidationError
from .seeding import rng_for

CONTENT_HEADER = ["user_id", "slot", "t_hour", "weekday", "gender",
                  "occupation", "age", "device", "reserved", "content_id"]
MOBILITY_HEADER = ["user_id", "t", "x_m", "y_m"]

_BLOCK = 3  # rank-shuffle block size; rank 1 is never moved


def zipf_probs(n_contents, alpha):
    ranks = np.arange(1, n_contents + 1, dtype=np.float64)
    weights = ranks ** -float(alpha)
    return weights / weights.sum()


def slot_hour(slot):
    return slot % 24


def slot_weekday(slot):
    return (slot // 24) % 7


@dataclass
class UserArchetype:
    """A demographic template plus its content-ranking permutation."""
    index: int
    age_band: float          # normalized 0..1
    occupation_code: float   # normalized 0..1
    device_mix: float        # probability of device type 1
    rank_permutation: np.ndarray  # rank position -> content index (0-based)

    def conditional(self, base_probs, hour, weekday):
        """Request distribution in the (hour, weekday) bucket."""
        n = base_probs.shape[0]
        perm = self.rank_permutation.copy()
        rotation = (hour + weekday) % _BLOCK
        if rotation:  # rotate every block of ranks 2..n, a short last block too
            cut = 1 + (n - 1) // _BLOCK * _BLOCK
            perm[1:cut] = np.roll(perm[1:cut].reshape(-1, _BLOCK), rotation, axis=1).ravel()
            perm[cut:] = np.roll(perm[cut:], rotation)
        probs = np.empty(n)
        probs[perm] = base_probs
        return probs


@dataclass
class Workload:
    """Per-user archetypes and the ground-truth conditional distributions.

    The conditionals depend on the slot only through the block rotation
    (hour + weekday) % 3, so they are tabulated once per (archetype,
    rotation); the table and the static context columns are built at
    construction from the fields above.
    """
    n_users: int
    n_contents: int
    zipf_alpha: float
    archetypes: list
    user_archetype: np.ndarray
    user_gender: np.ndarray
    user_device: np.ndarray
    base_probs: np.ndarray
    table: np.ndarray = field(init=False, repr=False, compare=False)
    _static_context: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = np.stack([[arch.conditional(self.base_probs, rotation, 0)
                           for rotation in range(_BLOCK)] for arch in self.archetypes])
        table.flags.writeable = False
        self.table = table
        arch = [self.archetypes[a] for a in self.user_archetype]
        static = np.zeros((self.n_users, 7))
        static[:, 2] = self.user_gender
        static[:, 3] = [a.occupation_code for a in arch]
        static[:, 4] = [a.age_band for a in arch]
        static[:, 5] = self.user_device
        self._static_context = static

    def distribution(self, user, slot):
        """Request distribution of `user` in `slot` (a read-only table row)."""
        rotation = (slot_hour(slot) + slot_weekday(slot)) % _BLOCK
        return self.table[self.user_archetype[user], rotation]

    def contexts(self, slot):
        """(n_users, 7) context vectors, all entries normalized to [0, 1].

        Columns: request hour, weekday, gender, occupation, age, device, reserved.
        """
        out = self._static_context.copy()
        out[:, 0] = slot_hour(slot) / 23.0
        out[:, 1] = slot_weekday(slot) / 6.0
        return out

    def context(self, user, slot):
        """K=7 feature vector of one user (a row of `contexts`)."""
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
    """Build archetypes and per-user assignments; deterministic per seed."""
    if n_contents < 2:
        raise ConfigurationError("need at least two contents")
    if n_users < 1 or n_archetypes < 1:
        raise ConfigurationError("need at least one user and one archetype")
    rng = rng_for(seed, "workload")
    base = zipf_probs(n_contents, zipf_alpha)
    archetypes = []
    for a in range(n_archetypes):
        perm = np.arange(n_contents)
        for start in range(1, n_contents, _BLOCK):  # rank 1 stays put
            block = perm[start:start + _BLOCK].copy()
            rng.shuffle(block)
            perm[start:start + _BLOCK] = block
        archetypes.append(UserArchetype(
            index=a,
            age_band=(a + 0.5) / n_archetypes,
            occupation_code=(a % max(n_archetypes, 2)) / max(n_archetypes - 1, 1),
            device_mix=float(rng.uniform(0.2, 0.8)),
            rank_permutation=perm,
        ))
    user_archetype = np.arange(n_users) % n_archetypes
    user_gender = rng.integers(0, 2, size=n_users)
    user_device = np.array([
        1 if rng.random() < archetypes[user_archetype[u]].device_mix else 0
        for u in range(n_users)
    ])
    return Workload(n_users=n_users, n_contents=n_contents, zipf_alpha=zipf_alpha,
                    archetypes=archetypes, user_archetype=user_archetype,
                    user_gender=user_gender, user_device=user_device, base_probs=base)


def scatter_in_disk(n_points, radius, rng):
    """Uniform points in the disk (area-uniform radial law)."""
    radii = radius * np.sqrt(rng.random(n_points))
    angles = rng.uniform(0.0, 2.0 * np.pi, n_points)
    return np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)


@dataclass
class MobilitySchedule:
    """An exactly periodic waypoint tour: move at constant speed, then dwell.

    Leg travel times are whole slots (arrival consumes the slot), so the
    discrete position sequence repeats with period sum(ceil(dist/speed)+dwell).
    """
    waypoints: np.ndarray    # (n, 2) positions inside the disk
    dwell_slots: np.ndarray  # (n,) dwell after arriving at each waypoint
    speed: float             # metres per slot

    def period(self):
        total = 0
        n = len(self.waypoints)
        if self.speed <= 0:
            return 1
        for i in range(n):
            nxt = (i + 1) % n
            dist = float(np.linalg.norm(self.waypoints[nxt] - self.waypoints[i]))
            travel = int(np.ceil(dist / self.speed)) if dist > 0 else 1
            total += travel + int(self.dwell_slots[nxt])
        return max(total, 1)

    def positions(self, n_slots):
        """Positions at slots 1..n_slots, starting at waypoint 0."""
        pos = self.waypoints[0].astype(np.float64).copy()
        target_idx = 1 % len(self.waypoints)
        dwell_left = int(self.dwell_slots[0])
        out = np.empty((n_slots, 2))
        for k in range(n_slots):
            pos, target_idx, dwell_left = self._step(pos, target_idx, dwell_left)
            out[k] = pos
        return out

    def _step(self, pos, target_idx, dwell_left):
        if dwell_left > 0:
            return pos, target_idx, dwell_left - 1
        if self.speed <= 0:
            return pos, target_idx, dwell_left
        target = self.waypoints[target_idx]
        delta = target - pos
        dist = float(np.linalg.norm(delta))
        if dist <= self.speed or dist == 0.0:
            new_idx = (target_idx + 1) % len(self.waypoints)
            return target.astype(np.float64).copy(), new_idx, int(self.dwell_slots[target_idx])
        return pos + delta * (self.speed / dist), target_idx, dwell_left


def generate_mobility(n_users, disk_radius, waypoints_per_user, speed, seed,
                      max_dwell=2):
    """Periodic schedules with waypoints uniform in the disk; seeded."""
    if disk_radius <= 0:
        raise ConfigurationError("disk radius must be positive")
    if waypoints_per_user < 1:
        raise ConfigurationError("need at least one waypoint per user")
    rng = rng_for(seed, "mobility")
    schedules = []
    for _ in range(n_users):
        pts = scatter_in_disk(waypoints_per_user, disk_radius, rng)
        dwell = rng.integers(0, max_dwell + 1, size=waypoints_per_user)
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
        for user, sched in enumerate(schedules):
            for t, (x, y) in enumerate(sched.positions(n_slots), start=1):
                writer.writerow([user, t, f"{x:.3f}", f"{y:.3f}"])


def load_traces(path, kind, disk_radius=1000.0):
    """Parse a trace CSV into row tuples, validating strictly.

    kind is "content" or "mobility". Malformed rows raise TraceParseError with
    the line and column; mobility coordinates outside the disk raise
    TraceValidationError.
    """
    if kind == "content":
        header, n_cols = CONTENT_HEADER, len(CONTENT_HEADER)
    elif kind == "mobility":
        header, n_cols = MOBILITY_HEADER, len(MOBILITY_HEADER)
    else:
        raise ConfigurationError(f"unknown trace kind {kind!r}")
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            return records
        if first != header:
            raise TraceParseError(f"{path}:1: header {first!r} != {header!r}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != n_cols:
                raise TraceParseError(
                    f"{path}:{line_no}: expected {n_cols} columns, got {len(row)}"
                )
            parsed = []
            for col_no, (name, value) in enumerate(zip(header, row), start=1):
                try:
                    if name in ("user_id", "slot", "t", "content_id"):
                        parsed.append(int(value))
                    else:
                        parsed.append(float(value))
                except ValueError as exc:
                    raise TraceParseError(
                        f"{path}:{line_no}:{col_no}: bad {name} value {value!r}"
                    ) from exc
            if kind == "mobility":
                x, y = parsed[2], parsed[3]
                if x * x + y * y > disk_radius * disk_radius + 1e-6:
                    raise TraceValidationError(
                        f"{path}:{line_no}: ({x}, {y}) outside the radius-{disk_radius} disk"
                    )
            records.append(tuple(parsed))
    return records
