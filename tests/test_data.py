"""Workload generation, mobility schedules, and trace round-trips."""
import csv

import numpy as np
import pytest

from crancache.data import (CONTENT_HEADER, MOBILITY_HEADER, MobilitySchedule, draw_requests,
                            generate_mobility, generate_workload, scatter_in_disk,
                            tour_positions, write_content_trace, write_mobility_trace,
                            zipf_probs)
from crancache.errors import ConfigurationError
from crancache.seeding import rng_for
from crancache.sim import build_topology


def test_zipf_alpha_zero_is_uniform():
    wl = generate_workload(10, 50, 0.0, 3, seed=2)
    for slot in (1, 17):
        d = wl.distribution(0, slot)
        np.testing.assert_allclose(d, np.full(50, 0.02))


def test_single_archetype_users_share_distribution():
    wl = generate_workload(6, 20, 1.0, 1, seed=3)
    base = wl.distribution(0, 5)
    for u in range(1, 6):
        np.testing.assert_array_equal(wl.distribution(u, 5), base)


def test_distributions_are_simplex_points():
    wl = generate_workload(8, 30, 0.8, 4, seed=4)
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = wl.distribution(int(rng.integers(8)), int(rng.integers(1, 400)))
        assert np.all(d >= 0)
        assert d.sum() == pytest.approx(1.0, abs=1e-12)


def test_marginal_top1_share_and_slope():
    wl = generate_workload(50, 100, 1.0, 4, seed=5)
    counts = np.zeros(100)
    for slot in range(1, 401):
        requests = draw_requests(wl.distributions(slot), rng_for(5, "requests", slot))
        np.add.at(counts, requests - 1, 1)
    freq = counts / counts.sum()
    h100 = zipf_probs(100, 1.0)[0]
    assert abs(freq.max() - h100) <= 0.02  # 1/H_100 ~ 0.1928
    ranked = np.sort(freq)[::-1]
    ranked = ranked[ranked > 0]
    slope = np.polyfit(np.log(np.arange(1, len(ranked) + 1)), np.log(ranked), 1)[0]
    assert abs(slope - (-1.0)) <= 0.1


def test_workload_deterministic_per_seed():
    a = generate_workload(5, 20, 1.0, 2, seed=9)
    b = generate_workload(5, 20, 1.0, 2, seed=9)
    np.testing.assert_array_equal(a.distribution(3, 7), b.distribution(3, 7))
    np.testing.assert_array_equal(a.context(2, 11), b.context(2, 11))


def test_context_schema():
    wl = generate_workload(4, 10, 1.0, 2, seed=1)
    x = wl.context(0, 30)
    assert x.shape == (7,)
    assert np.all((x >= 0) & (x <= 1))
    assert x[0] == pytest.approx((30 % 24) / 23)


def test_workload_rejects_bad_sizes():
    with pytest.raises(ConfigurationError):
        generate_workload(4, 1, 1.0, 2, seed=0)
    with pytest.raises(ConfigurationError):
        generate_workload(0, 10, 1.0, 2, seed=0)


def test_single_waypoint_user_is_stationary():
    scheds = generate_mobility(3, 500.0, 1, 25.0, seed=6)
    pos = scheds[0].positions(20)
    assert np.allclose(pos, pos[0])


def test_two_waypoint_commute_is_periodic():
    scheds = generate_mobility(2, 800.0, 2, 40.0, seed=7)
    s = scheds[0]
    p = s.period()
    pos = s.positions(3 * p)
    np.testing.assert_allclose(pos[:p], pos[p:2 * p])
    np.testing.assert_allclose(pos[:p], pos[2 * p:3 * p])


def test_positions_stay_in_disk_and_autocorrelation_peaks():
    scheds = generate_mobility(4, 1000.0, 3, 25.0, seed=9)
    for s in scheds:
        assert np.linalg.norm(s.waypoints, axis=1).max() <= 1000.0
    s = scheds[0]
    p = s.period()
    x = s.positions(10 * p)[:, 0]
    x = x - x.mean()
    denom = float(x @ x)
    assert denom > 0
    # circular autocorrelation: exact periodicity puts 1.0 at period multiples
    for mult in (1, 2, 3):
        shifted = np.roll(x, mult * p)
        assert x @ shifted / denom == pytest.approx(1.0, abs=1e-9)


def test_speed_zero_stays_put():
    scheds = generate_mobility(1, 300.0, 3, 0.0, seed=3)
    pos = scheds[0].positions(10)
    assert np.allclose(pos, pos[0])


def read_trace(path, header):
    """A trace CSV's rows below `header`, with ids and slots as int and the rest as float."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert all(len(row) == len(header) for row in rows[1:])
    return [tuple(int(v) if name in ("user_id", "slot", "t", "content_id") else float(v)
                  for name, v in zip(header, row)) for row in rows[1:]]


def test_trace_roundtrip_content_and_mobility(tmp_path):
    wl = generate_workload(4, 12, 1.0, 2, seed=11)
    scheds = generate_mobility(4, 1000.0, 2, 30.0, seed=11)
    cpath, mpath = tmp_path / "c.csv", tmp_path / "m.csv"
    write_content_trace(cpath, wl, 6, seed=11)
    write_mobility_trace(mpath, scheds, 6)
    content = read_trace(cpath, CONTENT_HEADER)
    mobility = read_trace(mpath, MOBILITY_HEADER)
    assert len(content) == 4 * 6
    assert len(mobility) == 4 * 6
    assert content[0][0] == 0 and content[0][1] == 1
    assert all(1 <= row[-1] <= 12 for row in content)
    # written positions are rounded to the millimetre and stay in the disk
    assert all(x * x + y * y <= 1000.0 ** 2 + 1e-6 for _, _, x, y in mobility)
    # byte-stable rewrite
    write_content_trace(tmp_path / "c2.csv", wl, 6, seed=11)
    assert (tmp_path / "c2.csv").read_bytes() == cpath.read_bytes()


def _norm_positions(schedule, n_slots):
    """Positions at slots 1..n_slots, stepped with np.linalg.norm leg distances."""
    pts, dwell, speed = schedule.waypoints, schedule.dwell_slots, schedule.speed
    pos, target_idx, dwell_left = pts[0].astype(np.float64).copy(), 1 % len(pts), int(dwell[0])
    out = np.empty((n_slots, 2))
    for k in range(n_slots):
        if dwell_left > 0:
            dwell_left -= 1
        elif speed > 0:
            delta = pts[target_idx] - pos
            dist = float(np.linalg.norm(delta))
            if dist <= speed or dist == 0.0:
                pos = pts[target_idx].astype(np.float64).copy()
                dwell_left = int(dwell[target_idx])
                target_idx = (target_idx + 1) % len(pts)
            else:
                pos = pos + delta * (speed / dist)
        out[k] = pos
    return out


def _norm_period(schedule):
    n, total = len(schedule.waypoints), 0
    for i in range(n):
        dist = float(np.linalg.norm(schedule.waypoints[(i + 1) % n] - schedule.waypoints[i]))
        total += (int(np.ceil(dist / schedule.speed)) if dist > 0 else 1)
        total += int(schedule.dwell_slots[(i + 1) % n])
    return max(total, 1)


@pytest.mark.parametrize("speed", [1.4, 7.0, 33.3])
def test_tracks_match_a_norm_reference_bit_for_bit(speed):
    for seed in range(8):
        for schedule in generate_mobility(4, 500.0, 5, speed, seed):
            assert np.array_equal(schedule.positions(400), _norm_positions(schedule, 400))
            assert schedule.period() == _norm_period(schedule)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _tours(speeds, counts, seed):
    """One schedule per (speed, waypoint count), dwelling 1-3 slots at every waypoint."""
    rng = np.random.default_rng(seed)
    return [MobilitySchedule(waypoints=scatter_in_disk(n, 500.0, rng),
                             dwell_slots=rng.integers(1, 4, size=n), speed=speed)
            for speed in speeds for n in counts]


SPEEDS, COUNTS = (0.0, 1.4, 33.3, 5000.0), (1, 2, 3, 7)


@pytest.mark.parametrize("n_waypoints", COUNTS)
@pytest.mark.parametrize("speed", SPEEDS)
def test_fleet_steps_each_tour_as_the_norm_reference(speed, n_waypoints):
    schedules = _tours([speed] * 3, [n_waypoints], seed=n_waypoints)
    tracks = tour_positions(schedules, 300)
    assert tracks.shape == (301, 3, 2)
    for user, schedule in enumerate(schedules):
        reference = _norm_positions(schedule, 300)
        assert _same_bits(tracks[0, user], schedule.waypoints[0])
        assert _same_bits(tracks[1:, user], reference)
        assert _same_bits(schedule.positions(300), reference)


def test_fleet_mixing_speeds_and_waypoint_counts_steps_each_tour_as_alone():
    schedules = _tours(SPEEDS, COUNTS, seed=5)
    schedules = [schedules[i] for i in np.random.default_rng(6).permutation(len(schedules))]
    tracks = tour_positions(schedules, 250)
    for user, schedule in enumerate(schedules):
        assert _same_bits(tracks[1:, user], _norm_positions(schedule, 250))


def test_zero_slots_leave_only_the_start():
    schedules = _tours(SPEEDS, COUNTS, seed=7)
    tracks = tour_positions(schedules, 0)
    assert _same_bits(tracks, np.stack([s.waypoints[0] for s in schedules])[None])
    assert schedules[5].positions(0).shape == (0, 2)


def test_topology_tracks_stack_the_per_schedule_reference():
    schedules = generate_mobility(6, 500.0, 3, 25.0, seed=8)
    tracks = build_topology(4, schedules, 200, 500.0, seed=8)[1]
    expected = np.stack([np.vstack([s.waypoints[0], _norm_positions(s, 200)])
                         for s in schedules], axis=1)
    assert _same_bits(tracks, expected)


def test_period_counts_the_stepped_slots_of_a_whole_multiple_leg():
    """The first leg is 5 m at 0.5 m per slot: ceil(5 / 0.5) = 10, but the
    tenth step leaves a remainder just above the speed and an eleventh arrives."""
    schedule = MobilitySchedule(waypoints=np.array([[0, 0], [3, 4], [-7, 1]]),
                                dwell_slots=np.array([0, 1, 0]), speed=0.5)
    p = schedule.period()
    assert p == 48
    pos = schedule.positions(3 * p)
    assert _same_bits(pos[:p], pos[p:2 * p]) and _same_bits(pos[:p], pos[2 * p:])
    assert not _same_bits(pos[:p - 1], pos[p - 1:2 * p - 2])


def test_period_repeats_tours_of_whole_multiple_legs():
    rng = np.random.default_rng(9)
    legs = np.array([[3.0, 4.0], [5.0, 0.0], [0.0, -5.0], [-4.0, 3.0]])
    for _ in range(60):
        speed = float(rng.choice([0.25, 0.5, 1.0]))
        steps = legs[rng.integers(0, 4, size=3)] * rng.integers(1, 6, size=(3, 1)) * speed
        schedule = MobilitySchedule(waypoints=np.cumsum(steps, axis=0),
                                    dwell_slots=rng.integers(0, 3, size=3), speed=speed)
        p = schedule.period()
        pos = schedule.positions(2 * p)
        assert _same_bits(pos[:p], pos[p:])
