"""Link model: rate splits, SINR, exponent mapping, effective capacity."""
import math

import numpy as np
import pytest

from crancache import qos
from crancache.errors import ConfigurationError, GeometryError, InfeasibleLinkError
from crancache.qos import (HOP_COUNTS, PATH_CLOUD, PATH_LOCAL, PATH_REMOTE,
                           PATH_SERVER, RadioParams, WiredParams,
                           delay_violation_prob, effective_capacity_from_samples,
                           effective_capacity_rows,
                           long_term_average, map_qos_exponents, path_gain,
                           per_content_rate, segment_capacity_samples, sinr,
                           slot_capacity, sum_effective_capacity)

RADIO = RadioParams()


def test_per_content_rate_split():
    assert per_content_rate(100e6, 1) == 100e6
    assert per_content_rate(100e6, 4) == 25e6
    assert per_content_rate(100e6, 0) == 100e6  # idle pipe constrains nothing
    with pytest.raises(ConfigurationError):
        per_content_rate(100e6, -1)


def test_sinr_no_interferers_is_snr():
    gamma = sinr(path_gain(100.0, RADIO) * 1.0, 0.0, RADIO)
    expect = RADIO.tx_power_w * 100.0 ** -4 / RADIO.noise_w
    assert gamma == pytest.approx(expect)


def test_sinr_equal_distance_interferer_below_one():
    gamma = sinr(path_gain(100.0, RADIO) * 1.0, path_gain(100.0, RADIO) * 1.0, RADIO)
    p_rx = RADIO.tx_power_w * 100.0 ** -4
    assert gamma == pytest.approx(p_rx / (p_rx + RADIO.noise_w))
    assert gamma < 1.0


def test_sinr_distance_scaling_regimes():
    # noise-limited: doubling distance with beta=4 cuts gamma ~16x
    g1 = sinr(path_gain(50.0, RADIO), 0.0, RADIO)
    g2 = sinr(path_gain(100.0, RADIO), 0.0, RADIO)
    assert g1 / g2 == pytest.approx(16.0, rel=1e-9)
    # interference-limited: scaling tx power leaves gamma unchanged
    quiet = RadioParams(noise_dbm=-300.0)
    loud = RadioParams(noise_dbm=-300.0, tx_power_dbm=40.0)
    def gamma(radio):
        interference = (path_gain([120.0, 250.0], radio) * [0.7, 1.3]).sum()
        return sinr(path_gain(80.0, radio) * 1.0, interference, radio)
    ga, gb = gamma(quiet), gamma(loud)
    assert ga == pytest.approx(gb, rel=1e-9)
    assert ga > 0.0


def test_sinr_zero_distance_raises():
    # distances enter the SINR only through path_gain, which rejects zero
    with pytest.raises(GeometryError):
        sinr(path_gain(0.0, RADIO), 0.0, RADIO)
    with pytest.raises(GeometryError):
        path_gain([10.0, 0.0], RADIO)


def test_segment_capacity_rows_compute_gamma_through_sinr(monkeypatch):
    """The channel sampler has no SINR of its own: segment_capacity_rows calls qos.sinr."""
    def rows():
        return qos.segment_capacity_rows(
            np.array([[0.0, 0.0], [300.0, 0.0]]), np.array([[30.0, 40.0], [290.0, 10.0]]),
            np.array([[200.0, 0.0], [500.0, 500.0], [-400.0, 100.0]]), np.array([0, 1]),
            np.array([[False, True, True], [True, False, False]]), RADIO, 16,
            np.random.default_rng(4))

    expected = rows()
    calls = []

    def counted(*args):
        calls.append(args)
        return sinr(*args)

    monkeypatch.setattr(qos, "sinr", counted)
    got = rows()
    assert len(calls) == 1
    assert np.array_equal(got, expected)


def test_slot_capacity_examples():
    assert slot_capacity([1.0], 1e6) == pytest.approx(1e6)
    assert slot_capacity([0.0], 1e6) == 0.0
    assert slot_capacity([1.0, 3.0, 7.0], 2.0) == pytest.approx(12.0)


def test_slot_capacity_rows_equal_one_dimensional_calls():
    rng = np.random.default_rng(3)
    gamma = rng.exponential(5.0, size=(3, 4, 10))
    rows = slot_capacity(gamma, 1e6)
    assert rows.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            assert rows[i, j] == slot_capacity(gamma[i, j], 1e6)


def _solve_exponent_numerically(theta_O, d_max, hops, rate, size):
    """Bisection on exp(-t (D - NhL/v)) = exp(-theta_O D)."""
    target = math.exp(-theta_O * d_max)
    lo, hi = 1e-12, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if delay_violation_prob(mid, d_max, hops, rate, size) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_map_qos_exponents_limit_of_small_content():
    wired = WiredParams(backhaul_rate=1e9, fronthaul_rate=1e9, content_size=1.0)
    link = map_qos_exponents(0.05, wired, 1e9, 1e9)
    for theta in (link.theta_S, link.theta_A, link.theta_G):
        assert theta == pytest.approx(0.05, rel=1e-6)


def test_map_qos_exponents_reported_value():
    wired = WiredParams(content_size=1e7, delay_bound=1.0)
    link = map_qos_exponents(0.05, wired, 40e6, 40e6)
    assert link.theta_S == pytest.approx(0.1, rel=1e-12)
    # cross-check against a numerical solve of the delay-violation equality
    oracle = _solve_exponent_numerically(0.05, 1.0, 2, 40e6, 1e7)
    assert link.theta_S == pytest.approx(oracle, rel=1e-6)


def test_map_qos_exponents_boundary_infeasible():
    wired = WiredParams(content_size=1e7, delay_bound=1.0)
    with pytest.raises(InfeasibleLinkError):
        map_qos_exponents(0.05, wired, 40e6, 20e6)  # theta_G denominator hits 0


def test_exponent_ordering():
    wired = WiredParams(content_size=1e7, delay_bound=1.0)
    link = map_qos_exponents(0.05, wired, 60e6, 80e6)
    assert link.theta_O <= link.theta_A <= link.theta_G
    assert link.theta_O <= link.theta_S


def test_delay_violation_prob_examples():
    assert delay_violation_prob(0.0, 1.0, 1, 2e7, 1e7) == 1.0
    assert delay_violation_prob(1e9, 1.0, 1, 2e7, 1e7) == pytest.approx(0.0, abs=1e-12)
    assert delay_violation_prob(0.1, 1.0, 1, 2e7, 1e7) == pytest.approx(math.exp(-0.05))
    with pytest.raises(InfeasibleLinkError):
        delay_violation_prob(0.1, 1.0, 2, 1e7, 1e7)


def test_prop1_consistency_over_random_feasible_draws():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        theta_O = rng.uniform(0.01, 0.5)
        L = rng.uniform(1e6, 2e7)
        D = rng.uniform(0.5, 3.0)
        v_BU = rng.uniform(2.5 * L / D, 20 * L / D)  # keeps all denominators > 0
        v_FU = rng.uniform(2.5 * L / D, 20 * L / D)
        wired = WiredParams(content_size=L, delay_bound=D)
        link = map_qos_exponents(theta_O, wired, v_BU, v_FU)
        probs = [
            delay_violation_prob(link.theta_S, D, HOP_COUNTS[PATH_SERVER], v_BU, L),
            delay_violation_prob(link.theta_A, D, HOP_COUNTS[PATH_CLOUD], v_FU, L),
            delay_violation_prob(link.theta_G, D, HOP_COUNTS[PATH_REMOTE], v_FU, L),
            math.exp(-link.theta_O * D),  # local path has no wired hop
        ]
        for p in probs[1:]:
            assert abs(p - probs[0]) < 1e-9
        checked += 1


def test_effective_capacity_deterministic_sampler():
    for theta in (0.01, 0.5, 3.0):
        e = effective_capacity_from_samples(theta, np.full(64, 7.5))
        assert e == pytest.approx(7.5, rel=1e-12)


def test_effective_capacity_theta_zero_limit():
    rng = np.random.default_rng(1)
    samples = rng.uniform(2.0, 4.0, 4000)
    limit = effective_capacity_from_samples(0.0, samples)
    assert limit == pytest.approx(samples.mean())
    tiny = effective_capacity_from_samples(1e-8, samples)
    assert tiny == pytest.approx(samples.mean(), rel=1e-6)


def test_effective_capacity_two_point_closed_form():
    c = 5.0
    theta = 0.7
    closed = -math.log2(0.5 * (1 + 2 ** (-theta * c))) / theta
    rng = np.random.default_rng(3)
    n = 40000
    samples = rng.choice([0.0, c], size=n)
    mc = effective_capacity_from_samples(theta, samples)
    # 3 standard errors on the MGF mean, propagated through the log
    vals = 2.0 ** (-theta * samples)
    se = vals.std() / math.sqrt(n)
    slack = 3 * se / (vals.mean() * math.log(2) * theta)
    assert abs(mc - closed) <= slack


def test_effective_capacity_monotone_in_theta():
    rng = np.random.default_rng(4)
    samples = rng.exponential(3.0, 2000)
    thetas = np.linspace(0.01, 5.0, 25)
    values = [effective_capacity_from_samples(t, samples) for t in thetas]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_effective_capacity_jensen_bound():
    rng = np.random.default_rng(5)
    for _ in range(20):
        samples = rng.uniform(0.0, 10.0, 1500)
        theta = rng.uniform(0.05, 2.0)
        e = effective_capacity_from_samples(theta, samples)
        se = samples.std() / math.sqrt(samples.size)
        assert e <= samples.mean() + 3 * se


def test_effective_capacity_infinite_theta_scores_zero():
    assert effective_capacity_from_samples(math.inf, np.array([3.0, 4.0])) == 0.0


def test_effective_capacity_rows_whose_exponentials_all_round_to_one_score_the_mean():
    """At theta = 1e-300 every 2^(-theta (C - min C)) rounds to 1, and the rate is
    the theta->0 limit, the mean, to within rounding; a subnormal theta scores it
    too. An extreme theta scores min C."""
    rng = np.random.default_rng(12)
    samples = rng.uniform(20.0, 120.0, (6, 48))
    for theta in (1e-300, 5e-324):
        assert effective_capacity_rows(theta, samples) == pytest.approx(samples.mean(axis=1),
                                                                        rel=1e-15)
    assert effective_capacity_rows(1e300, samples) == pytest.approx(samples.min(axis=1),
                                                                   rel=1e-15)


def test_effective_capacity_rows_past_the_largest_double_score_the_minimum_quietly():
    """At theta = 1e308, theta ln 2 (C - min C) overflows to inf: x = -inf and
    expm1(x) = -1 for every sample above the minimum, so E = min C, with no
    overflow warning (the suite turns warnings into errors)."""
    samples = np.random.default_rng(12).uniform(20.0, 120.0, (6, 48))
    assert np.array_equal(effective_capacity_rows(1e308, samples), samples.min(axis=1))


def long_double_effective_capacity(theta, samples):
    """The rows' log-MGF rates in long double: m - log1p(mean(expm1(x))) / (theta ln 2)."""
    samples = samples.astype(np.longdouble)
    scale = np.longdouble(theta) * np.log(np.longdouble(2.0))
    floor = samples.min(axis=1)
    x = -scale * (samples - floor[:, None])
    return floor - np.log1p(np.expm1(x).mean(axis=1)) / scale


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="long double is no wider than double here; the reference "
                           "would compare double with double")
@pytest.mark.parametrize("rows", [6, 16])  # 16 x 48: desk_config's U x n_mc
@pytest.mark.parametrize("theta", [1e-300, 1e-100, 1e-12, 1e-6, 0.05, 1.0, 1e3, 1e300])
def test_effective_capacity_rows_match_a_long_double_reference(theta, rows):
    """Every theta keeps full relative accuracy, the small ones included, where a
    log of exponentials within 1e-10 of 1 would cancel."""
    samples = np.random.default_rng(12).uniform(20.0, 120.0, (rows, 48))
    expected = long_double_effective_capacity(theta, samples).astype(np.float64)
    np.testing.assert_allclose(effective_capacity_rows(theta, samples), expected,
                               rtol=1e-14, atol=0.0)


def test_sums_and_average():
    assert sum_effective_capacity([0.0, 0.0]) == 0.0
    assert sum_effective_capacity([3.0, 5.0]) == 8.0
    assert long_term_average([6.0, 9.0, 12.0]) == 9.0
    assert long_term_average([]) == 0.0


def test_segment_sampler_is_seeded_and_positive():
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    args = (np.array([0.0, 0.0]), np.array([30.0, 40.0]), np.array([200.0, 0.0]),
            np.array([[500.0, 500.0]]), RADIO, 32)
    s1 = segment_capacity_samples(*args, rng1)
    s2 = segment_capacity_samples(*args, rng2)
    np.testing.assert_array_equal(s1, s2)
    assert np.all(s1 > 0)
    assert s1.shape == (32,)
