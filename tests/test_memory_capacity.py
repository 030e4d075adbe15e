"""Memory-capacity closed forms, bounds, and the empirical measurement oracle."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crancache.errors import (ConfigurationError, DegenerateDistributionError,
                              UnsupportedFamilyError)
from crancache.esn import (MobilityEsn, WeightDistribution,
                           empirical_memory_capacity, memory_capacity,
                           memory_capacity_bounds)
from crancache.esn import memory
from crancache.esn.memory import _series
from crancache.seeding import rng_for


def test_pointmass_closed_form_grid():
    for a in np.arange(0.1, 0.95, 0.1):
        for W in range(1, 21):
            expect = W - 1 + a ** (2 * W)
            assert abs(memory_capacity(WeightDistribution("pointmass", a=a), W)
                       - expect) < 1e-10


def test_symbinary_closed_form_grid():
    for a in np.arange(0.1, 0.95, 0.1):
        for W in range(1, 21):
            expect = W // 2 + a ** (2 * W)
            assert abs(memory_capacity(WeightDistribution("symbinary", a=a), W)
                       - expect) < 1e-10


def test_paper_reported_values():
    assert memory_capacity(WeightDistribution("pointmass", a=0.9), 10) == pytest.approx(9.12158, abs=1e-5)
    assert memory_capacity(WeightDistribution("symbinary", a=0.9), 10) == pytest.approx(5.12158, abs=1e-5)
    assert memory_capacity(WeightDistribution("pointmass", a=0.8), 5) == pytest.approx(4.10737, abs=1e-5)


def test_pointmass_limit_approaches_unit_count():
    for W in (3, 10, 17):
        m = memory_capacity(WeightDistribution("pointmass", a=1 - 1e-8), W)
        assert abs(m - W) < 1e-4


def test_monotone_in_weight_and_units():
    prev = None
    for a in np.arange(0.1, 0.95, 0.05):
        m = memory_capacity(WeightDistribution("pointmass", a=a), 8)
        if prev is not None:
            assert m > prev
        prev = m
    prev = None
    for W in range(1, 25):
        m = memory_capacity(WeightDistribution("pointmass", a=0.6), W)
        if prev is not None:
            assert m > prev
        prev = m


def test_bounds_families():
    assert memory_capacity_bounds(WeightDistribution("symbinary", a=0.3), 10) == (0.0, 6.0)
    assert memory_capacity_bounds(WeightDistribution("pointmass", a=0.5), 8) == (0.0, 8.0)
    assert memory_capacity_bounds(WeightDistribution("uniform", lo=-0.4, hi=0.4), 9) == (0.0, 5.0)
    assert memory_capacity_bounds(WeightDistribution("uniform", lo=0.1, hi=0.5), 9) == (0.0, 9.0)
    with pytest.raises(UnsupportedFamilyError):
        memory_capacity_bounds(WeightDistribution("pointmass", a=-0.5), 5)
    with pytest.raises(UnsupportedFamilyError):
        memory_capacity_bounds(WeightDistribution("uniform", lo=-0.2, hi=0.6), 5)


def test_symbinary_value_inside_its_interval():
    m = memory_capacity(WeightDistribution("symbinary", a=0.9), 10)
    lo, hi = memory_capacity_bounds(WeightDistribution("symbinary", a=0.9), 10)
    assert lo < m < hi
    assert m == pytest.approx(5.12158, abs=1e-5)


def _random_spec(rng):
    kind = rng.choice(["pointmass", "symbinary", "zmuniform", "posuniform"])
    if kind == "pointmass":
        return WeightDistribution("pointmass", a=float(rng.uniform(0.05, 0.95)))
    if kind == "symbinary":
        return WeightDistribution("symbinary", a=float(rng.uniform(0.05, 0.95)))
    if kind == "zmuniform":
        b = float(rng.uniform(0.1, 0.95))
        return WeightDistribution("uniform", lo=-b, hi=b)
    lo = float(rng.uniform(0.05, 0.5))
    return WeightDistribution("uniform", lo=lo, hi=float(rng.uniform(lo + 0.05, 0.95)))


def test_bound_containment_randomized_specs():
    rng = np.random.default_rng(123)
    for _ in range(200):
        spec = _random_spec(rng)
        W = int(rng.integers(1, 21))
        m = memory_capacity(spec, W)
        lo, hi = memory_capacity_bounds(spec, W)
        assert lo <= m < hi, (spec, W, m, lo, hi)


def test_degenerate_specs_raise():
    with pytest.raises(DegenerateDistributionError):
        memory_capacity(WeightDistribution("pointmass", a=0.0), 5)
    with pytest.raises(DegenerateDistributionError):
        memory_capacity(WeightDistribution("symbinary", a=0.0), 3)
    with pytest.raises(ConfigurationError):
        memory_capacity(WeightDistribution("pointmass", a=0.5), 0)


def test_series_path_matches_pointmass_closed_form():
    spec = WeightDistribution("pointmass", a=0.7)
    W = 6
    total = 0.0
    for k in range(W):
        den = _series(spec.moment, 2 * k, 2 * W, spec.max_abs, 1e-14)
        num = _series(lambda m: spec.moment(m) ** 2, k, W, spec.max_abs, 1e-14)
        total += num / den
    base = _series(spec.moment, 0, 2 * W, spec.max_abs, 1e-14)
    assert abs((total - 1.0 / base) - memory_capacity(spec, W)) < 1e-10


def _measure(spec, W, trace, seed):
    esn = MobilityEsn(W, spec, max(W - 1, 1), seed=rng_for(seed, "memcap", W))
    return empirical_memory_capacity(esn, W, trace, rng_for(seed, "memcap", W, 1))


def test_empirical_agrees_with_analytic_pointmass():
    spec = WeightDistribution("pointmass", a=0.8)
    analytic = memory_capacity(spec, 5)
    assert analytic == pytest.approx(4.107, abs=1e-3)
    for seed in range(2):
        assert abs(_measure(spec, 5, 20000, seed) - analytic) <= 0.15


def test_empirical_zeroweight_cycle_forgets_instantly():
    esn = MobilityEsn(5, WeightDistribution("pointmass", a=0.5), 2, seed=0)
    esn.cycle_weights[:] = 0.0  # kill the cycle
    measured = empirical_memory_capacity(esn, 5, 5000, 1)
    assert measured < 0.2  # delay-0 is excluded; nothing older survives


def test_empirical_never_exceeds_units_plus_slack():
    rng = np.random.default_rng(9)
    for _ in range(4):
        spec = _random_spec(rng)
        W = int(rng.integers(2, 8))
        assert _measure(spec, W, 8000, int(rng.integers(1000))) <= W + 0.2


def test_empirical_stream_is_iid_whatever_the_period():
    """input_period is unused: the stream is i.i.d., so every period gives
    the same value, bit for bit."""
    esn = MobilityEsn(4, WeightDistribution("pointmass", a=0.8), 2, seed=0)
    values = {empirical_memory_capacity(esn, period, 3000, 7) for period in (1, 3, 4, 64, 5000)}
    assert len(values) == 1


def test_empirical_rejects_short_traces():
    esn = MobilityEsn(5, WeightDistribution("pointmass", a=0.8), 2, seed=0)
    with pytest.raises(ConfigurationError):
        empirical_memory_capacity(esn, 5, 50, 0)


def test_empirical_zero_state_column_stays_finite():
    # the last unit reads neither its neighbour nor the input: its state column
    # is exactly zero, and so are the last row and column of R and the last
    # singular value of the states
    esn = MobilityEsn(5, WeightDistribution("pointmass", a=0.9), 2, seed=0)
    esn.cycle_weights[4] = 0.0
    esn.input_weights[4] = 0.0
    measured = empirical_memory_capacity(esn, 5, 5000, 1)
    assert np.isfinite(measured)
    assert 0.0 <= measured <= 5


def _capture_drive(monkeypatch):
    """Record the stream and states of each drive the measurement makes."""
    drives = []
    drive = memory.cycle_drive

    def spy(cycle_w, w_in, stream, state0):
        states = drive(cycle_w, w_in, stream, state0)
        drives.append((stream, states))
        return states
    monkeypatch.setattr(memory, "cycle_drive", spy)
    return drives


def _householder_ridge_capacity(stream, states, W):
    """The measured capacity from a long-double Householder QR of [V; sqrt(ridge) I],
    one ridge fit per delay and the sequential quiet rule."""
    ld = np.longdouble
    washout = max(10 * W, 100)
    V = states[washout:].astype(ld)
    A = np.vstack((V, np.sqrt(ld(memory.RIDGE)) * np.eye(W, dtype=ld)))
    reflectors = []
    for j in range(W):
        v = A[j:, j].copy()
        v[0] += np.copysign(np.sqrt(v @ v), v[0])
        v /= np.sqrt(v @ v)
        A[j:, j:] -= 2 * np.outer(v, v @ A[j:, j:])
        reflectors.append(v)
    R = A[:W]
    total, quiet = 0.0, 0
    for k in range(1, 5 * W + 51):
        target = stream[washout - k: len(stream) - k].astype(ld)
        z = np.concatenate((target, np.zeros(W, dtype=ld)))
        for j, v in enumerate(reflectors):
            z[j:] -= 2 * v * (v @ z[j:])
        coef = np.zeros(W, dtype=ld)
        for i in range(W - 1, -1, -1):
            coef[i] = (z[i] - R[i, i + 1:] @ coef[i + 1:]) / R[i, i]
        dp = V @ coef
        dp -= dp.mean()
        dt = target - target.mean()
        corr2 = float((dp @ dt) ** 2 / ((dp @ dp) * (dt @ dt)))
        total += corr2
        quiet = quiet + 1 if corr2 < memory.TERM_TOL else 0
        if quiet >= W:
            break
    return total


@pytest.mark.parametrize("W", [9, 10, 11])
@pytest.mark.parametrize("seed", [0, 1])
def test_empirical_matches_long_double_householder_fit(seed, W, monkeypatch):
    # V'V squares cond(V), about 9e7 here; a fit through it misses by up to 1e-2
    drives = _capture_drive(monkeypatch)
    measured = _measure(WeightDistribution("uniform", lo=-0.5, hi=0.5), W, 20000, seed)
    (stream, states), = drives
    assert measured == pytest.approx(_householder_ridge_capacity(stream, states, W),
                                     rel=0, abs=1e-7)


def _sequential_quiet_sum(terms, n_quiet):
    total = 0.0
    quiet = 0
    for term in terms:
        total += term
        quiet = quiet + 1 if term < memory.TERM_TOL else 0
        if quiet >= n_quiet:
            break
    return total


quiet_terms = st.lists(st.one_of(
    st.floats(0.0, memory.TERM_TOL, exclude_max=True),
    st.floats(memory.TERM_TOL, 1.0),
    st.sampled_from([0.0, memory.TERM_TOL])), min_size=1, max_size=80)


@settings(max_examples=300, deadline=None)
@given(quiet_terms, st.integers(1, 12))
@example([0.5, 0.3, 1e-5, 2e-5, 3e-5, 0.9], 3)          # stops after three quiet terms
@example([0.5, 1e-5, 1e-5, 0.2, 1e-5, 1e-5, 1e-5, 0.7], 3)  # a loud term resets the run
@example([0.5, 1e-5, 1e-5, 0.2, 1e-5, 1e-5], 3)         # no stop before the cap
def test_quiet_sum_matches_the_sequential_rule(terms, n_quiet):
    assert memory._quiet_sum(np.array(terms), n_quiet) == _sequential_quiet_sum(terms, n_quiet)


@pytest.mark.parametrize("W", [1, 3])
def test_empirical_fit_calls_do_not_grow_with_delays(W, monkeypatch):
    calls = []
    for name in ("solve", "qr"):
        func = getattr(np.linalg, name)

        def counted(*args, _func=func, _name=name, **kwargs):
            calls.append(_name)
            return _func(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    counts = []
    # a = 0.5 goes quiet after 7 (W = 1) or 13 (W = 3) delays, a = 0.95 runs
    # to the cap of 5W+50; one solve per delay would count those
    for a in (0.5, 0.95):
        calls.clear()
        _measure(WeightDistribution("pointmass", a=a), W, 20000, 0)
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert counts[0] <= 20000 * W // memory.QR_BLOCK_ENTRIES + 2
