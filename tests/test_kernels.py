"""The cycle-reservoir drive loop and the single kernel path."""
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

import crancache
from crancache import _kernels
from crancache.esn import memory, mobility


def test_single_kernel_path():
    assert crancache.kernel_backend == "python"
    assert memory.cycle_drive is _kernels.cycle_drive
    assert mobility.cycle_drive is _kernels.cycle_drive


def test_cycle_drive_shapes_and_recurrence():
    w = np.array([0.5, 0.5])
    w_in = np.array([1.0, 1.0])
    states = _kernels.cycle_drive(w, w_in, np.array([1.0, 1.0]), np.zeros(2))
    assert states.shape == (2, 2)
    np.testing.assert_allclose(states[1], [1.5, 1.5])


def plain_cycle_drive(cycle_w, w_in, inputs, state0):
    """The unit-frame recurrence, one reservoir: a gather and two products per step."""
    W = cycle_w.shape[0]
    shift = np.arange(W) - 1  # index (i-1) mod W
    states = np.empty((inputs.shape[0], W))
    v = np.array(state0, dtype=np.float64, copy=True)
    for t in range(inputs.shape[0]):
        v = cycle_w * v[shift] + w_in * inputs[t]
        states[t] = v
    return states


@st.composite
def drives(draw):
    W = draw(st.integers(1, 16))
    T = draw(st.sampled_from(sorted({1, W - 1, W, W + 1, 3 * W + 2})))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cycle_w = rng.uniform(-1.0, 1.0, lead + (W,))
    w_in = rng.uniform(-1.0, 1.0, lead + (W,))
    state0 = rng.normal(size=lead + (W,))
    inputs = rng.normal(scale=100.0, size=(T,) + lead)
    return cycle_w, w_in, inputs, state0


@settings(max_examples=300, deadline=None)
@given(drives())
def test_rotating_drive_equals_plain_recurrence_bit_for_bit(case):
    cycle_w, w_in, inputs, state0 = case
    lead, W, T = cycle_w.shape[:-1], cycle_w.shape[-1], inputs.shape[0]
    states = _kernels.cycle_drive(cycle_w, w_in, inputs, state0)
    assert states.shape == (T,) + lead + (W,)
    assert states.flags.c_contiguous
    for idx in np.ndindex(*lead):
        expected = plain_cycle_drive(cycle_w[idx], w_in[idx], inputs[(slice(None),) + idx],
                                     state0[idx])
        assert np.array_equal(states[(slice(None),) + idx], expected)


def block_rows(W):
    """Rows in one block of a W-unit drive."""
    return W * -(-_kernels.BLOCK_STEPS // W)


@st.composite
def long_drives(draw):
    W = draw(st.integers(1, 16))
    B = block_rows(W)
    T = draw(st.one_of(st.sampled_from([1, B - 1, B, B + 1, 2 * B, 3 * B + W + 1]),
                       st.integers(1, 5 * B)))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cycle_w = rng.uniform(-1.0, 1.0, lead + (W,))
    w_in = rng.uniform(-1.0, 1.0, lead + (W,))
    state0 = rng.normal(size=lead + (W,))
    inputs = rng.normal(scale=100.0, size=(T,) + lead)
    return cycle_w, w_in, inputs, state0


@settings(max_examples=200, deadline=None)
@given(long_drives())
def test_blocked_drive_keeps_the_first_block_and_rounds_the_rest(case):
    cycle_w, w_in, inputs, state0 = case
    lead, W, T = cycle_w.shape[:-1], cycle_w.shape[-1], inputs.shape[0]
    B = block_rows(W)
    states = _kernels.cycle_drive(cycle_w, w_in, inputs, state0)
    assert states.shape == (T,) + lead + (W,)
    assert states.flags.c_contiguous
    for idx in np.ndindex(*lead):
        got = states[(slice(None),) + idx]
        expected = plain_cycle_drive(cycle_w[idx], w_in[idx], inputs[(slice(None),) + idx],
                                     state0[idx])
        # the first block keeps every bit, so a drive of at most one block is the plain loop's
        assert np.array_equal(got[:B], expected[:B])
        # later blocks are reassociated by the carry: equal to rounding
        np.testing.assert_allclose(got[B:], expected[B:], rtol=0,
                                   atol=1e-13 * np.abs(expected).max())


class _CountingNumpy:
    """Stands in for numpy inside a module and counts the function calls made through it."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return counted


@pytest.mark.parametrize("W", [1, 10])
def test_long_drive_takes_about_b_plus_t_over_b_steps(W, monkeypatch):
    T = 20000
    rng = np.random.default_rng(W)
    counter = _CountingNumpy()
    monkeypatch.setattr(_kernels, "np", counter)
    states = _kernels.cycle_drive(rng.uniform(-1.0, 1.0, W), rng.uniform(-1.0, 1.0, W),
                                  rng.normal(size=T), np.zeros(W))
    assert states.shape == (T, W)
    B = block_rows(W)
    # two ufunc calls per row of a block and per block, plus a few per rotation;
    # one step per row would take 2T = 40000
    assert counter.calls <= 3 * (B + T // B)
