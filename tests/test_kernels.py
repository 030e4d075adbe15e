"""The cycle-reservoir drive loop and the single kernel path."""
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

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
