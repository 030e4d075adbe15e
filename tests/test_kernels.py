"""The cycle-reservoir drive loop and the single kernel path."""
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
