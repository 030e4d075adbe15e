"""Drive loop of the linear cycle reservoir, shared by the mobility ESN and
the memory-capacity measurement."""
import numpy as np


def cycle_drive(cycle_w, w_in, inputs, state0):
    """Drive a linear cycle reservoir over a scalar input sequence.

    Row i of the cycle matrix holds cycle_w[i] in column (i-1) mod W, so one
    step is v[i] <- cycle_w[i]*v[(i-1) mod W] + w_in[i]*m_t.

    Returns the (T, W) array of post-update states.
    """
    cycle_w = np.asarray(cycle_w, dtype=np.float64)
    w_in = np.asarray(w_in, dtype=np.float64)
    inputs = np.asarray(inputs, dtype=np.float64)
    W = cycle_w.shape[0]
    T = inputs.shape[0]
    shift = np.arange(W) - 1  # index (i-1) mod W
    states = np.empty((T, W))
    v = np.array(state0, dtype=np.float64, copy=True)
    for t in range(T):
        v = cycle_w * v[shift] + w_in * inputs[t]
        states[t] = v
    return states
