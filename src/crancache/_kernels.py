"""Drive loop of the linear cycle reservoir, shared by the mobility ESN and
the memory-capacity measurement.

One step of a W-unit cycle reservoir is

    v_t[i] = c[i] * v_{t-1}[(i-1) mod W] + w_in[i] * m_t,

so every unit reads its neighbour: stepping in the unit frame costs a gather
per step. The drive runs instead in the frame that turns with the cycle.
Lane j at step t holds unit (j+t) mod W, u_t[j] = v_t[(j+t) mod W], and the
recurrence becomes lane-local:

    u_t[j] = c[(j+t) mod W] * u_{t-1}[j] + w_in[(j+t) mod W] * m_t.

The W rotations of c and of w_in are built once. The input terms of all
steps are written first, one strided multiply per residue class of t mod W;
each step then multiplies its row's predecessor by the rotated weights and
adds the product to the row in place. At the end, the rows of each residue
class r are rotated back by r lanes.

Every unit value is the product c[i] * v_{t-1}[(i-1) mod W] plus the product
w_in[i] * m_t, each rounded once, added once: the operations of the plain
recurrence on the same operands. Addition is commutative in IEEE
arithmetic, so the rotating drive returns the plain recurrence's states bit
for bit; moving values between lanes changes no bits.
"""
from itertools import cycle

import numpy as np


def _rotated(x, s):
    """x with its last axis turned by s lanes: entry j holds x[..., (j+s) mod W].

    Valid for -W < s < W.
    """
    return np.concatenate((x[..., s:], x[..., :s]), axis=-1)


def cycle_drive(cycle_w, w_in, inputs, state0):
    """Drive linear cycle reservoirs over scalar input sequences.

    Row i of the cycle matrix holds cycle_w[i] in column (i-1) mod W, so one
    step is v[i] <- cycle_w[i]*v[(i-1) mod W] + w_in[i]*m_t.

    cycle_w, w_in and state0 share the shape (..., W): leading axes stack
    independent reservoirs. inputs has shape (T, ...), one input sequence
    per reservoir.

    Returns the C-contiguous (T, ..., W) array of post-update states.
    """
    cycle_w = np.asarray(cycle_w, dtype=np.float64)
    w_in = np.asarray(w_in, dtype=np.float64)
    inputs = np.asarray(inputs, dtype=np.float64)
    W = cycle_w.shape[-1]
    T = inputs.shape[0]
    turns = range(min(W, T))  # rotations the T steps use
    states = np.empty(inputs.shape + (W,))
    for r in turns:
        np.multiply(_rotated(w_in, r), inputs[r::W, ..., None], out=states[r::W])
    prev = _rotated(np.asarray(state0, dtype=np.float64), -1)
    tmp = np.empty_like(prev)
    for row, c in zip(states, cycle([_rotated(cycle_w, r) for r in turns])):
        np.multiply(c, prev, out=tmp)
        np.add(row, tmp, out=row)
        prev = row
    for r in turns[1:]:
        states[r::W] = _rotated(states[r::W], -r)
    return states
