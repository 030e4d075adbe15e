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
arithmetic, so the rotating loop returns the plain recurrence's states bit
for bit; moving values between lanes changes no bits.

Each lane is a scalar linear recurrence, so a long drive runs as a blocked
prefix scan (Blelloch 1990; Martin & Cundy 2018) in about B + T/B Python
steps instead of T. The steps are cut into blocks of B rows, B the smallest
multiple of W that is at least BLOCK_STEPS, so every block starts at
rotation 0 and all blocks share the rotated weights and one table
G[i] = c_0 * c_1 * ... * c_i of running weight products (c_i the weights
rotated by i lanes). Two passes:

1. the recurrence runs over the B rows of every block at once, block 0 from
   `state0` and every other block from zero;
2. block by block, the true end state of block b-1, the carry, enters
   block b: its row i gains G[i] * carry, which makes its last row the next
   carry.

Block 0 takes the operations of the plain recurrence, so its rows keep
every bit, and a drive of at most B steps is one block: the plain loop,
with no padding and no G. Beyond the first block the carry reassociates the
sums, so those states can differ from the plain recurrence's in their last
bits: by at most 3e-15 of the largest state over 3000 random drives of up
to five blocks, with weights up to 1 - 1e-3 in magnitude.
"""
from itertools import cycle

import numpy as np

BLOCK_STEPS = 64  # least rows per block of a long drive; a block holds whole turns of W


def _rotated(x, s):
    """x with its last axis turned by s lanes: entry j holds x[..., (j+s) mod W].

    Valid for -W < s < W.
    """
    return np.concatenate((x[..., s:], x[..., :s]), axis=-1)


def _recur(rows, turned_w, prev):
    """Run u <- c * u + row in place down the first axis of `rows`, from `prev`.

    Row t uses turned_w[t mod W]; the weights broadcast against the rows.
    """
    tmp = np.empty_like(prev)
    for row, c in zip(rows, cycle(turned_w)):
        np.multiply(c, prev, out=tmp)
        np.add(row, tmp, out=row)
        prev = row


def cycle_drive(cycle_w, w_in, inputs, state0):
    """Drive linear cycle reservoirs over scalar input sequences.

    Row i of the cycle matrix holds cycle_w[i] in column (i-1) mod W, so one
    step is v[i] <- cycle_w[i]*v[(i-1) mod W] + w_in[i]*m_t.

    cycle_w, w_in and state0 share the shape (..., W): leading axes stack
    independent reservoirs. inputs has shape (T, ...), one input sequence
    per reservoir.

    Returns the C-contiguous (T, ..., W) array of post-update states. Drives
    longer than one block match the plain recurrence to rounding only; see
    the module docstring.
    """
    cycle_w = np.asarray(cycle_w, dtype=np.float64)
    w_in = np.asarray(w_in, dtype=np.float64)
    inputs = np.asarray(inputs, dtype=np.float64)
    W = cycle_w.shape[-1]
    T = inputs.shape[0]
    block = W * -(-BLOCK_STEPS // W)
    n_blocks = -(-T // block)
    turns = range(min(W, T))  # rotations the T steps use
    if n_blocks > 1:  # whole blocks; the rows past T stay zero-driven and are cut off
        padded = np.zeros((n_blocks * block,) + inputs.shape[1:] + (W,))
        states = padded[:T]
    else:
        states = np.empty(inputs.shape + (W,))
    for r in turns:
        np.multiply(_rotated(w_in, r), inputs[r::W, ..., None], out=states[r::W])
    turned_w = [_rotated(cycle_w, r) for r in turns]
    prev = _rotated(np.asarray(state0, dtype=np.float64), -1)
    if n_blocks > 1:
        blocks = padded.reshape((n_blocks, block) + padded.shape[1:])
        starts = np.zeros((n_blocks,) + prev.shape)
        starts[0] = prev
        _recur(blocks.swapaxes(0, 1), turned_w, starts)
        gains = np.cumprod(np.array(turned_w * (block // W)), axis=0)
        tmp = np.empty_like(gains)
        for prior, rows in zip(blocks, blocks[1:]):
            np.multiply(gains, prior[-1], out=tmp)
            np.add(rows, tmp, out=rows)
    else:
        _recur(states, turned_w, prev)
    for r in turns[1:]:
        states[r::W] = _rotated(states[r::W], -r)
    return states
