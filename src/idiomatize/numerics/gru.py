"""GRU recurrences shared by every encoder and the decoder, all built on one set of gate equations."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..rng import Rng
from .optim import ParamStore
from .tensor import Tensor, _node, _row_outer, _sigmoid_np, concat, zeros


class GruCell:
    """One GRU layer; parameters live in the owning ParamStore."""

    def __init__(self, store: ParamStore, prefix: str, input_size: int, hidden_size: int, rng: Rng):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_z = store.add(f"{prefix}.w_z", (hidden_size, input_size), rng)
        self.u_z = store.add(f"{prefix}.u_z", (hidden_size, hidden_size), rng)
        self.b_z = store.add_zeros(f"{prefix}.b_z", (hidden_size,))
        self.w_r = store.add(f"{prefix}.w_r", (hidden_size, input_size), rng)
        self.u_r = store.add(f"{prefix}.u_r", (hidden_size, hidden_size), rng)
        self.b_r = store.add_zeros(f"{prefix}.b_r", (hidden_size,))
        self.w_h = store.add(f"{prefix}.w_h", (hidden_size, input_size), rng)
        self.u_h = store.add(f"{prefix}.u_h", (hidden_size, hidden_size), rng)
        self.b_h = store.add_zeros(f"{prefix}.b_h", (hidden_size,))


def _check_shapes(cell: GruCell, h_prev: np.ndarray, x: np.ndarray) -> None:
    """Raise unless ``h_prev`` is [B,H] and ``x`` [B,I]."""
    if h_prev.ndim != 2 or h_prev.shape[1] != cell.hidden_size:
        raise ValueError(f"hidden state shape {h_prev.shape} is not [B,{cell.hidden_size}]")
    if x.shape != (h_prev.shape[0], cell.input_size):
        raise ValueError(f"input shape {x.shape} != {(h_prev.shape[0], cell.input_size)}")


def _gru_forward(h: np.ndarray, xw: Sequence[np.ndarray], u: Sequence[np.ndarray], b: Sequence[np.ndarray]):
    """The gate equations: (z, r, candidate, new state) from the input products
    ``xw`` = (W_z x, W_r x, W_h x), the transposed state matrices ``u`` =
    (U_z.T, U_r.T, U_h.T), one for all rows or one per row, and the biases
    ``b`` = (b_z, b_r, b_h); each state product is an ``np.vecmat`` row product.

    Each sum is formed in place on its product, as U h + x + b: addition
    commutes exactly, so that is x + U h + b bit for bit."""
    xz, xr, xh = xw
    uz, ur, uh = u
    bz, br, bh = b
    z = np.vecmat(h, uz)
    z += xz
    z += bz
    z = _sigmoid_np(z)
    r = np.vecmat(h, ur)
    r += xr
    r += br
    r = _sigmoid_np(r)
    cand = np.vecmat(r * h, uh)
    cand += xh
    cand += bh
    np.tanh(cand, out=cand)
    return z, r, cand, (1.0 - z) * h + z * cand


def _state_params(cell: GruCell) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """``_gru_forward``'s ``u`` and ``b`` for one cell."""
    return (cell.u_z.data.T, cell.u_r.data.T, cell.u_h.data.T), (cell.b_z.data, cell.b_r.data, cell.b_h.data)


def gru_step(cell: GruCell, h_prev: Tensor, x: Tensor) -> Tensor:
    """One GRU step of B rows as one tape node: each row of ``h_prev`` [B,H] and ``x`` [B,I] gives

        z = sigmoid(W_z x + U_z h + b_z)
        r = sigmoid(W_r x + U_r h + b_r)
        c = tanh(W_h x + U_h (r * h) + b_h)
        h' = (1 - z) * h + z * c

    so all-zero parameters and inputs give h' = 0 (z = 0.5, c = 0).  Every
    product is an ``np.vecmat`` row product, so each row equals its one-row
    call bit for bit, gradients included; a weight's gradient sums the rows'
    outer products.  The parents are listed once per use, and the VJP
    returns one term per use, so ``Tensor.backward`` adds each gradient's
    terms in the order the composed row-product, add, sigmoid, tanh and mul
    ops added them, bit for bit.  An all-zero output gradient returns None:
    a step no gradient reaches adds nothing, and neither does its past.
    """
    h, xd = h_prev.data, x.data
    _check_shapes(cell, h, xd)
    z, r, cand, data = _gru_forward(h, gru_project(cell, xd), *_state_params(cell))

    def vjp(g):
        if not g.any():
            return None
        d_z = (g * cand - g * h) * z * (1.0 - z)
        d_c = g * z * (1.0 - cand**2)
        d_rh = np.vecmat(d_c, cell.u_h.data)
        d_r = d_rh * h * r * (1.0 - r)
        return (
            g * (1.0 - z),
            *_gate_terms(d_z, cell.w_z, xd, h, np.vecmat(d_z, cell.u_z.data)),
            *_gate_terms(d_c, cell.w_h, xd, r * h, d_rh * r),
            *_gate_terms(d_r, cell.w_r, xd, h, np.vecmat(d_r, cell.u_r.data)),
        )

    parents = (
        h_prev,
        cell.b_z, cell.w_z, x, cell.u_z, h_prev,
        cell.b_h, cell.w_h, x, cell.u_h, h_prev,
        cell.b_r, cell.w_r, x, cell.u_r, h_prev,
    )
    return _node(data, parents, vjp)


def gru_rows(cell: GruCell, h_prev: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``gru_step`` off the tape: the [B,H] states after one step of ``h_prev`` [B,H] on ``x`` [B,I], bit for bit."""
    _check_shapes(cell, h_prev, x)
    return _gru_forward(h_prev, gru_project(cell, x), *_state_params(cell))[-1]


def _gate_terms(d: np.ndarray, w: Tensor, x: np.ndarray, u_in: np.ndarray, d_h: np.ndarray) -> tuple:
    """One gate's VJP terms for its uses (b, w, x, u, h_prev), from its pre-activation gradient ``d``."""
    return d.sum(axis=0), _row_outer(d, x), np.vecmat(d, w.data), _row_outer(d, u_in), d_h


def tape_walk(length: int) -> np.ndarray:
    """The positions of a ``length``-token input in the order in which the per-token tape's backward
    walk reached their input rows: T-2, T-3, ..., 0, then T-1.  A caller that gathers one input's
    rows from a table in this order has ``np.add.at`` add their gradients in that order too."""
    return np.array([*range(length - 2, -1, -1), length - 1], dtype=np.intp)


class _RaggedBatch:
    """Index arrays laying out B inputs of ragged lengths, their N rows stacked input after input,
    for both directions' live-row recurrences.

    The recurrence rows are the inputs longest first (ties in batch order), so the ``live[s]`` rows
    still running at step s are a prefix.  ``rows[d][s, j]`` is the stacked row that direction d (0 forward, 1
    backward) reads at step s of row j: position s forward, position T-1-s backward, and N, a zero
    padding row, once the row has stopped.  ``walk_steps`` and ``walk_rows`` list every live (step,
    row) pair input by input in batch order, each input's last step first: the order in which
    ``Tensor.backward`` reached the per-token steps of each cell.
    """

    def __init__(self, lengths: Sequence[int]):
        lengths = np.asarray(lengths, dtype=np.intp)
        self.offsets = np.concatenate([[0], np.cumsum(lengths)])
        order = np.argsort(-lengths, kind="stable")
        s = np.arange(lengths.max())[:, None]
        self.live = [int(n) for n in (lengths > s).sum(axis=1)]
        length, start = lengths[order], self.offsets[:-1][order]
        self.rows = tuple(np.where(s < length, start + pos, self.offsets[-1]) for pos in (s, length - 1 - s))
        self.walk_steps = np.concatenate([np.arange(n - 1, -1, -1) for n in lengths])
        self.walk_rows = np.repeat(np.argsort(order), lengths)


def _add_in_order(terms: np.ndarray) -> np.ndarray:
    """``terms[0] + terms[1] + ...`` over the first axis, added left to right, as ``Tensor.backward``
    adds one term after another, bit for bit.

    ``np.add.reduce`` over the first axis adds whole slices one after another, except when a slice
    holds one value: then it sums the column pairwise, so that case takes the last running sum."""
    if terms[0].size == 1:
        return np.add.accumulate(terms, axis=0)[-1]
    return np.add.reduce(terms, axis=0)


def _outer_sum(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The [J,I] sum of the outer products d[n] x[n]^T over the N rows of ``d`` [N,J] and ``x`` [N,I],
    added in row order as ``Tensor.backward`` adds one one-row ``_row_outer`` term after another,
    bit for bit.

    One summing ``np.einsum`` over C-contiguous operands: it loops over the summed row index
    outermost and over ``i`` innermost, with no fused multiply-add, so every entry is
    ``((d[0] x[0] + d[1] x[1]) + d[2] x[2]) + ...``.  Fortran-ordered operands change that loop
    order, so the operands are made contiguous first.  A lone column (J = I = 1) is summed with
    unrolled accumulators instead, so that case adds the stacked products with ``_add_in_order``."""
    if d.shape[1] * x.shape[1] == 1:
        return _add_in_order(d[:, :, None] * x[:, None, :])
    return np.einsum("nj,ni->ji", np.ascontiguousarray(d), np.ascontiguousarray(x))


# One cell's parameters in the order ``bigru_encode`` lists them among its parents.
_CELL_PARAMS = ("b_z", "w_z", "u_z", "b_h", "w_h", "u_h", "b_r", "w_r", "u_r")


def bigru_encode(fwd: GruCell, bwd: GruCell, inputs: Sequence[Tensor]) -> Tensor:
    """The BiGRU states over a minibatch of B inputs as one tape node: the [N,2H] matrix, N the
    inputs' summed lengths, whose rows hold input 0's positions, then input 1's, and so on; the row
    of position t of input b, ``inputs[b]`` [T_b,I], is that position's [forward ; backward] state.

    Both directions step their B rows as live-row recurrences through ``_gru_forward``, longest
    input first (``_RaggedBatch``), so every state equals its one-row ``gru_step`` chain bit for
    bit.  The VJP is a hand-written backpropagation through time that returns one term per parent
    (each cell's biases and weights, then each input), and forms every sum in the order in which
    ``Tensor.backward`` added the terms of the per-token graph, one ``gru_step`` node per position
    and direction over each input in batch order, so every gradient equals that graph's bit for
    bit where the node is its cells' only user.  Over one input of length T whose states have one
    consumer, that order is:

    * a forward state's gradient: its output row's, then the four ``h_prev`` terms of the next step;
    * a backward state's gradient: the four ``h_prev`` terms of the step at the position before
      it, then its output row's;
    * an input row's gradient: the backward cell's z, candidate and r terms, then the forward
      cell's, except at position T-1, where the forward cell's come first;
    * a cell parameter's gradient: one term per step, the last step first, input after input; a
      weight's terms are its rows' outer products, which ``_outer_sum`` adds in that order.

    Inputs whose rows are gathered from a table reach the table in the order ``tape_walk`` gives.
    An all-zero output gradient adds nothing, as it stops a ``gru_step`` node.
    """
    sizes = {(cell.input_size, cell.hidden_size) for cell in (fwd, bwd)}
    if len(sizes) != 1:
        raise ValueError(f"bigru_encode needs two cells of one size (I, H), got {sorted(sizes)}")
    (in_size, hidden), = sizes
    if not inputs:
        raise ValueError("bigru_encode needs at least one input, got an empty batch")
    for x in inputs:
        if x.ndim != 2 or not len(x.data) or x.shape[1] != in_size:
            raise ValueError(f"bigru_encode needs [T,{in_size}] inputs with T >= 1, got shape {x.shape}")
    cells = (fwd, bwd)
    batch = _RaggedBatch([len(x.data) for x in inputs])
    xs = np.concatenate([x.data for x in inputs] + [np.zeros((1, in_size))])
    run = _run_directions(cells, xs, batch)
    states, r = run[0], run[2]
    steps, rows = batch.walk_steps, batch.walk_rows
    at = [batch.rows[d][steps, rows] for d in (0, 1)]  # each walk pair's stacked input row, per direction
    data = np.empty((batch.offsets[-1], 2 * hidden))
    for d in (0, 1):
        data[at[d], d * hidden : (d + 1) * hidden] = states[steps + 1, d, rows]

    def vjp(g):
        if not g.any():
            return None
        g = np.concatenate([g, np.zeros((1, 2 * hidden))])
        gates = _bptt(cells, batch, run, np.stack([g[batch.rows[d], d * hidden : (d + 1) * hidden] for d in (0, 1)], 1))
        terms, x_terms = [], np.zeros((2, 3) + xs.shape)
        for d, cell in enumerate(cells):
            d_z, d_c, d_r = gates[:, steps, d, rows]
            x, h = xs[at[d]], states[steps, d, rows]
            rh = r[steps, d, rows] * h
            terms += (
                _add_in_order(d_z), _outer_sum(d_z, x), _outer_sum(d_z, h),
                _add_in_order(d_c), _outer_sum(d_c, x), _outer_sum(d_c, rh),
                _add_in_order(d_r), _outer_sum(d_r, x), _outer_sum(d_r, h),
            )
            for k, (delta, w) in enumerate(((d_z, cell.w_z), (d_c, cell.w_h), (d_r, cell.w_r))):
                x_terms[d, k, at[d]] = np.vecmat(delta, w.data)
        (fz, fh, fr), (bz, bh, br) = x_terms
        dx = bz + bh
        for term in (br, fz, fh, fr):
            dx += term
        last = batch.offsets[1:] - 1
        tail = fz[last] + fh[last]
        for term in (fr, bz, bh, br):
            tail += term[last]
        dx[last] = tail
        return (*terms, *np.split(dx[:-1], batch.offsets[1:-1]))

    parents = tuple(getattr(cell, name) for cell in cells for name in _CELL_PARAMS)
    return _node(data, (*parents, *inputs), vjp)


def _run_directions(cells: tuple[GruCell, GruCell], xs: np.ndarray, batch: _RaggedBatch):
    """Both directions' recurrences over the stacked inputs ``xs`` [N+1,I], as one recurrence of
    [2,B,H] rows whose rows [d] use cell d's state matrices, stacked as [2,1,H,H] (as ``bigru_scan``
    stacks them): the states [S+1,2,B,H] (zeros, then the states after each step) and the z, r and
    candidate values [S,2,B,H] of each step, which the backward reads."""
    projected = [np.stack(pair, axis=1) for pair in zip(*(
        [p[rows] for p in gru_project(cell, xs)] for cell, rows in zip(cells, batch.rows)))]
    (u_f, b_f), (u_b, b_b) = (_state_params(cell) for cell in cells)
    u = [np.stack(pair)[:, None] for pair in zip(u_f, u_b)]
    b = [np.stack(pair)[:, None] for pair in zip(b_f, b_b)]
    shape = projected[0].shape
    states = np.zeros((shape[0] + 1,) + shape[1:])
    z, r, cand = (np.zeros(shape) for _ in range(3))
    for s, n in enumerate(batch.live):
        z[s, :, :n], r[s, :, :n], cand[s, :, :n], states[s + 1, :, :n] = _gru_forward(
            states[s, :, :n], [p[s, :, :n] for p in projected], u, b)
    return states, z, r, cand


def _bptt(cells: tuple[GruCell, GruCell], batch: _RaggedBatch, run, out_grad: np.ndarray) -> np.ndarray:
    """Backpropagation through both directions of ``bigru_encode`` from the output gradients
    ``out_grad`` [S,2,B,H] laid out as the steps: the z, candidate and r pre-activation gradients
    [3,S,2,B,H] of every step.  Each state's gradient adds its output row's gradient and the four
    ``h_prev`` terms of the step after it in ``gru_step``'s parent order: the output's first in
    the forward direction and last in the backward one."""
    states, z, r, cand = run
    u_z, u_h, u_r = (np.stack([getattr(cell, name).data for cell in cells])[:, None] for name in ("u_z", "u_h", "u_r"))
    gates = np.zeros((3,) + z.shape)
    carry = ()  # the four h_prev terms of the step after
    for s in reversed(range(len(batch.live))):
        n = batch.live[s]
        g = out_grad[s, :, :n].copy()
        if carry:
            m = carry[0].shape[1]
            for term in carry:
                g[0, :m] += term[0]
            acc = carry[0][1] + carry[1][1]
            for term in (carry[2][1], carry[3][1], g[1, :m]):
                acc += term
            g[1, :m] = acc
        zs, rs, cs, h = z[s, :, :n], r[s, :, :n], cand[s, :, :n], states[s, :, :n]
        d_z = (g * cs - g * h) * zs * (1.0 - zs)
        d_c = g * zs * (1.0 - cs**2)
        d_rh = np.vecmat(d_c, u_h)
        d_r = d_rh * h * rs * (1.0 - rs)
        gates[:, s, :, :n] = d_z, d_c, d_r
        carry = (g * (1.0 - zs), np.vecmat(d_z, u_z), d_rh * rs, np.vecmat(d_r, u_r))
    return gates


def bigru_scan(fwd: GruCell, bwd: GruCell, xs: np.ndarray) -> np.ndarray:
    """``bigru_encode`` off the tape: the [T,2H] states over the T rows of ``xs`` [T,I], bit for bit.

    Each direction's input products are ``gru_project``'s over the T rows,
    stacked as [T,2,H], the backward ones reversed.  The two cells' state
    matrices are stacked as [2,H,H] and their biases as [2,H], so both
    directions step together as one two-row recurrence whose row d uses
    cell d's matrices (``np.vecmat`` with one matrix per row).
    """
    sizes = {(cell.input_size, cell.hidden_size) for cell in (fwd, bwd)}
    if xs.ndim != 2 or not len(xs) or sizes != {(xs.shape[1], fwd.hidden_size)}:
        raise ValueError(f"bigru_scan needs [T,I] inputs with T >= 1 for two cells of sizes (I, H) = {sizes}, "
                         f"got shape {xs.shape}")
    xw = [np.stack([f, b[::-1]], axis=1) for f, b in zip(gru_project(fwd, xs), gru_project(bwd, xs))]
    (u_f, b_f), (u_b, b_b) = _state_params(fwd), _state_params(bwd)
    u = [np.stack(pair) for pair in zip(u_f, u_b)]
    b = [np.stack(pair) for pair in zip(b_f, b_b)]
    states = np.empty((len(xs), 2, fwd.hidden_size))
    _recur(np.zeros((2, fwd.hidden_size)), xw, u, b, [2] * len(xs), states)
    return np.concatenate([states[:, 0], states[::-1, 1]], axis=1)


def gru_project(cell: GruCell, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The input products (W_z x, W_r x, W_h x) of every [..., I] row of ``xs``, each [..., H].

    One ``np.vecmat`` per weight, so each row equals its one-row product bit
    for bit.  They do not depend on the state, so ``gru_pool`` can rerun a
    recurrence from another initial state without forming them again.
    """
    return np.vecmat(xs, cell.w_z.data.T), np.vecmat(xs, cell.w_r.data.T), np.vecmat(xs, cell.w_h.data.T)


def _recur(h0, xw, u, b, live, states=None) -> tuple[np.ndarray | None, np.ndarray]:
    """The one tape-free GRU loop, over ``_gru_forward``'s ``u`` and ``b``, as ``gru_pool`` describes it.
    With ``states``, ``states[t]`` receives the [B,H] states after step t and no sum is formed (None)."""
    h = np.array(h0, dtype=np.float64)
    total = np.zeros(h0.shape) if states is None else None
    for t, n in enumerate(live):
        h[:n] = _gru_forward(h[:n], [x[t, :n] for x in xw], u, b)[-1]
        if states is None:
            total[:n] += h[:n]
        else:
            states[t] = h
    return total, h


def gru_pool(cell: GruCell, projected: Sequence[np.ndarray], h0: np.ndarray,
             live: Sequence[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Tape-free recurrence of ``B`` rows at once: (sum of states, final state), each [B,H].

    ``projected`` are ``gru_project``'s products over [T,B,I] inputs, or
    [T,1,I] inputs every row shares; ``h0`` is [B,H].  At step t only the
    first ``live[t]`` rows step (all of them by default); the others keep
    their state exactly and add nothing to their sum.  Each row equals its
    own ``gru_step`` calls bit for bit, whatever the other rows hold.
    """
    steps, batch, _ = projected[0].shape
    if h0.ndim != 2 or h0.shape[1] != cell.hidden_size or batch not in (1, len(h0)):
        raise ValueError(f"initial state {h0.shape} must be [B,{cell.hidden_size}] for inputs of {batch} rows")
    live = [len(h0)] * steps if live is None else list(live)
    if len(live) != steps or not all(0 <= n <= len(h0) for n in live):
        raise ValueError(f"live counts {live} must be {steps} counts of 0 to {len(h0)} rows")
    return _recur(h0, projected, *_state_params(cell), live)
