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


def bigru_encode(fwd: GruCell, bwd: GruCell, inputs: Sequence[Tensor]) -> Tensor:
    """The [T,2H] matrix whose row t is position t's [forward ; backward] state, over T [1,I] inputs."""
    if not inputs:
        raise ValueError("bigru_encode needs at least one input, got an empty input sequence")
    fwd_states, bwd_states = [], []
    for cell, xs, states in ((fwd, inputs, fwd_states), (bwd, reversed(inputs), bwd_states)):
        h = zeros((1, cell.hidden_size))
        for x in xs:
            h = gru_step(cell, h, x)
            states.append(h)
    bwd_states.reverse()
    return concat([concat([f, b]) for f, b in zip(fwd_states, bwd_states)], axis=0)


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
