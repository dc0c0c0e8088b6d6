"""GRU recurrences shared by every encoder and the decoder.

Gate convention:

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    c = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * h + z * c

so all-zero parameters and inputs give h' = 0 (z = 0.5, c = 0).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..rng import Rng
from .optim import ParamStore
from .tensor import Tensor, _sigmoid_np, concat, sigmoid, tanh, zeros


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


def gru_step(cell: GruCell, h_prev: Tensor, x: Tensor) -> Tensor:
    if h_prev.shape != (cell.hidden_size,):
        raise ValueError(f"hidden state shape {h_prev.shape} != ({cell.hidden_size},)")
    if x.shape != (cell.input_size,):
        raise ValueError(f"input shape {x.shape} != ({cell.input_size},)")
    z = sigmoid(cell.w_z @ x + cell.u_z @ h_prev + cell.b_z)
    r = sigmoid(cell.w_r @ x + cell.u_r @ h_prev + cell.b_r)
    cand = tanh(cell.w_h @ x + cell.u_h @ (r * h_prev) + cell.b_h)
    return (1.0 - z) * h_prev + z * cand


def gru_run(cell: GruCell, inputs: Sequence[Tensor], h0: Tensor | None = None) -> list[Tensor]:
    """States after each input, starting from h0 (zeros by default)."""
    h = h0 if h0 is not None else zeros((cell.hidden_size,))
    states = []
    for x in inputs:
        h = gru_step(cell, h, x)
        states.append(h)
    return states


def bigru_encode(fwd: GruCell, bwd: GruCell, inputs: Sequence[Tensor]) -> list[Tensor]:
    """Per-position [forward ; backward] states; empty input gives []."""
    if not inputs:
        return []
    fwd_states = gru_run(fwd, inputs)
    bwd_states = gru_run(bwd, list(reversed(inputs)))
    bwd_states.reverse()
    return [concat([f, b]) for f, b in zip(fwd_states, bwd_states)]


def gru_pool(
    cell: GruCell, xs: np.ndarray, h0: np.ndarray, mask: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Tape-free recurrence of ``B`` rows at once: (sum of states, final state), each [B,H].

    ``xs`` is [T,B,I], or [T,1,I] for inputs every row shares, which are
    projected once per step and broadcast.  ``h0`` is [B,H].  Where the
    [T,B] ``mask`` is False a row keeps its state exactly and adds nothing
    to its sum.  The gates use one (I,3H) input projection concatenated
    from ``w_z, w_r, w_h`` at call time, so parameters stay as stored.
    """
    hidden = cell.hidden_size
    h = np.asarray(h0, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != hidden:
        raise ValueError(f"initial state shape {h.shape} != (B, {hidden})")
    if xs.ndim != 3 or xs.shape[1] not in (1, h.shape[0]) or xs.shape[2] != cell.input_size:
        raise ValueError(f"input shape {xs.shape} != (T, 1 or {h.shape[0]}, {cell.input_size})")
    if mask is not None and mask.shape != (xs.shape[0], h.shape[0]):
        raise ValueError(f"mask shape {mask.shape} != ({xs.shape[0]}, {h.shape[0]})")
    w_x = np.concatenate([cell.w_z.data, cell.w_r.data, cell.w_h.data]).T
    u_zr = np.concatenate([cell.u_z.data, cell.u_r.data]).T
    u_h = cell.u_h.data.T
    b_zr = np.concatenate([cell.b_z.data, cell.b_r.data])
    total = np.zeros_like(h)
    for t in range(xs.shape[0]):
        gx = xs[t] @ w_x
        zr = _sigmoid_np(gx[:, : 2 * hidden] + h @ u_zr + b_zr)
        z, r = zr[:, :hidden], zr[:, hidden:]
        cand = np.tanh(gx[:, 2 * hidden :] + (r * h) @ u_h + cell.b_h.data)
        new = (1.0 - z) * h + z * cand
        if mask is None:
            h = new
            total += h
        else:
            keep = mask[t][:, None]
            h = np.where(keep, new, h)
            total += np.where(keep, new, 0.0)
    return total, h
