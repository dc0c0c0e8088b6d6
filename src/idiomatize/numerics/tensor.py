"""Dense float64 tensors with reverse-mode automatic differentiation.

A small tape: every tracked operation returns a Tensor, built by
``_node``, that remembers its parent tensors and a closure that scatters
the output gradient back onto them.
Only the operations the models in this package need are implemented.
Gradients of broadcast operands are summed back to the operand's shape.

Wrap inference code in ``no_grad()`` to skip graph construction.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class NumericError(RuntimeError):
    """Non-finite values or an inconsistent gradient state."""


_grad_enabled = True


class no_grad:
    """Context manager that disables graph construction."""

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> bool:
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad over the whole graph."""
        if self.data.size != 1:
            raise NumericError("backward() expects a scalar loss")
        if not np.isfinite(self.data).all():
            raise NumericError("loss is not finite")
        # Iterative postorder; recursion would overflow on long recurrences.
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _track(*tensors: Tensor) -> bool:
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _node(data, parents: tuple[Tensor, ...], backward) -> Tensor:
    """A tracked result; ``backward(g)`` scatters its gradient ``g`` onto ``parents``.

    The closure gets ``g`` as an argument instead of reading it off the
    result, so no node refers back to itself and a dropped graph is freed
    by reference counting.
    """
    out = Tensor(data, requires_grad=True)
    out._parents = parents
    out._backward = backward
    return out


def _grad(t: Tensor) -> np.ndarray:
    """``t``'s gradient buffer, zero-filled on first use."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _accum(t: Tensor, g: np.ndarray) -> None:
    buf = _grad(t)
    buf += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64))


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # Stable in both tails: exp(-|x|) never overflows.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data
    if not _track(a, b):
        return Tensor(data)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data - b.data
    if not _track(a, b):
        return Tensor(data)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape))

    return _node(data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data
    if not _track(a, b):
        return Tensor(data)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), bw)


def neg(a) -> Tensor:
    a = _wrap(a)
    if not _track(a):
        return Tensor(-a.data)

    def bw(g):
        _accum(a, -g)

    return _node(-a.data, (a,), bw)


def matmul(a, b) -> Tensor:
    """Matrix/vector product for the 1-D/2-D combinations numpy allows."""
    a, b = _wrap(a), _wrap(b)
    data = a.data @ b.data
    if not _track(a, b):
        return Tensor(data)
    an, bn = a.ndim, b.ndim

    def bw(g):
        if a.requires_grad:
            if an == 2 and bn == 1:
                ga = np.outer(g, b.data)
            elif an == 2 and bn == 2:
                ga = g @ b.data.T
            elif an == 1 and bn == 2:
                ga = b.data @ g
            else:  # 1-D @ 1-D
                ga = g * b.data
            _accum(a, ga)
        if b.requires_grad:
            if an == 2 and bn == 1:
                gb = a.data.T @ g
            elif an == 2 and bn == 2:
                gb = a.data.T @ g
            elif an == 1 and bn == 2:
                gb = np.outer(a.data, g)
            else:
                gb = g * a.data
            _accum(b, gb)

    return _node(data, (a, b), bw)


def tsum(a, axis: int | None = None) -> Tensor:
    a = _wrap(a)
    data = a.data.sum(axis=axis)
    if not _track(a):
        return Tensor(data)

    def bw(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return _node(data, (a,), bw)


def tanh(a) -> Tensor:
    a = _wrap(a)
    data = np.tanh(a.data)
    if not _track(a):
        return Tensor(data)

    def bw(g):
        _accum(a, g * (1.0 - data**2))

    return _node(data, (a,), bw)


def exp(a) -> Tensor:
    a = _wrap(a)
    data = np.exp(a.data)
    if not _track(a):
        return Tensor(data)

    def bw(g):
        _accum(a, g * data)

    return _node(data, (a,), bw)


def log(a) -> Tensor:
    a = _wrap(a)
    data = np.log(a.data)
    if not _track(a):
        return Tensor(data)

    def bw(g):
        _accum(a, g / a.data)

    return _node(data, (a,), bw)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), stable for large |x|."""
    a = _wrap(a)
    data = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    if not _track(a):
        return Tensor(data)

    def bw(g):
        _accum(a, g * _sigmoid_np(a.data))

    return _node(data, (a,), bw)


def logsumexp(a, axis: int | None = None) -> Tensor:
    """log(sum(exp(x))) with max-subtraction; safe for scores up to ~1e308."""
    a = _wrap(a)
    m = np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = np.sum(e, axis=axis, keepdims=True)
    full = np.log(s) + m
    data = full.reshape(()) if axis is None else np.squeeze(full, axis=axis)
    if not _track(a):
        return Tensor(data)
    weights = e / s

    def bw(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accum(a, g * weights)

    return _node(data, (a,), bw)


def softmax(a) -> Tensor:
    """Softmax over the last (only) axis of a vector, via logsumexp."""
    return exp(sub(a, logsumexp(a)))


def concat(parts: Sequence) -> Tensor:
    parts = [_wrap(p) for p in parts]
    data = np.concatenate([p.data for p in parts])
    if not _track(*parts):
        return Tensor(data)

    def bw(g):
        offset = 0
        for p in parts:
            n = p.data.shape[0]
            if p.requires_grad:
                _accum(p, g[offset : offset + n])
            offset += n

    return _node(data, tuple(parts), bw)


def stack(rows: Sequence) -> Tensor:
    """Stack 1-D tensors into a matrix, one per row."""
    rows = [_wrap(r) for r in rows]
    data = np.stack([r.data for r in rows])
    if not _track(*rows):
        return Tensor(data)

    def bw(g):
        for i, r in enumerate(rows):
            if r.requires_grad:
                _accum(r, g[i])

    return _node(data, tuple(rows), bw)


def take(a, indices: Iterable[int]) -> Tensor:
    """Gather along axis 0 (rows of a matrix or entries of a vector)."""
    a = _wrap(a)
    idx = np.asarray(list(indices), dtype=np.intp)
    data = a.data[idx]
    if not _track(a):
        return Tensor(data)

    def bw(g):
        np.add.at(_grad(a), idx, g)

    return _node(data, (a,), bw)


def take_pairs(a, rows: Iterable[int], cols: Iterable[int]) -> Tensor:
    """Gather a[i, j] for paired index lists; returns a vector."""
    a = _wrap(a)
    r = np.asarray(list(rows), dtype=np.intp)
    c = np.asarray(list(cols), dtype=np.intp)
    data = a.data[r, c]
    if not _track(a):
        return Tensor(data)

    def bw(g):
        np.add.at(_grad(a), (r, c), g)

    return _node(data, (a,), bw)


def getitem(a, key) -> Tensor:
    a = _wrap(a)
    data = a.data[key]
    if not _track(a):
        return Tensor(data)

    def bw(g):
        _grad(a)[key] += g

    return _node(data, (a,), bw)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    data = a.data.reshape(shape)
    if not _track(a):
        return Tensor(data)

    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return _node(data, (a,), bw)
