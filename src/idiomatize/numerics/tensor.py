"""Dense float64 tensors with reverse-mode automatic differentiation.

A small tape: every operation returns its result through ``_node``,
which alone decides whether it is tracked; a tracked result remembers its
parent tensors and a closure mapping the output gradient to one gradient
per parent (a vector-Jacobian product), and ``Tensor.backward`` adds
those into the parents that require one.
Only the operations the models in this package need are implemented.
Gradients of broadcast operands are summed back to the operand's shape.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class NumericError(RuntimeError):
    """Non-finite values or an inconsistent gradient state."""


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
        """The value of a one-element tensor of any shape, such as a [1,1] score."""
        return self.data.item()

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad over the whole graph: each node's VJP terms are added
        into its parents in the order it lists them, and a node no gradient reached is skipped."""
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
            if node._backward is None or node.grad is None:
                continue
            grads = node._backward(node.grad)
            if grads is not None:
                for p, g in zip(node._parents, grads):
                    if p.requires_grad:
                        buf = _grad(p)
                        buf += g

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

    def __getitem__(self, key):
        return getitem(self, key)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """An op's result: plain ``Tensor(data)`` unless a parent requires a gradient.

    This is the one place that decides tracking.  A tracked result keeps
    ``vjp``, which maps its gradient ``g`` to one gradient per entry of
    ``parents``, in order; a parent used twice is listed twice.  Only
    indexing adds into its parent's gradient itself and returns None.  The
    closure gets ``g`` as an argument instead of reading it off the result,
    so no node refers back to itself and a dropped graph is freed by
    reference counting.
    """
    for p in parents:  # a loop, not any() over a generator: this runs for every op
        if p.requires_grad:
            break
    else:
        return Tensor(data)
    out = Tensor(data, requires_grad=True)
    out._parents = parents
    out._backward = vjp
    return out


def _grad(t: Tensor) -> np.ndarray:
    """``t``'s gradient buffer, zero-filled on first use."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


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
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _node(a.data + b.data, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _node(a.data - b.data, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data
    return _node(
        data, (a, b), lambda g: (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape))
    )


def neg(a) -> Tensor:
    a = _wrap(a)
    return _node(-a.data, (a,), lambda g: (-g,))


def _row_outer(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The sum of the rows' outer products ``x[b] g[b]^T``: [I,J]; one row gives ``np.outer`` bit for bit."""
    return np.dot(x.T, g)


def matvec(w, x) -> Tensor:
    """``w @ x[b]`` for each row of ``x`` [B,I]: [B,J].  ``np.vecmat`` forms each row as its own
    vector-matrix product, so each row equals its 1-D product bit for bit, gradient included, where
    the gemm ``x @ w.T`` does not; ``w``'s gradient sums the rows' outer products."""
    w, x = _wrap(w), _wrap(x)
    if x.ndim != 2:
        raise ValueError(f"matvec takes [B,I] rows, got shape {x.shape}")
    return _node(np.vecmat(x.data, w.data.T), (w, x), lambda g: (_row_outer(g, x.data), np.vecmat(g, w.data)))


def vecmat(x, w) -> Tensor:
    """``x[b] @ w`` for each row of ``x`` [B,I], as ``matvec``, with one [I,J] matrix ``w`` or
    [B,I,J], one matrix per row, each with its own outer-product gradient."""
    x, w = _wrap(x), _wrap(w)
    if x.ndim != 2:
        raise ValueError(f"vecmat takes [B,I] rows, got shape {x.shape}")
    data = np.vecmat(x.data, w.data)
    if w.ndim == 3:
        return _node(
            data, (x, w), lambda g: (np.vecmat(g, w.data.swapaxes(1, 2)), x.data[:, :, None] * g[:, None, :])
        )
    return _node(data, (x, w), lambda g: (np.vecmat(g, w.data.T), _row_outer(x.data, g)))


def tsum(a, axis: int | None = None) -> Tensor:
    a = _wrap(a)
    data = a.data.sum(axis=axis)
    return _node(
        data, (a,), lambda g: (np.broadcast_to(g if axis is None else np.expand_dims(g, axis), a.data.shape),)
    )


def tanh(a) -> Tensor:
    a = _wrap(a)
    data = np.tanh(a.data)
    return _node(data, (a,), lambda g: (g * (1.0 - data**2),))


def exp(a) -> Tensor:
    a = _wrap(a)
    data = np.exp(a.data)
    return _node(data, (a,), lambda g: (g * data,))


def softplus(a) -> Tensor:
    """log(1 + exp(x)), stable for large |x|."""
    a = _wrap(a)
    data = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    return _node(data, (a,), lambda g: (g * _sigmoid_np(a.data),))


def logsumexp(a, axis: int | None = None) -> Tensor:
    """log(sum(exp(x))) with max-subtraction; safe for scores up to ~1e308."""
    a = _wrap(a)
    m = np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = np.sum(e, axis=axis, keepdims=True)
    full = np.log(s) + m
    data = full.reshape(()) if axis is None else np.squeeze(full, axis=axis)
    return _node(data, (a,), lambda g: ((g if axis is None else np.expand_dims(g, axis)) * (e / s),))


def softmax(a) -> Tensor:
    """Softmax over the last axis via logsumexp: of a vector, or of each row of a matrix."""
    a = _wrap(a)
    return exp(sub(a, reshape(logsumexp(a, axis=-1), a.shape[:-1] + (1,))))


def concat(parts: Sequence, axis: int = -1) -> Tensor:
    """Join along the last axis (vectors end to end, or matrices row by row),
    or with ``axis=0`` along the first (matrices' rows one after another)."""
    if axis not in (0, -1):
        raise ValueError(f"concat joins along axis 0 or -1, not {axis}")
    parts = [_wrap(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)

    def vjp(g):
        start = 0
        for p in parts:
            end = start + p.data.shape[axis]
            yield g[start:end] if axis == 0 else g[..., start:end]
            start = end

    return _node(data, tuple(parts), vjp)


_BASIC_INDEX = (int, np.integer, slice)


def _index_array(k):
    """An integer index list or range as an array, converted once for the gather and its backward."""
    return np.asarray(k, dtype=np.intp) if isinstance(k, (list, range)) else k


def getitem(a, key) -> Tensor:
    """``a[key]`` for any numpy key: ints, slices, integer index lists or arrays, or tuples of them.

    It is the one op whose VJP adds into its parent's gradient itself and
    returns None: a VJP term would be a dense gradient of ``a``, an
    embedding-sized array for every gathered token.  A key that holds an
    index array may repeat an index, so it uses ``np.add.at``, which sums
    repeated indices in order.  Int and slice keys never repeat one and keep
    the faster in-place add.
    """
    a = _wrap(a)
    if isinstance(key, _BASIC_INDEX) or (isinstance(key, tuple) and all(isinstance(k, _BASIC_INDEX) for k in key)):

        def vjp(g):
            _grad(a)[key] += g

    else:
        key = tuple(map(_index_array, key)) if isinstance(key, tuple) else _index_array(key)

        def vjp(g):
            np.add.at(_grad(a), key, g)

    return _node(a.data[key], (a,), vjp)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))
