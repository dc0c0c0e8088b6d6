"""Named parameter store, the Adam update and the training loop used by every model."""

from __future__ import annotations

import logging
import math
import time
from typing import Callable, Sequence

import numpy as np

from ..rng import Rng, is_int
from .tensor import NumericError, Tensor

log = logging.getLogger(__name__)

INIT_SCALE = 0.08
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
CLIP_NORM = 5.0


def check_sizes(**sizes: object) -> None:
    """Raise ValueError naming the first size that is not a positive integer."""
    for name, value in sizes.items():
        if not is_int(value) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


class ParamStore:
    """Ordered name -> Tensor map plus Adam moment buffers."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self._moment1: dict[str, np.ndarray] = {}
        self._moment2: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, name: str, shape: tuple[int, ...], rng: Rng, scale: float = INIT_SCALE) -> Tensor:
        """New parameter with entries uniform in (-scale, scale), row-major draw order."""
        if name in self.params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(rng.uniforms(math.prod(shape), -scale, scale).reshape(shape), requires_grad=True)
        self.params[name] = t
        return t

    def add_zeros(self, name: str, shape: tuple[int, ...]) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.zeros(shape, dtype=np.float64), requires_grad=True)
        self.params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def items(self):
        return self.params.items()

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.grad = np.zeros_like(t.data)

    def clear_grads(self) -> None:
        for t in self.params.values():
            t.grad = None


def global_grad_norm(store: ParamStore) -> float:
    total = 0.0
    for t in store.params.values():
        if t.grad is not None:
            total += float((t.grad**2).sum())
    return math.sqrt(total)


def adam_step(store: ParamStore, lr: float) -> float:
    """One bias-corrected Adam update over every parameter in the store.

    The global gradient norm is clipped to ``CLIP_NORM``; the norm before
    clipping is returned.  Gradients are consumed: a second call without a
    fresh backward pass raises instead of silently re-stepping on stale
    gradients.
    """
    for name, t in store.params.items():
        if t.grad is None:
            raise NumericError(f"adam_step: no gradient for parameter {name!r}")
        if not np.isfinite(t.grad).all():
            raise NumericError(f"adam_step: non-finite gradient for parameter {name!r}")
    norm = global_grad_norm(store)
    if norm > CLIP_NORM:
        scale = CLIP_NORM / norm
        for t in store.params.values():
            t.grad *= scale
    store.step_count += 1
    c1 = 1.0 - BETA1**store.step_count
    c2 = 1.0 - BETA2**store.step_count
    for name, t in store.params.items():
        g = t.grad
        m = store._moment1.get(name)
        if m is None:
            m = store._moment1[name] = np.zeros_like(t.data)
        v = store._moment2.get(name)
        if v is None:
            v = store._moment2[name] = np.zeros_like(t.data)
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g**2
        t.data -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)
        if not np.isfinite(t.data).all():
            raise NumericError(f"non-finite values in parameter {name!r} after update")
        t.grad = None
    return norm


def fit(
    store: ParamStore,
    rng: Rng,
    draw: Callable[[], Sequence],
    batch_loss: Callable[[list], Tensor],
    step: Callable[[], float],
    *,
    epochs: int,
    batch_size: int,
    evaluate: Callable[[], float] | None,
    eval_every: int,
    after_epoch: Callable[[float | None], bool],
    name: str,
    metric_name: str,
) -> tuple[list[float], list[float | None]]:
    """Minibatch training; returns the per-epoch mean instance losses and metrics.

    Each epoch visits the instances ``draw`` returns (it may consume
    ``rng``) in an order shuffled by ``rng``, and steps once per batch on
    the batch-mean loss: ``batch_loss`` maps the batch's instances, in
    that order, to their summed loss.  ``step`` returns the gradient norm before clipping.
    Every ``eval_every`` epochs ``evaluate`` gives the epoch's metric
    (None otherwise).  ``after_epoch(metric)`` returning
    True stops training.  Each epoch logs one INFO line, with the
    epoch's largest gradient norm.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if evaluate is not None and eval_every < 1:
        raise ValueError(f"eval_every must be >= 1, got {eval_every}")
    losses: list[float] = []
    metrics: list[float | None] = []
    for epoch in range(epochs):
        start = time.perf_counter()
        instances = draw()
        order = list(range(len(instances)))
        rng.shuffle(order)
        total = 0.0
        max_norm = 0.0
        for lo in range(0, len(order), batch_size):
            batch = order[lo : lo + batch_size]
            store.zero_grads()
            mean_loss = batch_loss([instances[i] for i in batch]) * (1.0 / len(batch))
            total += mean_loss.item() * len(batch)
            mean_loss.backward()
            del mean_loss  # free this batch's graph before the next batch builds its own
            max_norm = max(max_norm, step())
        losses.append(total / len(instances))
        metric = evaluate() if evaluate is not None and (epoch + 1) % eval_every == 0 else None
        metrics.append(metric)
        log.info(
            "%s epoch %d/%d: loss %.6f, %s %s, max grad norm %.4f, %.2f s",
            name, epoch + 1, epochs, losses[-1], metric_name,
            "-" if metric is None else f"{metric:.4f}", max_norm, time.perf_counter() - start,
        )
        if after_epoch(metric):
            break
    return losses, metrics
