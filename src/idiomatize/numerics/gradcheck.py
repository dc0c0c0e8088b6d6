"""Central-difference verification of reverse-mode gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .optim import ParamStore
from .tensor import NumericError, Tensor


def grad_check(loss_fn: Callable[[ParamStore], Tensor], store: ParamStore, eps: float = 1e-5) -> float:
    """Max relative error between analytic and numeric gradients.

    ``loss_fn`` must rebuild the scalar loss from the store's current
    parameter values on every call.  Relative error per entry is
    |a - n| / max(|a|, |n|, 1e-8).  Every parameter and its ``requires_grad``
    are restored afterwards, also when ``loss_fn`` raises.
    """
    if not 1e-6 <= eps <= 1e-3:
        raise ValueError("eps must lie in [1e-6, 1e-3]")
    store.zero_grads()
    loss = loss_fn(store)
    if loss.data.size != 1:
        raise NumericError("grad_check: loss must be scalar")
    if not np.isfinite(loss.data).all():
        raise NumericError("grad_check: loss is not finite")
    loss.backward()
    analytic = {name: t.grad.copy() for name, t in store.items()}
    for name, grad in analytic.items():
        if not np.isfinite(grad).all():
            raise NumericError(f"grad_check: analytic gradient of {name!r} is not finite")
    worst = 0.0
    # The store's tensors are untracked while the loss is evaluated at perturbed values, so no graph is built.
    tracked = {name: t.requires_grad for name, t in store.items()}
    try:
        for t in store.params.values():
            t.requires_grad = False
        for name, t in store.items():
            flat = t.data.reshape(-1)
            ana = analytic[name].reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                try:
                    flat[i] = keep + eps
                    f_hi = loss_fn(store).item()
                    flat[i] = keep - eps
                    f_lo = loss_fn(store).item()
                finally:
                    flat[i] = keep
                numeric = (f_hi - f_lo) / (2.0 * eps)
                if not np.isfinite(numeric):
                    raise NumericError(f"grad_check: numeric gradient of {name!r} entry {i} is not finite")
                err = abs(ana[i] - numeric) / max(abs(ana[i]), abs(numeric), 1e-8)
                worst = max(worst, err)
    finally:
        for name, t in store.items():
            t.requires_grad = tracked[name]
    store.clear_grads()
    return worst
