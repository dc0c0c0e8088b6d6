"""Host-speed probe used to normalise timings.

On a small shared virtual machine the speed of the host changes by up to
a factor of two within seconds (other tenants, host frequency) while the
process stays on the CPU, so neither CPU time nor longer runs remove it.
The probe runs a fixed piece of work with the same character as the
program — a toy autodiff tape: small numpy calls on 64-wide vectors, a
node object and a backward closure per operation, then a backward walk —
between the pieces of work the benchmark times.  A piece's wall time
multiplied by ``REFERENCE_S`` over the mean of the two probes around it
reads as its time on a host where the probe takes ``REFERENCE_S``.  The
probe uses no program code, so a change to the program cannot change it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

PROBE_STEPS = 240
# About the median probe time on the host the bounds were set on (2-vCPU
# KVM guest, Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4), whose speed
# moved the probe between 2.2 and 3.5 ms.
REFERENCE_S = 0.0025


class _Node:
    __slots__ = ("data", "parents", "backward")

    def __init__(self, data, parents, backward):
        self.data = data
        self.parents = parents
        self.backward = backward


def _tape_work(w: np.ndarray, x: np.ndarray) -> None:
    """A GRU-like recurrence recorded on a toy tape, then walked backward.

    Closures capture arrays only, so the tape holds no reference cycles
    and is freed as soon as the function returns.
    """
    h = _Node(x, (), None)
    nodes = []
    for _ in range(PROBE_STEPS):
        pre = w @ h.data
        a = _Node(pre, (h,), lambda g: g)
        z = 1.0 / (1.0 + np.exp(-pre))
        zn = _Node(z, (a,), lambda g, z=z: g * z * (1.0 - z))
        out = np.tanh(z * h.data + 0.1)
        h = _Node(out, (zn, h), lambda g, out=out: g * (1.0 - out * out))
        nodes += (a, zn, h)
    g = np.ones_like(x)
    for node in reversed(nodes):
        g = node.backward(g)


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._w = rng.standard_normal((64, 64)) * 0.1
        self._x = rng.standard_normal(64)
        self._starts: list[float] = []
        self._ends: list[float] = []

    def measure(self) -> None:
        """Run the fixed work once and record when it started and ended."""
        t0 = time.perf_counter()
        _tape_work(self._w, self._x)
        self._starts.append(t0)
        self._ends.append(time.perf_counter())

    @property
    def samples(self) -> list[float]:
        return [e - s for s, e in zip(self._starts, self._ends)]

    def segments(self, start: float, end: float) -> list[tuple[float, float]]:
        """(raw seconds, scale) for each piece of [start, end] between the probes inside it.

        A probe must have ended by ``start`` and another begun at or after
        ``end``; each piece is scaled by the two probes around it.
        """
        first = bisect.bisect_left(self._starts, start)
        last = bisect.bisect_left(self._starts, end)
        if first == 0 or last == len(self._starts):
            raise ValueError("region needs a probe before and after it")
        cuts = range(first, last)
        bounds = [start] + [x for i in cuts for x in (self._starts[i], self._ends[i])] + [end]
        probes = [first - 1, *cuts, last]
        out = []
        for k in range(len(probes) - 1):
            a, b = probes[k], probes[k + 1]
            mean = (self._ends[a] - self._starts[a] + self._ends[b] - self._starts[b]) / 2
            out.append((bounds[2 * k + 1] - bounds[2 * k], REFERENCE_S / mean))
        return out

    def region(self, start: float, end: float) -> tuple[float, float]:
        """(raw, scaled) seconds of [start, end], probe time excluded."""
        segs = self.segments(start, end)
        return sum(dt for dt, _ in segs), sum(dt * f for dt, f in segs)

    def summary(self) -> dict:
        s = self.samples
        return {"probe_reference_ms": 1e3 * REFERENCE_S, "probe_median_ms": 1e3 * statistics.median(s),
                "probe_min_ms": 1e3 * min(s), "probe_max_ms": 1e3 * max(s), "probe_samples": len(s)}
