"""Deterministic xorshift64* random stream.

Pure integer arithmetic so that draws are bit-identical on every
platform.  Every piece of sampling in the package (parameter init,
shuffling, negative sampling, data splits) goes through this class;
numpy's generators are never used for anything that affects results.

``Rng.uniforms`` draws a whole array at once and is the same stream as
that many ``uniform`` calls.  The xorshift state update is linear over
GF(2), so its ``2**k``-fold power is a 64x64 bit matrix (Haramoto et al.,
2008, "Efficient jump ahead for F2-linear random number generators").
One jump per lane gives the start states of lanes of ``2**k``
consecutive draws; the lanes then step side by side as ``uint64``
arrays, whose shifts drop bits past 64 and whose multiply wraps mod
``2**64`` as the masked integer code does.  The scaling to floats is the
same float64 operations in the same order, so values and the state left
behind are bit-identical to the scalar loop.

``is_int`` is the package's one rule for integers; it lives here, the
lowest module that both ``corpus`` and ``numerics`` import.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15

T = TypeVar("T")


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new state, output)."""
    state = (state + _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _xorshift(x: int) -> int:
    x ^= x >> 12
    x ^= (x << 25) & _MASK64
    return x ^ (x >> 27)


def _apply(columns: tuple[int, ...], x: int) -> int:
    """Bit matrix (given by its 64 columns) times state vector x over GF(2)."""
    y, bit = 0, 0
    while x:
        if x & 1:
            y ^= columns[bit]
        x >>= 1
        bit += 1
    return y


@cache
def _jump(k: int) -> tuple[int, ...]:
    """Columns of the matrix that advances the state by 2**k xorshift steps."""
    if k == 0:
        return tuple(_xorshift(1 << b) for b in range(64))
    half = _jump(k - 1)
    return tuple(_apply(half, column) for column in half)


def is_int(value: object) -> bool:
    """An integer proper: booleans and floats such as ``1.0`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


class Rng:
    """xorshift64* generator seeded through splitmix64.

    The splitmix pass spreads small seeds over the whole state space and
    guarantees the xorshift state is never zero.
    """

    def __init__(self, seed: int):
        if not (is_int(seed) and 0 <= seed <= _MASK64):  # True would seed as 1
            raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
        state, z = _splitmix64(seed)
        while z == 0:
            state, z = _splitmix64(state)
        self._state = z

    def next_u64(self) -> int:
        self._state = x = _xorshift(self._state)
        return (x * _XORSHIFT_MULT) & _MASK64

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def uniforms(self, n: int, lo: float, hi: float) -> np.ndarray:
        """The values of n ``uniform(lo, hi)`` calls as a float64 array; the state ends where theirs would."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return np.empty(0, dtype=np.float64)
        # Lanes of m = 2**k consecutive states, m about sqrt(n): the Python jumps
        # (one per lane) and the array steps (one per lane position) stay balanced.
        k = n.bit_length() // 2
        m = 1 << k
        jump = _jump(k)
        starts = [self._state]
        for _ in range((n - 1) >> k):
            starts.append(_apply(jump, starts[-1]))
        x = np.array(starts, dtype=np.uint64)
        # Each step writes its 53-bit draws straight into the result, so no
        # n-sized temporary is made; draw n is position (n - 1) % m of the last lane.
        values = np.empty((len(starts), m), dtype=np.float64)
        for t in range(m):
            x ^= x >> np.uint64(12)
            x ^= x << np.uint64(25)
            x ^= x >> np.uint64(27)
            values[:, t] = (x * np.uint64(_XORSHIFT_MULT)) >> np.uint64(11)
            if t == (n - 1) & (m - 1):
                self._state = int(x[-1])
        values *= 2.0**-53
        values *= hi - lo
        values += lo
        return values.reshape(-1)[:n]

    def randint(self, n: int) -> int:
        """Unbiased draw from range(n) by rejection."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def choice(self, items: Sequence[T]) -> T:
        return items[self.randint(len(items))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """k distinct elements drawn without replacement."""
        n = len(items)
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} from {n} items")
        pool = list(items)
        for i in range(k):
            j = i + self.randint(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
