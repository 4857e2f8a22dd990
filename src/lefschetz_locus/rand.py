"""Deterministic pseudo-random streams (splitmix64).

Every "random" object in the engine (matrices, lines, pencils) is drawn
from one of these streams, so a (seed, prime) pair pins the entire run
byte-for-byte, independent of platform and Python version.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class Stream:
    """splitmix64 generator."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); bias is negligible for n << 2**64."""
        return self.next_u64() % n

    def below_many(self, n: int, count: int) -> np.ndarray:
        """The next ``count`` draws of ``below(n)`` at once, as int64."""
        states = self._state + np.arange(1, count + 1, dtype=np.uint64) * _GAMMA  # wraps mod 2^64
        self._state = (self._state + count * _GAMMA) & _MASK
        return (_mix(states) % n).astype(np.int64)


def _mix(z):
    """splitmix64's output function, of a Python int or a uint64 array."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive(seed: int, tag: int) -> int:
    """A child seed for an independent sub-stream (matrix vs. lines vs. retries)."""
    return Stream((seed & _MASK) ^ ((tag & _MASK) * _GAMMA & _MASK)).next_u64()
