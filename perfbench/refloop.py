"""Reference loop: a fixed piece of work of the two kinds the engine does,
timed interleaved with the reports so that every figure can be scaled to
one speed of the host.

One sample has two halves, timed apart: the "numpy" half row-reduces a
small int64 matrix mod p (the arithmetic under module builds, ranks and
kernels), and the "dict" half multiplies sparse polynomials stored as
dicts of exponent triples mod p (the arithmetic under the Groebner engine
and the minors).  The host's drift moves the two halves by different
amounts, so each workload is scaled by the half that matches its work.
The inputs never change, so a sample does the same work on every run; only
the speed of the host moves its time.  This module does not import the
program.
"""

from __future__ import annotations

import math
import random
import signal
import statistics
import time

import numpy as np

P = 65521

# Seconds of each half of a sample at the reference speed, 1 / mean(1 / t)
# over a minute of samples on the reference host (README, "Reference loop").
# Normalised figures read in seconds at that speed.
REFERENCE_S = {"numpy": 0.000777, "dict": 0.000921}
HALVES = tuple(REFERENCE_S)

SHARE = 0.1  # reference-loop time as a share of program time
_POLY_ROUNDS = 2
_MATRIX_SIZE = 36


def _form(rng: random.Random, degree: int) -> dict[tuple[int, int, int], int]:
    return {
        (i, j, degree - i - j): rng.randrange(1, P)
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
    }


def _mul(f: dict, g: dict) -> dict:
    out: dict[tuple[int, int, int], int] = {}
    for (a1, a2, a3), c in f.items():
        for (b1, b2, b3), d in g.items():
            m = (a1 + b1, a2 + b2, a3 + b3)
            out[m] = (out.get(m, 0) + c * d) % P
    return {m: c for m, c in out.items() if c}


def _rank(a: np.ndarray) -> int:
    a = a.copy()
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), P - 2, P) % P
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % P
        r += 1
        if r == rows:
            break
    return r


def speed(samples, half: str) -> float:
    """Mean of 1 / (time of one half of a sample).  In-call samples come at
    fixed intervals of wall time, so this is the host's speed averaged over
    the interval, which is what a call's time depends on; a median would
    pick one regime."""
    k = HALVES.index(half)
    return statistics.fmean(1 / t[k] for t in samples)


class RefLoop:
    """Fixed inputs plus the timed samples taken so far."""

    def __init__(self) -> None:
        rng = random.Random(0x5EED)
        self._forms = [(_form(rng, 4), _form(rng, 5)) for _ in range(_POLY_ROUNDS)]
        self._matrix = np.array([[rng.randrange(P) for _ in range(_MATRIX_SIZE)]
                                 for _ in range(_MATRIX_SIZE)], dtype=np.int64)
        self.samples: list[tuple[float, float]] = []  # seconds per half

    def sample(self) -> float:
        """Run the loop once; record the time of each half, return the sum."""
        t0 = time.perf_counter()
        acc = _rank(self._matrix)
        t1 = time.perf_counter()
        for f, g in self._forms:
            acc += len(_mul(_mul(f, g), f))
        t2 = time.perf_counter()
        if acc <= 0:
            raise RuntimeError("reference loop did no work")
        self.samples.append((t1 - t0, t2 - t1))
        return t2 - t0

    def batch(self, seconds: float) -> None:
        """At least one sample, and about `seconds` of them."""
        last = sum(self.samples[-1]) if self.samples else sum(REFERENCE_S.values())
        for _ in range(max(1, round(seconds / last))):
            self.sample()


class Timeline:
    """Raw times of program work, each scaled to the reference speed by the
    `half` of the reference samples taken around and, when `during` is set,
    inside the block of work that holds it.

    The host's speed drifts on a scale of seconds, so a figure is scaled by
    the samples taken next to it, not by a whole-run median.  A call that
    lasts seconds outruns any sample taken before or after it, so with
    `during` an interval timer interrupts the call every (reference sample
    time) / SHARE seconds to take one sample; the time of those samples is
    taken out of the call's raw time.
    """

    def __init__(self, ref: RefLoop, block_s: float, during: bool, half: str) -> None:
        self.ref, self.block_s, self.during, self.half = ref, block_s, during, half
        self.stolen = 0.0
        self._open: list[list[float]] = []
        self._window = len(ref.samples)  # first sample of the current window
        if during:
            signal.signal(signal.SIGALRM, self._tick)
        ref.sample()

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.ref.sample()
        self.stolen += time.perf_counter() - t0

    def clock(self) -> float:
        """Wall time less the time of the samples taken inside calls."""
        return time.perf_counter() - self.stolen

    def run(self, fn):
        """Call fn(); return its result and [raw, scaled] seconds for it.
        `scaled` is filled in when the block that holds the call closes."""
        if self.during:
            interval = sum(REFERENCE_S.values()) / SHARE
            signal.setitimer(signal.ITIMER_REAL, interval, interval)
        t0 = self.clock()
        try:
            result = fn()
        finally:
            if self.during:
                signal.setitimer(signal.ITIMER_REAL, 0)
            raw = self.clock() - t0
        item = [raw, math.nan]
        self._open.append(item)
        if sum(i[0] for i in self._open) >= self.block_s:
            self.close()
        return result, item

    def close(self) -> None:
        """Take the closing samples of the block and scale its items by the
        mean speed of every sample since the previous block closed."""
        if not self._open:
            return
        taken = len(self.ref.samples) - self._window
        busy = sum(i[0] for i in self._open)
        start = len(self.ref.samples)
        self.ref.batch(max(0.0, SHARE * busy - taken * sum(REFERENCE_S.values())))
        factor = REFERENCE_S[self.half] * speed(self.ref.samples[self._window:], self.half)
        for item in self._open:
            item[1] = item[0] * factor
        self._window, self._open = start, []
