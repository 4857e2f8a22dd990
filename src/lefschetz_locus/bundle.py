"""Numerical invariants of the rank-2 kernel bundle.

Everything here is closed-form arithmetic in the degree data: Chern
classes from the defining sequence, Euler characteristics, exact global
section counts (the twisted free resolution makes the section sequence
short exact), the stability classification through section vanishing at
the normalized twists, and the case table deciding Lefschetz behaviour
from a splitting type.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .presentation import DegreeData


class InconsistencyError(ArithmeticError):
    """A closed-form identity failed; the input is degenerate."""


def _sections_line_bundle(m: int) -> int:
    """h^0 of O(m) on the plane: C(m+2, 2) for m >= 0, else 0."""
    return comb(m + 2, 2) if m >= 0 else 0


def _chi_line_bundle(m: int) -> int:
    """Euler characteristic of O(m) on the plane, all m."""
    return (m + 2) * (m + 1) // 2


@dataclass(frozen=True)
class ChernData:
    c1: int
    c2: int
    d: int

    def twisted(self, t: int) -> "ChernData":
        """Chern data of the twist: c1 + 2t and c2 + c1*t + t^2."""
        return ChernData(self.c1 + 2 * t, self.c2 + self.c1 * t + t * t, self.d)


def chern(degrees: DegreeData) -> ChernData:
    """First and second Chern class from the total Chern class identity of
    the defining sequence, truncated past square terms."""
    a, b = degrees.a, degrees.b
    e1a, e1b = sum(a), sum(b)
    e2a = sum(a[i] * a[j] for i in range(len(a)) for j in range(i + 1, len(a)))
    e2b = sum(b[i] * b[j] for i in range(len(b)) for j in range(i + 1, len(b)))
    c1 = e1b - e1a
    c2 = e2a - e1a * e1b + e1b * e1b - e2b
    return ChernData(c1, c2, degrees.d)


def euler_characteristic(degrees: DegreeData, t: int) -> int:
    """chi of the twisted bundle, by additivity over the defining sequence;
    cross-checked against the closed form in t."""
    total = sum(_chi_line_bundle(t - ai) for ai in degrees.a)
    total -= sum(_chi_line_bundle(t - bj) for bj in degrees.b)
    d = degrees.d
    sq = sum(ai * ai for ai in degrees.a) - sum(bj * bj for bj in degrees.b)
    closed_twice = 2 * t * t + 6 * t + 4 - 2 * d * t - 3 * d + sq
    if closed_twice != 2 * total:
        raise InconsistencyError("Euler characteristic closed form disagrees with the sum")
    return total


def h0(degrees: DegreeData, t: int) -> int:
    """Exact h^0 of the twisted bundle: sections of the middle free module
    minus sections of the left one (the section sequence is short exact)."""
    d = degrees.d
    value = sum(_sections_line_bundle(t - d + ai) for ai in degrees.a)
    value -= sum(_sections_line_bundle(t - d + bj) for bj in degrees.b)
    if value < 0:
        raise InconsistencyError(f"negative section count at twist {t}")
    return value


def h2(degrees: DegreeData, t: int) -> int:
    """h^2 via duality: the bundle is self-dual up to the twist by d."""
    return h0(degrees, degrees.d - 3 - t)


@dataclass(frozen=True)
class StabilityReport:
    cls: str  # "stable" | "semistable-strict" | "unstable"
    t0: int
    c1_norm: int
    k: int | None

    @property
    def semistable(self) -> bool:
        return self.cls != "unstable"

    @property
    def unstable(self) -> bool:
        return self.cls == "unstable"


@dataclass(frozen=True)
class SplittingType:
    """Line restriction type O(alpha) + O(beta), alpha >= beta."""

    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha < self.beta:
            raise ValueError("splitting type must be sorted descending")

    @property
    def total(self) -> int:
        return self.alpha + self.beta

    @property
    def gap(self) -> int:
        return self.alpha - self.beta

    def shifted(self, t: int) -> "SplittingType":
        return SplittingType(self.alpha + t, self.beta + t)


def _instability_index(degrees: DegreeData, t0: int) -> int:
    """Largest k with sections first appearing at normalized twist -k."""
    bound = degrees.a[-1] + abs(degrees.b[0]) + 3
    for t in range(-bound, bound + 1):
        if h0(degrees, t0 + t) > 0:
            return -t
    raise InconsistencyError("no sections found in the scan window")


def classify_stability(degrees: DegreeData) -> StabilityReport:
    """Stability of the kernel bundle from section vanishing at the
    normalized twists; the classification is determined by the degree data."""
    d = degrees.d
    if d % 2 == 0:
        t0 = d // 2
        c1_norm = 0
        if h0(degrees, t0) == 0:
            return StabilityReport("stable", t0, c1_norm, None)
        if h0(degrees, t0 - 1) == 0:
            return StabilityReport("semistable-strict", t0, c1_norm, None)
        k = _instability_index(degrees, t0)
        if k <= 0:
            raise InconsistencyError("even-twist unstable bundle needs k > 0")
        return StabilityReport("unstable", t0, c1_norm, k)
    t0 = (d - 1) // 2
    c1_norm = -1
    if h0(degrees, t0) == 0:
        return StabilityReport("stable", t0, c1_norm, None)
    k = _instability_index(degrees, t0)
    if k < 0:
        raise InconsistencyError("odd-twist unstable bundle needs k >= 0")
    return StabilityReport("unstable", t0, c1_norm, k)


def generic_splitting(stability: StabilityReport) -> SplittingType:
    """Restriction type on a general line, for the normalized bundle."""
    if stability.semistable:
        return SplittingType(0, 0) if stability.c1_norm == 0 else SplittingType(0, -1)
    k = stability.k
    assert k is not None
    if stability.c1_norm == 0:
        return SplittingType(k, -k)
    return SplittingType(k, -k - 1)


def lefschetz_oracle(stability: StabilityReport, splitting: SplittingType) -> bool:
    """Is a line with this normalized splitting type a Lefschetz element?

    Semistable: exactly the balanced types.  Unstable: exactly the generic
    type (destabilizing piece showing, nothing worse).
    """
    if splitting.total != stability.c1_norm:
        raise InconsistencyError(
            f"splitting sums to {splitting.total}, normalized first Chern class "
            f"is {stability.c1_norm}"
        )
    if stability.semistable:
        return splitting.gap <= 1
    return splitting == generic_splitting(stability)
