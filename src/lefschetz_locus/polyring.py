"""Monomials and forms in three variables over a prime field.

Two rings share the same machinery: the primal ring with variables
x1, x2, x3 and the dual coordinate ring of the plane of lines with
variables l1, l2, l3.  Monomials are exponent triples.  Graded bases of
the primal ring list in deg-lex order with x1 > x2 > x3, which makes every
derived matrix byte-reproducible; the dual ring's coefficient rows are in
grevlex order (see :mod:`.groebner`).  A polynomial string is parsed at
the boundary into a term dict, and ``Polynomial`` is only the form that a
Groebner basis reads off its rows.  Forms restrict to a line through a
table of restricted monomials, degree by degree.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .field_linalg import DEFAULT_PRIME, is_prime

Mono = tuple[int, int, int]


class DegenerateLineError(ValueError):
    """Raised when a line parametrization does not span a 2-plane."""


@dataclass(frozen=True)
class Ring:
    """Coefficient prime plus a primal/dual tag."""

    prime: int = DEFAULT_PRIME
    dual: bool = False

    def __post_init__(self):
        if self.prime >= 2**31:  # (p - 1)^2 plus a residue must fit in int64
            raise ValueError(f"prime {self.prime} is too large: it must be below 2^31")
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")

    @property
    def variables(self) -> tuple[str, str, str]:
        return ("l1", "l2", "l3") if self.dual else ("x1", "x2", "x3")


@dataclass(frozen=True)
class GradedPieceBasis:
    """All degree-t monomials, largest first in deg-lex."""

    degree: int
    monomials: tuple[Mono, ...]

    def __len__(self) -> int:
        return len(self.monomials)


@functools.lru_cache(maxsize=None)
def monomial_basis(t: int) -> GradedPieceBasis:
    """Monomials of degree t; C(t+2, 2) of them for t >= 0, none otherwise.
    Cached: the basis is immutable and asked for over and over."""
    if t < 0:
        return GradedPieceBasis(t, ())
    mons = []
    for e1 in range(t, -1, -1):
        for e2 in range(t - e1, -1, -1):
            mons.append((e1, e2, t - e1 - e2))
    return GradedPieceBasis(t, tuple(mons))


def position(t, e):
    """Index of the exponent triples ``e`` (the last axis) in
    ``monomial_basis(t)``, elementwise over arrays of t and e.  With
    r = t - e1, the r(r+1)/2 monomials of larger x1-exponent come first, then
    those of x1-exponent e1 by falling e2: the index is r(r+1)/2 + r - e2."""
    r = t - e[..., 0]
    return r * (r + 1) // 2 + r - e[..., 1]


class Polynomial:
    """A form as ``GroebnerBasis.basis`` reads it off its rows: the ring and
    the terms, exponent triple -> nonzero residue.  Forms are coefficient
    rows everywhere else."""

    def __init__(self, ring: Ring, terms: dict[Mono, int]):
        self.ring = ring
        self.terms = terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )


# -- restriction of forms to a line ------------------------------------


def line_power_table(param, top: int, prime: int) -> np.ndarray:
    """Restrictions of all monomials of degree <= ``top`` to the line where
    x_v = param[v][0]*s + param[v][1]*u.  Row C(e+2, 3) + k is the k-th
    monomial of ``monomial_basis(e)``, column l its coefficient of
    s^(e-l) * u^l.  In deg-lex order degree e+1 is x1 times all of degree e,
    x2 times its last e+1 rows and x3 times its last row: one shift and two
    products.  Each degree is reduced mod p, so a sum of two products stays
    below 2(p-1)^2, inside int64 for p < 2^31."""
    rows = np.asarray(param, dtype=np.int64) % prime
    if rows.shape != (3, 2):
        raise ValueError("parametrization must be 3x2")
    if not (np.cross(rows[:, 0], rows[:, 1]) % prime).any():  # no nonzero 2x2 minor
        raise DegenerateLineError("parametrization does not span a plane")
    top = max(top, 0)
    table = np.zeros(((top + 1) * (top + 2) * (top + 3) // 6, top + 1), dtype=np.int64)
    table[0, 0] = 1
    lo = 0
    for e in range(top):
        mid = lo + (e + 1) * (e + 2) // 2  # degree e holds rows lo..mid-1
        prev = table[lo:mid, :e + 1]
        grown = np.vstack([prev, prev[-(e + 1):], prev[-1:]])
        var = rows[np.repeat([0, 1, 2], [mid - lo, e + 1, 1])]
        nxt = table[mid:mid + len(grown), :e + 2]
        nxt[:, :-1] = var[:, :1] * grown
        nxt[:, 1:] += var[:, 1:] * grown
        nxt %= prime
        lo = mid
    return table


# -- text format --------------------------------------------------------

_FACTOR_RE = re.compile(r"^([xl][123])(?:\^(\d+))?$")


def parse_poly(text: str, ring: Ring) -> dict[Mono, int]:
    """The terms, exponent triple -> nonzero residue, of a polynomial string:
    signed terms such as ``3*x1^2*x2`` (``l1`` ... in the dual ring), with
    ``*`` between factors and ``^`` for exponents.  Terms that cancel mod p
    are dropped."""
    names = ring.variables
    var_index = {name: i for i, name in enumerate(names)}
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial string")
    s = s.replace("-", "+-")
    chunks = [c.strip() for c in s.split("+")]
    terms: dict[Mono, int] = {}
    for chunk in chunks:
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        if not chunk:
            raise ValueError(f"dangling sign in {text!r}")
        coef = 1
        exps = [0, 0, 0]
        for factor in (f.strip() for f in chunk.split("*")):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            if factor.isdigit():
                coef *= int(factor)
                continue
            m = _FACTOR_RE.match(factor)
            if not m or m.group(1) not in var_index:
                raise ValueError(f"unrecognized factor {factor!r} for ring variables {names}")
            i = var_index[m.group(1)]
            exps[i] += int(m.group(2)) if m.group(2) else 1
        mono = (exps[0], exps[1], exps[2])
        terms[mono] = terms.get(mono, 0) + sign * coef
    return {mono: c % ring.prime for mono, c in terms.items() if c % ring.prime}
