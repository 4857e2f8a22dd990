"""Non-Lefschetz loci as determinantal schemes in the dual plane.

A line l1*x1 + l2*x2 + l3*x3 acts from degree i to degree i + 1 by the
h_{i+1} x h_i matrix sum_v l_v * (multiplication by x_v), held only as the
module's three multiplication maps.  The locus at degree i is cut out by
the maximal minors, forms of degree s = min(h_i, h_{i+1}) in l1, l2, l3:
they are evaluated at the lattice points with a + b + c = s and
interpolated, so a locus needs a prime above s.  The total locus is the
intersection over all degrees, which the engine folds onto the
middle-degree basis (with exact containment shortcuts) so the
localization claim stays checkable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import rand
from .field_linalg import Matrix, _matmul, _rref, rank
from .groebner import GroebnerBasis, buchberger, intersect
from .polyring import Polynomial, Ring, monomial_basis
from .presentation import GradedModule


class ZeroLineError(ValueError):
    """The zero triple does not define a line."""


@dataclass(frozen=True)
class LocusIdeal:
    """Homogeneous ideal in the dual ring cutting out a (partial) locus."""

    gens: tuple[Polynomial, ...]

    @property
    def spanned_degree(self) -> int | None:
        """Degree k of the minors when they span every form of degree k, so
        the ideal holds m^k (k = 0: the unit ideal), by one rank; else None."""
        k = self.gens[0].degree()
        monos = monomial_basis(k).monomials
        coeffs = [[g.terms.get(mo, 0) for mo in monos] for g in self.gens]
        if k < 0 or rank(Matrix.from_rows(coeffs, self.gens[0].ring.prime)) < len(monos):
            return None
        return k


def dual_ring(m: GradedModule) -> Ring:
    return Ring(prime=m.prime, dual=True)


_BATCH = 1 << 14  # matrix entries eliminated together (128 KiB of int64)


def _lattice_minors(maps, size: int, p: int) -> np.ndarray:
    """Values of every maximal minor of sum_v l_v * maps[v] at each lattice
    point of degree ``size``: one row per point (``monomial_basis`` order),
    one column per subset of the taller side (lexicographic order).

    The square submatrices of a few points at a time (at most ``_BATCH``
    entries, or one point's) are eliminated as one stack; rows are scaled
    by the pivot instead of divided, so each determinant costs one modular
    inverse, and every product is of two residues.
    """
    tall = [mv.a if mv.rows >= mv.cols else mv.a.T for mv in maps]
    subsets = np.array(list(combinations(range(tall[0].shape[0]), size)), dtype=np.intp)
    points = monomial_basis(size).monomials
    step = max(1, _BATCH // (len(subsets) * size * size))
    nums, scales = [], []
    for lo in range(0, len(points), step):
        stack = np.concatenate([(sum(c * a % p for c, a in zip(pt, tall)) % p)[subsets]
                                for pt in points[lo:lo + step]])
        k = np.arange(len(stack))
        sign = np.ones(len(stack), dtype=np.int64)
        running = np.ones(len(stack), dtype=np.int64)  # product of the pivots so far
        scale = np.ones(len(stack), dtype=np.int64)  # det(stack) = sign * scale * minor
        for j in range(size):
            swap = j + (stack[:, j:, j] != 0).argmax(axis=1)  # stays j on a zero column
            moved = swap != j
            if moved.any():
                top = stack[k, j].copy()
                stack[k, j] = stack[k, swap]
                stack[k, swap] = top
                sign[moved] = -sign[moved]
            piv = stack[:, j, j]
            below = stack[:, j + 1:, j:]
            stack[:, j + 1:, j:] = (below * piv[:, None, None]
                                    - below[:, :, :1] * stack[:, j:j + 1, j:]) % p
            scale = scale * running % p
            running = running * piv % p
        nums.append(sign * running % p)  # a zero pivot gives 0
        scales.append(scale)
    num, scale = np.concatenate(nums), np.concatenate(scales)
    return (num * _inverse(scale, p) % p).reshape(len(points), len(subsets))


def _inverse(x: np.ndarray, p: int) -> np.ndarray:
    """Elementwise x^(p-2) mod p by square-and-multiply (0 stays 0)."""
    out, base, e = np.ones_like(x), x % p, p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


@functools.lru_cache(maxsize=8)
def _lattice_inverse(size: int, p: int) -> np.ndarray:
    """Inverse of the Vandermonde block of the lattice points of degree
    ``size`` (rows: points, columns: monomials, both in ``monomial_basis``
    order), so it maps values at the points to coefficients.  Read-only,
    as it is cached per (size, p)."""
    monos = monomial_basis(size).monomials
    n = len(monos)
    expo = np.array(monos, dtype=np.int64)
    powers = np.array([[pow(x, e, p) for e in range(size + 1)] for x in range(size + 1)],
                      dtype=np.int64)
    vander = np.ones((n, n), dtype=np.int64)
    for v in range(3):
        vander = vander * powers[expo[:, None, v], expo[None, :, v]] % p
    red, pivots = _rref(np.hstack([vander, np.eye(n, dtype=np.int64)]), p)
    if pivots[:n] != tuple(range(n)):
        raise ArithmeticError(f"lattice points of degree {size} are not unisolvent mod {p}")
    inverse = red[:, n:].copy()
    inverse.flags.writeable = False
    return inverse


def locus_ideal_at(m: GradedModule, i: int) -> LocusIdeal:
    """Ideal of maximal minors of sum_v l_v * (multiplication by x_v out of
    degree i).  A shape with a zero side has trivially maximal rank
    everywhere, so it contributes the unit ideal (empty locus).

    The minors of size s are forms of degree s in l1, l2, l3.  They are
    evaluated at the C(s+2, 2) points (a, b, c) with a + b + c = s, which
    are unisolvent for degree-s forms when p > s (principal lattice), and
    recovered by one product with the inverse Vandermonde block, cached per
    (s, p).  Generators keep the row-subset order of the taller side; zero
    minors are dropped.
    """
    ring = dual_ring(m)
    p = m.prime
    size = min(m.h(i), m.h(i + 1))
    if size == 0:
        return LocusIdeal((Polynomial.constant(ring, 1),))
    if p <= size:
        raise ValueError(f"prime {p} is too small for the degree-{i} minors: "
                         f"the locus needs a prime above the minor size {size}")
    coeffs = _matmul(_lattice_inverse(size, p), _lattice_minors(m.variable_maps(i), size, p), p)
    monos = monomial_basis(size).monomials
    gens = tuple(f for f in (Polynomial(ring, dict(zip(monos, map(int, col))))
                             for col in coeffs.T) if not f.is_zero())
    if not gens:
        gens = (Polynomial.zero(ring),)
    return LocusIdeal(gens)


def locus_ideal(m: GradedModule, middle: GroebnerBasis) -> GroebnerBasis:
    """Intersection of the per-degree ideals over every degree with a
    nontrivial map, folded onto ``middle``, the reduced basis of the
    middle-degree ideal.

    A degree is skipped when its ideal provably contains the running
    intersection: its minors span degree k and no running generator has
    lower degree, or the running generators reduce to zero against its
    basis.  Other degrees are intersected via the auxiliary-variable
    construction.  The result is a reduced basis, so it equals ``middle``
    exactly when the middle ideal is the whole intersection.
    """
    ring = dual_ring(m)
    deg = m.degrees
    running = middle
    for i in range(deg.b[0] - 1, deg.socle_degree + 1):
        if i == deg.middle_degree:
            continue
        li = locus_ideal_at(m, i)
        k = li.spanned_degree
        if k is not None and all(g.degree() >= k for g in running.basis):
            continue
        gb_i = buchberger(list(li.gens), ring=ring)
        if not all(gb_i.contains(g) for g in running.basis):
            running = intersect(running, gb_i)
    return running


@dataclass(frozen=True)
class LefschetzCheck:
    ok: bool
    failing_degrees: tuple[int, ...]


def is_lefschetz(m: GradedModule, line) -> LefschetzCheck:
    """Does multiplication by the line have maximal rank in every degree?"""
    p = m.prime
    coords = tuple(int(c) % p for c in line)
    if len(coords) != 3 or not any(coords):
        raise ZeroLineError("a line needs a nonzero coordinate triple")
    lo, e = m.degrees.b[0], m.degrees.socle_degree
    failing = []
    for i in range(lo - 1, e + 1):
        needed = min(m.h(i), m.h(i + 1))
        if needed == 0:
            continue
        maps = m.variable_maps(i)
        combo = sum(c * mv.a % p for c, mv in zip(coords, maps)) % p
        if rank(Matrix(combo, p)) < needed:
            failing.append(i)
    return LefschetzCheck(not failing, tuple(failing))


def random_line(prime: int, stream: rand.Stream) -> tuple[int, int, int]:
    while True:
        coords = tuple(stream.below(prime) for _ in range(3))
        if any(coords):
            return coords


def find_lefschetz_line(m: GradedModule, seed: int, tries: int = 100):
    """First seeded line that is a Lefschetz element, or None."""
    stream = rand.Stream(rand.derive(seed, 0x11FE))
    for _ in range(tries):
        coords = random_line(m.prime, stream)
        if is_lefschetz(m, coords).ok:
            return coords
    return None
