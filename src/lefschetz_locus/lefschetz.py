"""Non-Lefschetz loci as determinantal schemes in the dual plane.

A line l1*x1 + l2*x2 + l3*x3 acts from degree i to degree i + 1 by the
h_{i+1} x h_i matrix sum_v l_v * (multiplication by x_v), held only as the
module's three multiplication maps.  The locus at degree i is cut out by
the maximal minors, forms of degree s = min(h_i, h_{i+1}) in l1, l2, l3:
they are evaluated at the lattice points with a + b + c = s, by complementary
minors of one left kernel per point, and interpolated, so a locus needs a
prime above s.  ``locus_ideal`` decides whether the middle degree alone cuts
out the whole locus: a degree passes if its minor values have full rank, else
by one Macaulay-matrix rank, saturating only where that falls short.  A
degree with many minors is first tried on C(s+2, 2) + 4 seeded
combinations det(Q_j^T X) of them (Cauchy-Binet), which need no subset
enumeration: each is the value vector of a form in the degree's minor
ideal, so their full rank is an exact pass, and only a shortfall takes
every minor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from . import rand
from .field_linalg import Matrix, _matmul, _rref, rank
from .groebner import GroebnerBasis, _mono_mul, buchberger, saturate
from .polyring import Polynomial, Ring, monomial_basis
from .presentation import GradedModule


class ZeroLineError(ValueError):
    """The zero triple does not define a line."""


@dataclass(frozen=True)
class LocusIdeal:
    """Homogeneous ideal in the dual ring cutting out a (partial) locus."""

    gens: tuple[Polynomial, ...]


def dual_ring(m: GradedModule) -> Ring:
    return Ring(prime=m.prime, dual=True)


_BATCH = 1 << 14  # matrix entries eliminated together (128 KiB of int64)
_MAX_VALUES = 1 << 25  # entries of an all-minors value matrix (256 MiB of int64)


def _minor_shape(n: int, size: int) -> tuple[bool, int]:
    """For an n x ``size`` map (n the taller side): whether its maximal
    minors come from the left kernel, and the size k of the minors taken."""
    by_kernel = 0 < n - size < size
    return by_kernel, n - size if by_kernel else size


def _lattice_minors(maps, size: int, p: int, weights=None) -> np.ndarray:
    """Values of every maximal minor of the n x size (taller side) matrix
    M = sum_v l_v * maps[v] at each lattice point of degree ``size``: a row
    per point (``monomial_basis`` order), a column per row subset S (in
    lexicographic order).  If 0 < n - size < size, one elimination of
    [M | I_n] gives E M = [U; 0], the bottom rows K of E span the left
    kernel, and by Jacobi's complementary-minor identity (0-indexed S)
    det M[S] = (-1)^(sum S + size(size+3)/2) det(U)/det(E) det K[:, S^c]
    (det(U) = 0 where M loses rank).  Else the M[S] themselves are taken.

    With ``weights`` Q of shape (count, n, k), X the n x k matrix whose k x k
    minors are taken (M, or K^T on the kernel route), column j holds instead
    det(Q_j^T X) = sum_S det Q_j[S] det X[S] (Cauchy-Binet): one fixed
    combination of the minors of M, the same at every point, and no subset
    is enumerated.  A stack holds at most ``_BATCH`` entries (or one
    point's)."""
    tall = [mv.a if mv.rows >= mv.cols else mv.a.T for mv in maps]
    n = tall[0].shape[0]
    by_kernel, k = _minor_shape(n, size)
    eps = 1
    if weights is None:
        subsets = np.array(list(combinations(range(n), k)), dtype=np.intp)
        if by_kernel:  # S^c for S in lexicographic order: the (n-size)-subsets reversed
            subsets = subsets[::-1]
            eps = (-1) ** ((n * (n - 1) // 2 - subsets.sum(axis=1) + size * (size + 3) // 2) % 2)
        cols = len(subsets)
    else:
        q_t = weights.transpose(0, 2, 1)[None]
        cols = len(weights)
    points = monomial_basis(size).monomials
    step = max(1, _BATCH // max(n * (n + size) * by_kernel, cols * k * k))
    out = []
    for lo in range(0, len(points), step):
        mats = np.stack([sum(v * a % p for v, a in zip(pt, tall)) % p
                         for pt in points[lo:lo + step]])
        lam = 1
        if by_kernel:
            mats = np.concatenate([mats, np.tile(np.eye(n, dtype=np.int64), (len(mats), 1, 1))], 2)
            lam = _eliminate(mats, size, p)[:, None] * eps % p
            mats = mats[:, size:, size:].transpose(0, 2, 1)  # K^T, as det K[:, T] = det K^T[T]
        square = mats[:, subsets] if weights is None else _matmul(q_t, mats[:, None], p)
        out.append(_eliminate(square.reshape(-1, k, k), k, p).reshape(len(mats), -1) * lam % p)
    return np.concatenate(out)


@functools.lru_cache(maxsize=32)
def _weights(n: int, k: int, count: int, p: int) -> np.ndarray:
    """``count`` seeded n x k residue matrices, the same in every run and
    worker (a fixed-tag stream).  Read-only, as it is cached."""
    stream = rand.Stream(rand.derive(0, 0xCB))
    out = np.array([stream.below(p) for _ in range(count * n * k)],
                   dtype=np.int64).reshape(count, n, k)
    out.flags.writeable = False
    return out


def _minor_values(m: GradedModule, i: int, size: int, count: int = 0) -> np.ndarray:
    """``_lattice_minors`` of degree i: every maximal minor or, with a
    ``count``, that many seeded combinations of them.  The all-minors value
    matrix is refused above ``_MAX_VALUES`` entries with a named error."""
    p = m.prime
    if p <= size:
        raise ValueError(f"prime {p} is too small for the degree-{i} minors: "
                         f"the locus needs a prime above the minor size {size}")
    maps = m.variable_maps(i)
    n = max(maps[0].rows, maps[0].cols)
    _, k = _minor_shape(n, size)
    if count:
        return _lattice_minors(maps, size, p, _weights(n, k, count, p))
    points, minors = comb(size + 2, 2), comb(n, k)
    if points * minors > _MAX_VALUES:
        raise ValueError(f"the degree-{i} minors of a {n} x {size} map take {points} points "
                         f"x {minors} minors, above the cap of {_MAX_VALUES} values")
    return _lattice_minors(maps, size, p)


def _eliminate(stack: np.ndarray, cols: int, p: int) -> np.ndarray:
    """Fraction-free elimination, in place, of the first ``cols`` columns of
    each matrix: det(U)/det(E), U the leading block of the result and E the
    row operations (a square matrix's determinant).  Rows are scaled by the
    pivot, not divided: one modular inverse each, products of two residues."""
    k = np.arange(len(stack))
    sign = np.ones(len(stack), dtype=np.int64)
    running = np.ones(len(stack), dtype=np.int64)  # det(U) so far; a zero pivot gives 0
    scale = np.ones(len(stack), dtype=np.int64)  # prod_j piv_j^(cols-1-j)
    for j in range(cols):
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
    det_e = scale * _power(running, stack.shape[1] - cols, p) % p  # det(E) / sign
    return sign * running % p * _power(det_e, p - 2, p) % p


def _power(x: np.ndarray, e: int, p: int) -> np.ndarray:
    """Elementwise x^e mod p by square-and-multiply (x^(p-2) inverts, 0 stays 0)."""
    out, base = np.ones_like(x), x % p
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


@functools.lru_cache(maxsize=16)
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


def _interpolate(m: GradedModule, i: int, values=None) -> np.ndarray:
    """Coefficient rows, in ``monomial_basis`` order, of the degree-i
    maximal minors, or of the forms whose values at the lattice points are
    the columns of ``values``.  The C(s+2, 2) points (a, b, c) with
    a + b + c = s are unisolvent for degree-s forms when p > s (principal
    lattice), so one product with the inverse Vandermonde block, cached per
    (s, p), recovers them."""
    size = min(m.h(i), m.h(i + 1))
    values = _minor_values(m, i, size) if values is None else values
    return _matmul(_lattice_inverse(size, m.prime), values, m.prime).T


def _forms(ring: Ring, s: int, rows: np.ndarray) -> tuple[Polynomial, ...]:
    """The nonzero degree-s forms with these coefficient rows (the zero
    form if there is none)."""
    monos = monomial_basis(s).monomials
    gens = tuple(f for f in (Polynomial(ring, dict(zip(monos, map(int, row)))) for row in rows)
                 if not f.is_zero())
    return gens or (Polynomial.zero(ring),)


def locus_ideal_at(m: GradedModule, i: int) -> LocusIdeal:
    """Ideal of maximal minors of sum_v l_v * (multiplication by x_v out of
    degree i), forms of degree s in l1, l2, l3.  A shape with a zero side
    has trivially maximal rank everywhere, so it contributes the unit ideal
    (empty locus).  Generators keep the row-subset order of the taller side;
    zero minors are dropped."""
    ring = dual_ring(m)
    size = min(m.h(i), m.h(i + 1))
    if size == 0:
        return LocusIdeal((Polynomial.constant(ring, 1),))
    return LocusIdeal(_forms(ring, size, _interpolate(m, i)))


def _coefficients(gens, s: int) -> np.ndarray:
    """Rows of coefficients of degree-s forms, in ``monomial_basis`` order."""
    monos = monomial_basis(s).monomials
    return np.array([[g.terms.get(mo, 0) for mo in monos] for g in gens],
                    dtype=np.int64).reshape(len(gens), len(monos))


def _macaulay_rows(coeffs: np.ndarray, s: int, top: int) -> np.ndarray:
    """Coefficients in degree ``top`` of every degree-(top - s) monomial
    times every degree-s form given by a row of ``coeffs``."""
    index = {mo: c for c, mo in enumerate(monomial_basis(top).monomials)}
    shifts = monomial_basis(top - s).monomials
    out = np.zeros((len(shifts), len(coeffs), len(index)), dtype=np.int64)
    for k, t in enumerate(shifts):
        out[k][:, [index[_mono_mul(t, u)] for u in monomial_basis(s).monomials]] = coeffs
    return out.reshape(-1, len(index))


def _in_saturation(mid: list[Polynomial], coeffs: np.ndarray, s: int, ring: Ring) -> bool:
    """Do the forms ``mid`` (of degree s_mid) lie in I^sat, I the ideal of
    the degree-s forms with the coefficient rows ``coeffs``?  With
    D = max(s_mid, s), mid * R_{D-s_mid} must reduce to zero against
    R_{D-s} times those forms; that puts m^(D-s_mid) * mid in I.  Only where
    it fails is I saturated, and normal forms decide."""
    p = ring.prime
    s_mid = mid[0].degree() if mid else 0
    span, pivots = _rref(_macaulay_rows(coeffs, s, max(s_mid, s)), p)
    rows = _macaulay_rows(_coefficients(mid, s_mid), s_mid, max(s_mid, s))
    if not ((rows - _matmul(rows[:, list(pivots)], span[:len(pivots)], p)) % p).any():
        return True
    sat = saturate(buchberger(list(_forms(ring, s, coeffs)), ring=ring))
    return all(sat.contains(g) for g in mid)


def locus_ideal(m: GradedModule, middle: GroebnerBasis) -> bool:
    """Does the middle-degree minor ideal I_mid (``middle`` is its reduced
    basis) cut out the whole locus, the scheme of the intersection of the
    minor ideals I_i of all degrees?  That intersection lies in I_mid, so,
    as saturation commutes with intersection, exactly when every I_i^sat
    holds I_mid.  Value columns of full rank C(s+2, 2) (Vandermonde times
    coefficients) span R_s and pass the degree.  Where there are more than
    C(s+2, 2) + 4 minors, that many seeded combinations of them are tried
    first: each is a form of I_i, so their full rank passes it exactly.
    Any shortfall takes every minor, and only then does a basis of their
    span go to ``_in_saturation``."""
    deg = m.degrees
    ring = dual_ring(m)
    mid = [g for g in middle.basis if g.degree() == middle.basis[0].degree()]
    for i in range(deg.b[0] - 1, deg.socle_degree + 1):
        size = min(m.h(i), m.h(i + 1))
        if i == deg.middle_degree or size == 0:
            continue
        points = comb(size + 2, 2)
        if comb(max(m.h(i), m.h(i + 1)), size) > points + 4 and len(
                _rref(_minor_values(m, i, size, points + 4), m.prime)[1]) == points:
            continue
        values = _minor_values(m, i, size)
        _, pivots = _rref(values, m.prime)
        if len(pivots) < points and not _in_saturation(
                mid, _interpolate(m, i, values[:, list(pivots)]), size, ring):
            return False
    return True


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
