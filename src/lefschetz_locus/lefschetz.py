"""Non-Lefschetz loci as determinantal schemes in the dual plane.

For each degree i the module carries an h_{i+1} x h_i matrix of linear
forms in the dual variables whose specialization at a line reproduces
the multiplication map by that line.  The locus at degree i is cut out
by the maximal minors; the total locus is the intersection over all
degrees, which the engine folds onto the middle-degree basis (with exact
containment shortcuts) so the localization claim stays checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rand
from .field_linalg import Matrix, rank
from .groebner import GroebnerBasis, buchberger, intersect
from .polyring import Polynomial, Ring, monomial_basis
from .presentation import GradedModule


class ZeroLineError(ValueError):
    """The zero triple does not define a line."""


@dataclass(frozen=True)
class DualLinearMatrix:
    """Matrix of linear forms over the dual ring attached to one degree."""

    degree: int
    entries: tuple[tuple[Polynomial, ...], ...]
    ring: Ring

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def specialize(self, coords) -> Matrix:
        """Evaluate the dual variables at a line's coordinates."""
        p = self.ring.prime
        data = np.zeros((self.rows, self.cols), dtype=np.int64)
        for r, row in enumerate(self.entries):
            for c, f in enumerate(row):
                data[r, c] = f.evaluate(coords)
        return Matrix(data, p)


@dataclass(frozen=True)
class LocusIdeal:
    """Homogeneous ideal in the dual ring cutting out a (partial) locus."""

    gens: tuple[Polynomial, ...]
    source_degrees: tuple[int, ...]

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


def dual_matrix(m: GradedModule, i: int) -> DualLinearMatrix:
    """Entry (r, c) is sum_v l_v * (multiplication-by-x_v map)[r, c]."""
    ring = dual_ring(m)
    maps = m.variable_maps(i)
    rows, cols = maps[0].rows, maps[0].cols
    entries = []
    for r in range(rows):
        row = []
        for c in range(cols):
            terms = {
                (1, 0, 0): int(maps[0].a[r, c]),
                (0, 1, 0): int(maps[1].a[r, c]),
                (0, 0, 1): int(maps[2].a[r, c]),
            }
            row.append(Polynomial(ring, terms))
        entries.append(tuple(row))
    return DualLinearMatrix(i, tuple(entries), ring)


def _maximal_minors(entries, size: int, ring: Ring) -> list[Polynomial]:
    """All size x size minors of a polynomial grid, enumerated in
    lexicographic (row-subset, column-subset) order.

    Dynamic programming over Laplace expansions: process columns left to
    right, keeping the determinant of every row subset seen so far.
    """
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    if size == 0:
        return []
    grid = [list(r) for r in entries]
    transposed = rows < cols
    if transposed:
        grid = [[grid[r][c] for r in range(rows)] for c in range(cols)]
        rows, cols = cols, rows
    one = Polynomial.constant(ring, 1)
    states: dict[tuple[int, ...], Polynomial] = {(): one}
    for k in range(cols):
        new_states: dict[tuple[int, ...], Polynomial] = {}
        for subset, det in states.items():
            if det.is_zero():
                continue
            for r in range(rows):
                if r in subset:
                    continue
                grown = tuple(sorted(subset + (r,)))
                pos = grown.index(r)
                contrib = grid[r][k] * det
                if (pos + k) % 2:
                    contrib = -contrib
                if grown in new_states:
                    new_states[grown] = new_states[grown] + contrib
                else:
                    new_states[grown] = contrib
        states = new_states
    out = []
    for subset in sorted(states):
        out.append(states[subset])
    return out


def locus_ideal_at(m: GradedModule, i: int) -> LocusIdeal:
    """Ideal of maximal minors of the degree-i dual matrix.  A shape with a
    zero side has trivially maximal rank everywhere, so it contributes the
    unit ideal (empty locus)."""
    ring = dual_ring(m)
    h_i, h_i1 = m.h(i), m.h(i + 1)
    size = min(h_i, h_i1)
    if size == 0:
        return LocusIdeal((Polynomial.constant(ring, 1),), (i,))
    dm = dual_matrix(m, i)
    minors = _maximal_minors(dm.entries, size, ring)
    gens = tuple(f for f in minors if not f.is_zero())
    if not gens:
        gens = (Polynomial.zero(ring),)
    return LocusIdeal(gens, (i,))


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
    ranks: tuple[tuple[int, int, int], ...]  # (degree, rank, max possible)

    def __bool__(self) -> bool:
        return self.ok


def is_lefschetz(m: GradedModule, line) -> LefschetzCheck:
    """Does multiplication by the line have maximal rank in every degree?"""
    p = m.prime
    coords = tuple(int(c) % p for c in line)
    if len(coords) != 3 or not any(coords):
        raise ZeroLineError("a line needs a nonzero coordinate triple")
    lo, e = m.degrees.b[0], m.degrees.socle_degree
    failing = []
    ranks = []
    for i in range(lo - 1, e + 1):
        h_i, h_i1 = m.h(i), m.h(i + 1)
        needed = min(h_i, h_i1)
        if needed == 0:
            continue
        maps = m.variable_maps(i)
        combo = sum(c * mv.a % p for c, mv in zip(coords, maps)) % p
        r = rank(Matrix(combo, p))
        ranks.append((i, r, needed))
        if r < needed:
            failing.append(i)
    return LefschetzCheck(not failing, tuple(failing), tuple(ranks))


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
