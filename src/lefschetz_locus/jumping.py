"""Exact splitting types on concrete lines.

Restricting the presentation to a line gives a matrix of binary forms;
the kernel bundle splits there as O(alpha) + O(beta), read off from the
first twist in which the restricted kernel acquires sections.  This is
the rank-computation route to jumping lines, independent of the minors
ideal, so the two can be played against each other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import rand
from .bundle import SplittingType
from .field_linalg import Matrix, kernel_basis, rank
from .lefschetz import random_line
from .polyring import BinaryForm, substitute_line
from .presentation import DegreeData, PresentationMatrix


class RestrictionError(ValueError):
    """The restricted sequence failed its exactness self-check."""


class SplittingWindowError(ValueError):
    """No sections in the whole scan window; restriction is not exact."""


@dataclass(frozen=True)
class LinePoint:
    """A line, as dual coordinates plus a parametrization of its 2-plane."""

    coords: tuple[int, int, int]
    param: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]


def line_point(coords, prime: int) -> LinePoint:
    coords = tuple(int(c) % prime for c in coords)
    if len(coords) != 3 or not any(coords):
        raise ValueError("a line needs a nonzero coordinate triple")
    columns = kernel_basis(Matrix.from_rows([list(coords)], prime))
    if len(columns) != 2:
        raise ValueError("line coordinates do not cut out a 2-plane")
    param = tuple((int(columns[0][i]), int(columns[1][i])) for i in range(3))
    return LinePoint(coords, param)


@dataclass(frozen=True)
class RestrictedBundle:
    degrees: DegreeData
    entries: tuple[tuple[BinaryForm, ...], ...]
    prime: int


def _zero_form(degree: int, prime: int) -> BinaryForm:
    d = max(degree, 0)
    return BinaryForm(d, (0,) * (d + 1), prime)


def restrict(pres: PresentationMatrix, line: LinePoint) -> RestrictedBundle:
    """Push every entry through the line parametrization and verify the
    restricted map is still surjective in large twists."""
    deg = pres.degrees
    p = pres.prime
    rows = []
    for j in range(deg.n):
        row = []
        for i in range(deg.n + 2):
            f = pres.entries[j][i]
            e = deg.a[i] - deg.b[j]
            if f.is_zero():
                row.append(_zero_form(e, p))
            else:
                row.append(substitute_line(f, line.param))
        rows.append(tuple(row))
    rb = RestrictedBundle(deg, tuple(rows), p)
    t_check = deg.d + 2 + max(0, deg.b[-1])
    m = section_matrix(rb, t_check)
    if rank(m) != m.rows:
        raise RestrictionError("restricted map is not surjective in large twists")
    return rb


def section_matrix(rb: RestrictedBundle, t: int) -> Matrix:
    """Degree-t map on binary-form sections induced by the restricted grid."""
    deg = rb.degrees
    src_dims = [max(t - ai + 1, 0) for ai in deg.a]
    tgt_dims = [max(t - bj + 1, 0) for bj in deg.b]
    src_off = [sum(src_dims[:i]) for i in range(len(src_dims))]
    tgt_off = [sum(tgt_dims[:j]) for j in range(len(tgt_dims))]
    m = Matrix.zero(sum(tgt_dims), sum(src_dims), rb.prime)
    for j in range(deg.n):
        if tgt_dims[j] == 0:
            continue
        for i in range(deg.n + 2):
            if src_dims[i] == 0:
                continue
            form = rb.entries[j][i]
            for q in range(src_dims[i]):
                col = src_off[i] + q
                for l, c in enumerate(form.coeffs):
                    if not c:
                        continue
                    row = tgt_off[j] + q + l
                    m.a[row, col] = (m.a[row, col] + c) % rb.prime
    return m


def splitting_type(rb: RestrictedBundle, d: int | None = None) -> SplittingType:
    """Splitting type of the restricted kernel: the larger summand is minus
    the first twist with a section, the other is pinned by the total."""
    total = -(d if d is not None else rb.degrees.d)
    lo, hi = total - 2, -total + 2
    for t in range(lo, hi + 1):
        m = section_matrix(rb, t)
        if m.cols == 0:
            continue
        dim = m.cols - rank(m)
        if dim > 0:
            alpha = -t
            beta = total - alpha
            if alpha < beta:
                raise RestrictionError("section scan produced an unsorted splitting")
            return SplittingType(alpha, beta)
    raise SplittingWindowError(f"no sections for twists in [{lo}, {hi}]")


def generic_splitting_empirical(pres: PresentationMatrix, seed: int = 0,
                                samples: int = 5) -> SplittingType:
    """Majority splitting type over seeded random lines.  Keeps the general
    splitting-type statement out of the trusted base: it is observed, not
    assumed."""
    stream = rand.Stream(rand.derive(seed, 0x591))
    votes: Counter[tuple[int, int]] = Counter()
    for _ in range(samples):
        coords = random_line(pres.prime, stream)
        st = splitting_type(restrict(pres, line_point(coords, pres.prime)))
        votes[(st.alpha, st.beta)] += 1
    (alpha, beta), _ = votes.most_common(1)[0]
    return SplittingType(alpha, beta)
