"""Exact splitting types on concrete lines.

Restricting the presentation to a line gives a matrix of binary forms;
the kernel bundle splits there as O(alpha) + O(beta), read off from the
sections of the restricted kernel in one twist.  This is
the rank-computation route to jumping lines, independent of the minors
ideal, so the two can be played against each other.  One table of restricted
monomials gives every form, and section matrices are filled by index arithmetic.
A line is jumping when its type is not the generic one.  The generic alpha
is the least over all lines and bounded below by the stability data, so a
line at that bound is not jumping, and a line above it is jumping once a
seeded line attains the bound (``is_jumping``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rand
from .bundle import InconsistencyError, SplittingType, StabilityReport, generic_splitting
from .field_linalg import kernel_basis, rank
from .lefschetz import random_line
from .polyring import line_power_table, position
from .presentation import DegreeData, PresentationMatrix


class RestrictionError(ValueError):
    """The restricted sequence failed its exactness self-check."""


@dataclass(frozen=True)
class LinePoint:
    """A line, as dual coordinates plus a parametrization of its 2-plane."""

    coords: tuple[int, int, int]
    param: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]


def line_point(coords, prime: int) -> LinePoint:
    coords = tuple(int(c) % prime for c in coords)
    if len(coords) != 3 or not any(coords):
        raise ValueError("a line needs a nonzero coordinate triple")
    columns = kernel_basis(np.array([coords]), prime)
    if len(columns) != 2:
        raise ValueError("line coordinates do not cut out a 2-plane")
    param = tuple((int(columns[0][i]), int(columns[1][i])) for i in range(3))
    return LinePoint(coords, param)


@dataclass(frozen=True, eq=False)
class RestrictedBundle:
    """The restricted grid: ``coefficients[j, i, l]`` is the coefficient of
    s^(k-l) * u^l in entry (j, i), a form of degree k = max(a_i - b_j, 0),
    and zero for l > k."""

    degrees: DegreeData
    coefficients: np.ndarray
    prime: int


def restrict(pres: PresentationMatrix, line: LinePoint) -> RestrictedBundle:
    """Push every entry through the line parametrization: each term c * x^e
    scales the row of x^e in one ``line_power_table``, summed per entry, so
    entry (j, i) becomes a form of degree max(a_i - b_j, 0), whose row has
    zeros past that degree.

    The restricted map must stay onto as sheaves; its sections at
    t* = max(d - a_1 - 1, b_n) decide that, as at every t >= t*.  If it is
    onto, its kernel O(alpha) + O(beta) (alpha >= beta, alpha + beta = -d)
    sits in the sum of the O(-a_i), so alpha <= -a_1, beta >= a_1 - d, and
    H^1 of the kernel vanishes in twists t >= d - a_1 - 1: sections are onto.
    If not, for t >= b_n the sum of the O(t - b_j) is globally generated, so
    sections onto it would make the map of sheaves onto: they are not."""
    deg = pres.degrees
    p = pres.prime
    top = max(deg.a[-1] - deg.b[0], 0)
    tj, ti, exps, coefs = pres.terms
    e = exps.sum(axis=1)
    rows = e * (e + 1) * (e + 2) // 6 + position(e, exps)
    acc = np.zeros((deg.n, deg.n + 2, top + 1), dtype=np.int64)
    np.add.at(acc, (tj, ti), coefs[:, None] * line_power_table(line.param, top, p)[rows] % p)
    rb = RestrictedBundle(deg, acc % p, p)
    m = section_matrix(rb, max(deg.d - deg.a[0] - 1, deg.b[-1]))
    if rank(m, p) != len(m):
        raise RestrictionError("restricted map is not surjective in large twists")
    return rb


def section_matrix(rb: RestrictedBundle, t: int) -> np.ndarray:
    """Degree-t map on binary-form sections induced by the restricted grid.
    Block (j, i) is banded Toeplitz: column q holds the coefficients of
    entry (j, i) in rows q through q + its degree."""
    a, b = np.array(rb.degrees.a), np.array(rb.degrees.b)
    src_dims, tgt_dims = np.maximum(t - a + 1, 0), np.maximum(t - b + 1, 0)
    m = np.zeros((tgt_dims.sum(), src_dims.sum()), dtype=np.int64)
    j, i, l = np.nonzero(rb.coefficients)  # a nonzero entry has a_i >= b_j
    q = np.arange(src_dims[0])
    band = q < src_dims[i, None]
    rows = ((np.cumsum(tgt_dims) - tgt_dims)[j] + l)[:, None] + q
    cols = (np.cumsum(src_dims) - src_dims)[i, None] + q
    m[rows[band], cols[band]] = np.repeat(rb.coefficients[j, i, l], src_dims[i])
    return m


def splitting_type(rb: RestrictedBundle, d: int | None = None) -> SplittingType:
    """Splitting type O(alpha) + O(beta), alpha >= beta, of the restricted
    kernel from one section count.  As alpha + beta is the total, at the
    twist t = -floor(total/2) - 1 only O(alpha) has sections, and
    alpha - floor(total/2) of them."""
    total = -(d if d is not None else rb.degrees.d)
    half = total // 2
    m = section_matrix(rb, -half - 1)
    alpha = half + m.shape[1] - rank(m, rb.prime)
    if alpha < total - alpha:
        raise RestrictionError("section count gives an unsorted splitting")
    return SplittingType(alpha, total - alpha)


class NoGenericLineError(ValueError):
    """No seeded line attained the generic splitting type."""


def is_jumping(pres: PresentationMatrix, split: SplittingType, stab: StabilityReport,
               seed: int = 0, tries: int = 25) -> bool:
    """Is a line with splitting type ``split`` a jumping line, one whose
    type differs from the generic one?

    Let g be the alpha of ``generic_splitting(stab)``, in the normalized
    frame.  Every line has alpha_L >= g: alpha >= beta gives
    alpha_L >= ceil(c_1 / 2), which is g for a semistable bundle, and for
    an unstable one of instability index k = g a section of E(-k) vanishes
    only on a finite scheme, so it restricts to a nonzero section on every
    line.  For each t the lines with alpha_L >= t form a closed set
    (upper semicontinuity, Hartshorne III.12.8), so the generic alpha is
    the least alpha over all lines, and g bounds it below.  Hence a line
    with alpha_L = g is not jumping, and no other line is restricted.  A
    line with alpha_L > g is jumping exactly when some line attains g: the
    seeded lines are restricted until one does, which is the witness that
    is observed, not assumed.  If none of ``tries`` does, a
    ``NoGenericLineError`` is raised rather than a guess."""
    g = generic_splitting(stab).alpha - stab.t0  # in the frame of ``split``
    if split.alpha < g:
        raise InconsistencyError(f"a line has alpha {split.alpha}, below the least "
                                 f"possible {g}")
    if split.alpha == g:
        return False
    stream = rand.Stream(rand.derive(seed, 0x591))
    for _ in range(tries):
        coords = random_line(pres.prime, stream)
        if splitting_type(restrict(pres, line_point(coords, pres.prime))).alpha == g:
            return True
    raise NoGenericLineError(f"none of {tries} seeded lines attains the generic splitting "
                             f"type, alpha {g}")
