"""Non-Lefschetz loci as determinantal schemes in the dual plane.

A line l1*x1 + l2*x2 + l3*x3 acts from degree i to degree i + 1 by the
h_{i+1} x h_i matrix sum_v l_v * (multiplication by x_v), held only as the
module's three multiplication maps.  The locus at degree i is cut out by
the maximal minors, forms of degree s = min(h_i, h_{i+1}) in l1, l2, l3:
they are evaluated at the points (1, b, c) with b + c <= s of the chart
l1 = 1, by complementary minors of one left kernel per point, and
interpolated in closed form (Newton differences), so a locus needs a prime
above s.  The forms stay coefficient rows in the grevlex column order of
:mod:`.groebner` from the interpolation to the Groebner basis.

``middle_measure`` needs no minor when the middle map is square or has
corank 1: the map on one line through the module's seeded line l settles
the locus, from the section of l that the build has often recorded
already (``GradedModule.section``).  A square map has the one minor det, a
principal ideal, so its locus is the curve V(det) of degree s once the
map has rank s at one point, as it has at l where l is onto.  An
(s+1) x s pencil that keeps rank s at every point of the line, over the
algebraic closure (the section's elimination and a Kalman rank, by the
Popov-Belevitch-Hautus test), shows that the line misses V(I); a curve
meets every line, so V(I) is finite, and as Eagon-Northcott bound the
height of the proper ideal I by 2, the height is 2 and Hilbert-Burch
fixes the degree at C(s+1, 2).  By
Kronecker's canonical form that certifies exactly the middles whose
minors, restricted to the line, span every binary form of degree s.  Any
other shape, and a line that certifies nothing, takes the Groebner basis
(``middle_basis``).

``locus_ideal`` decides whether the middle degree alone cuts out the whole
locus, against the module's own middle minors: a degree
passes if its minor values have full rank, else by one Macaulay-matrix
rank, and only where that falls short by normal forms against the three
variable saturations I : l_v^infinity.  A
degree with many minors is first tried on C(s+2, 2) + 4 seeded
combinations det(Q_j^T X) of them (Cauchy-Binet), which need no subset
enumeration: each is the value vector of a form in the degree's minor
ideal, so their full rank is an exact pass, and only a shortfall takes
every minor.

Serre duality halves that work.  A module that ``GradedModule.build``
accepts is M = H^1_*(E) for the rank-2 bundle E, the kernel of the
presentation, with c_1(E) = -d, so E^dual = E(d) and M_i x M_(d-3-i) -> k
is a perfect pairing compatible with multiplication.  In dual bases,
multiplication by a line from degree d - 4 - i to d - 3 - i is then the
transpose of the map from degree i to i + 1, up to fixed invertible
changes of basis, which act invertibly on the span of the maximal minors:
I_i = I_(d-4-i).  ``locus_ideal`` decides one degree of each such pair,
and ``is_lefschetz`` ranks the map out of one degree of each.  The middle
pair costs ``locus_ideal`` nothing: for odd d its two degrees i* and
i* + 1 share the middle ideal, and I_(i*)^sat holds I_(i*).

Maximal rank then propagates away from the middle (Harima, Migliore,
Nagel, Watanabe, J. Algebra 262 (2003), Prop. 2.1, for a module).  M is
generated in degrees <= w, the top degree of a minimal generator
(``PresentationMatrix.generator_degrees``), and so is M/lM for every line
l; if l is onto from degree j >= w - 1 to j + 1, then (M/lM)_k = 0 for
all k > j, so l is onto out of every degree >= j.  By the transpose
above, l is injective out of degree i exactly when it is onto out of
d - 4 - i, so if l is injective out of some i <= d - 3 - w, it is
injective out of every degree below i (``_injective_below``).  Both scans
therefore walk down from the middle and stop at the first degree where
that holds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate, combinations
from math import comb

import numpy as np

from . import rand
from .field_linalg import _matmul, _rref, rank
from .groebner import (GroebnerBasis, IdealMeasure, _pos, _table, _variable_saturations,
                       buchberger, measure)
from .polyring import Ring, monomial_basis
from .presentation import GradedModule, _seeded_line


class ZeroLineError(ValueError):
    """The zero triple does not define a line."""


@dataclass(frozen=True, eq=False)
class LocusIdeal:
    """Homogeneous ideal in the dual ring cutting out a (partial) locus:
    its generators, forms of one degree, as coefficient rows."""

    degree: int
    gens: np.ndarray


def dual_ring(m: GradedModule) -> Ring:
    return Ring(prime=m.prime, dual=True)


# matrix entries taken together (512 KiB of int64): with hundreds of minors
# per point, a smaller batch leaves the [M | I] step a few points per call
_BATCH = 1 << 16
_MAX_VALUES = 1 << 25  # entries of an all-minors value matrix (256 MiB of int64)
_WITNESS_TRIES = 25  # seeded lines that ``find_lefschetz_line`` scans


def _minor_shape(n: int, size: int) -> tuple[bool, int]:
    """For an n x ``size`` map (n the taller side): whether its maximal
    minors come from the left kernel, and the size k of the minors taken."""
    by_kernel = 0 < n - size < size
    return by_kernel, n - size if by_kernel else size


def _lattice_minors(maps, size: int, p: int, weights=None) -> np.ndarray:
    """Values of every maximal minor of the n x size (taller side) matrix
    M = sum_v l_v * maps[v] at each chart point: the row of the degree-``size``
    monomial (a, b, c) (``monomial_basis`` order) holds the values at
    (1, b, c), unisolvent as b, c <= size < p; a column per row subset S (in
    lexicographic order).  Each l_v * maps[v] is reduced before the sum,
    which stays below 3p.  If 0 < n - size < size,
    one elimination of [M | I_n] gives E M = [U; 0], the bottom rows K of E
    span the left kernel, and by Jacobi's complementary-minor identity
    (0-indexed S)
    det M[S] = (-1)^(sum S + size(size+3)/2) det(U)/det(E) det K[:, S^c]
    (det(U) = 0 where M loses rank).  Else the M[S] themselves are taken.
    Minors of size k <= 3 (corank 1 to 3, or a side of 1 to 3) take the
    closed forms of ``_cofactor_det``, with no elimination: a 2 x 2 sum is
    at most (p - 1)(2p - 1) < 2^63, and a 3 x 3 expansion, whose three
    terms reach about 3p^2, is reduced after its second.  ``_eliminate``
    takes only the [M | I_n] step and square stacks of size k >= 4.

    With ``weights`` Q of shape (count, n, k), X the n x k matrix whose k x k
    minors are taken (M, or K^T on the kernel route), column j holds instead
    det(Q_j^T X) = sum_S det Q_j[S] det X[S] (Cauchy-Binet): one fixed
    combination of the minors of M, the same at every point, and no subset
    is enumerated.  A stack holds at most ``_BATCH`` entries (or one
    point's)."""
    tall = maps if maps.shape[1] >= maps.shape[2] else maps.transpose(0, 2, 1)
    n = tall.shape[1]
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
    points = np.array(monomial_basis(size).monomials, dtype=np.int64)
    points[:, 0] = 1  # the chart l1 = 1
    step = max(1, _BATCH // max(n * (n + size) * by_kernel, cols * k * k))
    out = []
    for lo in range(0, len(points), step):
        mats = (points[lo:lo + step, :, None, None] * tall % p).sum(1) % p
        lam = 1
        if by_kernel:
            mats = np.concatenate([mats, np.tile(np.eye(n, dtype=np.int64), (len(mats), 1, 1))], 2)
            lam = _eliminate(mats, size, p)[:, None] * eps % p
            mats = mats[:, size:, size:].transpose(0, 2, 1)  # K^T, as det K[:, T] = det K^T[T]
        square = mats[:, subsets] if weights is None else _matmul(q_t, mats[:, None], p)
        dets = _cofactor_det(square, p) if k <= 3 else _eliminate(square.reshape(-1, k, k), k, p)
        out.append(dets.reshape(len(mats), -1) * lam % p)
    return np.concatenate(out)


def _cofactor_det(square: np.ndarray, p: int) -> np.ndarray:
    """Determinants of a (..., k, k) stack of residues, k <= 3, in closed
    form, with no elimination and no inverse.  k = 1 is the entry.  A 2 x 2
    determinant is wz + x(p - y), at most (p - 1)(2p - 1) < 2^63 for
    p < 2^31.  A 3 x 3 one is expanded along its first row with each 2 x 2
    cofactor reduced; its three terms reach about 3p^2, past 2^63, so the
    sum is reduced after the second: a residue plus one product of two
    residues stays below 2^63."""
    k = square.shape[-1]
    rows = [[square[..., r, c] for c in range(k)] for r in range(k)]
    if k == 1:
        return rows[0][0]

    def two(w, x, y, z):  # det [[w, x], [y, z]] mod p
        return (w * z + x * (p - y)) % p

    if k == 2:
        return two(*rows[0], *rows[1])

    def cofactor(skip):  # the 2 x 2 minor off row 0 and column ``skip``
        return two(*(row[c] for row in rows[1:] for c in range(3) if c != skip))

    a, b, c = rows[0]
    return ((a * cofactor(0) + b * (p - cofactor(1))) % p + c * cofactor(2)) % p


@functools.lru_cache(maxsize=32)
def _weights(n: int, k: int, count: int, p: int) -> np.ndarray:
    """``count`` seeded n x k residue matrices, the same in every run and
    worker (a fixed-tag stream).  Read-only, as it is cached."""
    out = rand.Stream(rand.derive(0, 0xCB)).below_many(p, count * n * k).reshape(count, n, k)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=32)
def _line_points(s: int, p: int) -> np.ndarray:
    """The s + 1 points l + lambda Q (lambda = 0..s) of one line of the dual
    plane: l the module's seeded line (``presentation._seeded_line``), whose
    sections the build records, and Q the first draw of a fixed-tag stream
    that is not a multiple of l, the same in every run and worker: distinct
    points for p > s.  Read-only, as they are cached."""
    line = np.array(_seeded_line(p), dtype=np.int64)
    stream = rand.Stream(rand.derive(0, 0x11AE))
    q = stream.below_many(p, 3)
    while not (np.cross(line, q) % p).any():
        q = stream.below_many(p, 3)
    out = (line + np.arange(s + 1)[:, None] * q) % p
    out.flags.writeable = False
    return out


def _check_prime(p: int, i: int, size: int) -> None:
    if p <= size:
        raise ValueError(f"prime {p} is too small for the degree-{i} minors: "
                         f"the locus needs a prime above the minor size {size}")


def _minor_values(m: GradedModule, i: int, size: int, count: int = 0) -> np.ndarray:
    """``_lattice_minors`` of degree i: every maximal minor or, with a
    ``count``, that many seeded combinations of them.  The all-minors value
    matrix is refused above ``_MAX_VALUES`` entries with a named error."""
    p = m.prime
    _check_prime(p, i, size)
    maps = m.variable_maps(i)
    n = max(maps.shape[1:])
    _, k = _minor_shape(n, size)
    if count:
        return _lattice_minors(maps, size, p, _weights(n, k, count, p))
    rows = comb(size + 2, 2)
    minors = comb(n, k)
    if rows * minors > _MAX_VALUES:
        raise ValueError(f"the degree-{i} minors of a {n} x {size} map take {rows} points "
                         f"x {minors} minors, above the cap of {_MAX_VALUES} values")
    return _lattice_minors(maps, size, p)


def _eliminate(stack: np.ndarray, cols: int, p: int) -> np.ndarray:
    """Fraction-free elimination, in place, of the first ``cols`` columns of
    each matrix: det(U)/det(E), U the leading block of the result and E the
    row operations (a square matrix's determinant).  ``_lattice_minors``
    calls it for the kernel step on [M | I_n] and for square stacks of size
    >= 4; smaller minors take ``_cofactor_det``.  Rows are scaled by the
    pivot, not divided: one modular inverse each.  A row below the pivot
    becomes row * piv + row_j * (p - pivot row), a sum of two products of
    residues, at most (p - 1)(2p - 1) < 2^63 for p < 2^31, so it is
    reduced exactly with no negative operand."""
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
                                + below[:, :, :1] * (p - stack[:, j:j + 1, j:])) % p
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


def _interpolate(m: GradedModule, i: int, values=None) -> np.ndarray:
    """Coefficient rows, in grevlex order (``groebner._table``), of the
    degree-i maximal minors, or of the forms whose values at the chart
    points (in ``monomial_basis`` order) are the columns of ``values``.  A
    degree-s form f is g(b, c) = f(1, b, c) on the grid b + c <= s, and g's
    coefficient of b^j c^k is f's of l1^(s-j-k) l2^j l3^k.  In closed form
    (Newton): the differences D = Delta G Delta^T of the values G,
    Delta[i, k] = (-1)^(i-k) C(i, k), give
    g = sum_{i+j<=s} D[i, j] C(b, i) C(c, j) (D beyond i + j = s sees the
    zero padding of G, not g), so its coefficients are F^T D F, F[i, k]
    that of x^k in C(x, i).  The 1/i! in F needs p > s, as the values do."""
    size = min(m.h(i), m.h(i + 1))
    values = _minor_values(m, i, size) if values is None else values
    p, n = m.prime, size + 1
    delta, binom = _newton_tables(size, p)

    def both_axes(a, grid):  # a X a^T on the two grid axes of each column X
        for _ in range(2):
            grid = _matmul(a, grid.reshape(n, -1), p).reshape(n, n, -1).transpose(1, 0, 2)
        return grid

    _, b, c = np.array(monomial_basis(size).monomials, dtype=np.intp).T
    grid = np.zeros((n, n, values.shape[1]), dtype=np.int64)
    grid[b, c] = values
    diffs = both_axes(delta, grid)
    diffs[np.add.outer(np.arange(n), np.arange(n)) > size] = 0  # beyond the grid
    _, b, c = _table(size)[0].T  # the coefficients, in grevlex order
    return both_axes(binom.T, diffs)[b, c].T


@functools.lru_cache(maxsize=32)
def _newton_tables(s: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Delta[i, k] = (-1)^(i-k) C(i, k) and F[k, j], the coefficient of x^j
    in C(x, k), for i, j, k <= s, mod p > s.  C(i, k) = i!/(k!(i-k)!) from
    one table of factorials and one inverse; row k of F is the falling
    factorial x (x - 1) ... (x - k + 1), built in Python ints, over k!.
    Read-only, as they are cached."""
    fact = list(accumulate(range(1, s + 1), lambda f, k: f * k % p, initial=1))
    inv = np.array(list(accumulate(range(s, 0, -1), lambda f, k: f * k % p,
                                   initial=pow(fact[-1], p - 2, p)))[::-1])  # 1/k!
    gap = np.subtract.outer(np.arange(s + 1), np.arange(s + 1))  # i - k
    c = np.array(fact)[:, None] * inv % p * inv[gap] % p  # C(i, k) where i >= k
    falling = [1] + [0] * s
    rows = [falling]
    for k in range(1, s + 1):  # times x - (k - 1)
        falling = [0] + [(falling[j] - (k - 1) * falling[j + 1]) % p for j in range(s)]
        rows.append(falling)
    tables = np.where(gap < 0, 0, np.where(gap & 1, p - c, c)), np.array(rows) * inv[:, None] % p
    for table in tables:
        table.flags.writeable = False
    return tables


def locus_ideal_at(m: GradedModule, i: int) -> LocusIdeal:
    """Ideal of maximal minors of sum_v l_v * (multiplication by x_v out of
    degree i), forms of degree s in l1, l2, l3.  A shape with a zero side
    has trivially maximal rank everywhere, so it contributes the unit ideal
    (empty locus), the form 1 of degree 0.  Generators keep the row-subset
    order of the taller side; zero minors are dropped."""
    size = min(m.h(i), m.h(i + 1))
    if size == 0:
        return LocusIdeal(0, np.ones((1, 1), dtype=np.int64))
    rows = _interpolate(m, i)
    return LocusIdeal(size, rows[rows.any(1)])


def _macaulay_rows(coeffs: np.ndarray, s: int, top: int) -> np.ndarray:
    """Rows in degree ``top`` of every degree-(top - s) monomial times every
    degree-s form given by a row of ``coeffs``."""
    shifts = _table(top - s)[0][:, None]
    cols = _pos(top, shifts + _table(s)[0])
    out = np.zeros((len(shifts), len(coeffs), comb(top + 2, 2)), dtype=np.int64)
    out[np.arange(len(shifts))[:, None, None], np.arange(len(coeffs))[:, None],
        cols[:, None]] = coeffs
    return out.reshape(-1, out.shape[-1])


def _in_saturation(mid: np.ndarray, s_mid: int, coeffs: np.ndarray, s: int,
                   ring: Ring) -> bool:
    """Do the degree-s_mid forms with the coefficient rows ``mid`` lie in
    I^sat, I the ideal of the degree-s forms with the rows ``coeffs``?
    With D = max(s_mid, s), mid * R_{D-s_mid} must reduce to zero against
    R_{D-s} times those forms; that puts
    m^(D-s_mid) * mid in I.  Only where it fails are the forms tested
    against each of the three bases of I : l_v^infinity, whose intersection
    is I^sat (``groebner._variable_saturations``)."""
    p = ring.prime
    span, pivots = _rref(_macaulay_rows(coeffs, s, max(s_mid, s)), p)
    rows = _macaulay_rows(mid, s_mid, max(s_mid, s))
    if not ((rows - _matmul(rows[:, list(pivots)], span[:len(pivots)], p)) % p).any():
        return True
    sats = _variable_saturations(buchberger(ring, {s: coeffs}))
    return all(sat.contains(s_mid, mid) for sat in sats)


def _injective_below(m: GradedModule, i: int) -> bool:
    """Does a line of maximal rank out of degree i make it injective out of
    every degree <= i?  Maximal rank is injective when h_i <= h_(i+1), and
    injectivity out of i <= d - 3 - w, w the top degree of a minimal
    generator, passes to every lower degree (module docstring), for any line
    over any extension of the field.  Only a nonzero module asks, so w
    exists."""
    return m.h(i) <= m.h(i + 1) and i <= m.degrees.d - 3 - m.pres.generator_degrees[-1]


def middle_basis(m: GradedModule) -> GroebnerBasis:
    """Reduced Groebner basis of the middle-degree minor ideal I_(i*),
    ``middle_measure``'s fallback where the seeded line settles nothing."""
    ideal = locus_ideal_at(m, m.degrees.middle_degree)
    return buchberger(dual_ring(m), {ideal.degree: ideal.gens})


def _observable(section: tuple[np.ndarray, np.ndarray], nq: np.ndarray, p: int) -> bool:
    """Does the s x (s+1) pencil N(Q) + lambda N(l) keep rank s at every
    point of its line over the algebraic closure, lambda = infinity (the
    point l) included?  ``section`` = (sigma, k) is N(l)'s (``_section``):
    N(l) sigma = I and k spans ker N(l), so T = [sigma | k^T] is invertible
    and (N(Q) + lambda N(l)) T = [B + lambda I | c], B = N(Q) sigma and
    c = N(Q) k^T, a column.  That loses rank exactly where a left
    eigenvector of B with eigenvalue -lambda lies in the left kernel of c,
    and by the Popov-Belevitch-Hautus test there is none exactly when the
    Kalman matrix [c | Bc | ... | B^(s-1) c] has rank s.  No elimination
    but that rank."""
    sigma, kernel = section
    b = _matmul(nq, sigma, p)
    cols = [_matmul(nq, kernel.T, p)]
    for _ in range(len(b) - 1):
        cols.append(_matmul(b, cols[-1], p))
    return rank(np.hstack(cols), p) == len(b)


def middle_measure(m: GradedModule) -> IdealMeasure:
    """Dimension and degree of the middle locus V(I), I = I_(i*) the ideal
    of the maximal minors of the middle map, of degree s, read off the map
    on one line (``_line_points``: the points l + lambda Q, lambda = 0..s,
    l the module's seeded line) when that settles it, else from
    ``middle_basis``.  No minor is evaluated, and the line l enters
    through its recorded ``GradedModule.section`` out of degree t: t = i*
    where the middle map is square or wide, else its Serre dual
    d - 4 - i*, whose map is the transpose of the middle one up to fixed
    invertible changes of basis (module docstring), so it has the same
    rank at every point and I_t = I_(i*); that needs a module certified
    by ``GradedModule.build``, and any other takes the basis.
    - Square (h_(i*) = h_(i*+1) = s): I = (det), so a point of rank s
      proves det != 0, and V(I) is the curve V(det) of degree s.  Where l
      is onto, it is such a point, and nothing is ranked.  Else the points
      l + lambda Q, lambda = 1..s, are ranked in order, each only where the
      ones before it fell short; det is a binary form of degree s on the
      line, so all s + 1 fall short exactly when it vanishes there.
    - Corank 1 ((s+1) x s): where l is onto out of t, ``_observable``
      proves from its section and the map at Q alone that no point of the
      line l-Q over the algebraic closure drops rank, so the line misses
      V(I).  Every curve meets every line, so V(I) is finite.  By
      Eagon-Northcott (Proc. R. Soc. A 269, 1962) the maximal minors of an
      (s+1) x s matrix generate a proper ideal of height at most 2, so the
      height is 2, I is perfect with the Hilbert-Burch resolution
      0 -> R(-s-1)^s -> R(-s)^(s+1) -> I -> 0, and V(I) is a finite scheme
      of degree C(s+1, 2), the measure its Groebner basis would give.
      This certifies exactly the middles whose s + 1 minors, restricted to
      the line, span every binary form of degree s.  Where they do, they
      have no common zero on it.  Conversely, the Kronecker canonical form
      (Gantmacher, The Theory of Matrices II, Ch. XII) of an (s+1) x s
      pencil of rank s at every point of P^1 has no elementary divisor,
      finite or infinite, and no block L_e, as each loses rank somewhere;
      its blocks L_e^T each have one row more than columns, so there is
      one, L_s^T, whose maximal minors are, up to sign, the s + 1
      monomials of degree s, and the constant invertible matrices of the
      equivalence act invertibly on the span of the minors.
    - Anything else: any other shape, a determinant vanishing on the whole
      line, or a line through a point of V(I), l among them, takes the
      Groebner basis.
    The middle's named errors (a prime not above s) come first, as from
    ``middle_basis``."""
    i, p = m.degrees.middle_degree, m.prime
    size, n = sorted((m.h(i), m.h(i + 1)))
    if size and n - size <= 1:
        _check_prime(p, i, size)
        points = _line_points(size, p)
        t = i if m.h(i + 1) <= m.h(i) else m.degrees.d - 4 - i
        onto = m.section(t) if t == i or m.certified else None
        if n == size:
            if onto is not None or any(rank(m.multiplication_map(point, t), p) == size
                                       for point in points[1:]):
                return IdealMeasure(1, size)
        elif onto is not None and _observable(
                onto, m.multiplication_map((points[1] - points[0]) % p, t), p):
            return IdealMeasure(0, comb(size + 1, 2))
    return measure(middle_basis(m))


def locus_ideal(m: GradedModule) -> bool:
    """Does the middle-degree minor ideal I_mid cut out the whole locus,
    the scheme of the intersection of the minor ideals I_i of all degrees?
    That intersection lies in I_mid, so, as saturation commutes with
    intersection, exactly when every I_i^sat holds I_mid.  Value columns
    of full rank C(s+2, 2) (Vandermonde
    times coefficients) span R_s and pass the degree.  Where there are more
    than C(s+2, 2) + 4 minors, that many seeded combinations of them are
    tried first: each is a form of I_i, so their full rank passes it
    exactly.  Any shortfall takes every minor, and only then does a basis
    of their span go to ``_in_saturation``, against the middle minors
    (``locus_ideal_at``), formed at most once a call: whether forms lie in
    I_i^sat depends only on their span, and the lowest-degree elements of
    a reduced Groebner basis of I_mid, generated in one degree, are the
    reduced echelon form of the minors' span.  A prime not above the middle
    minor size is refused first, with the middle's error.

    Degree i and its Serre dual d - 4 - i have one minor ideal (see the
    module docstring), so one degree of each pair is decided, and the
    middle pair not at all: I_(i*)^sat holds I_(i*), and for odd d the
    dual of i* is i* + 1, so I_(i*+1) = I_(i*).  That needs I_mid to be
    the module's own, which is why no caller passes it.  The walk starts
    at i* - 1 and goes down towards b_1 - 1 (dual to the socle degree).
    It stops after the first degree i whose values reach full rank, with
    h_i <= h_(i+1) and i <= d - 3 - w, w the top degree of a minimal
    generator: then I_i holds R_s, so every line over the algebraic
    closure is injective out of degree i, hence out of every degree k < i
    (``_injective_below``).  Each such I_k has an empty locus, so
    I_k^sat = R holds I_mid, and no value of degree k is computed."""
    deg = m.degrees
    mid_degree = deg.middle_degree
    _check_prime(m.prime, mid_degree, min(m.h(mid_degree), m.h(mid_degree + 1)))
    middle = None
    for i in range(mid_degree - 1, deg.b[0] - 2, -1):
        size = min(m.h(i), m.h(i + 1))
        if size == 0:
            continue
        points = comb(size + 2, 2)
        full = comb(max(m.h(i), m.h(i + 1)), size) > points + 4 and len(
            _rref(_minor_values(m, i, size, points + 4), m.prime)[1]) == points
        if not full:
            values = _minor_values(m, i, size)
            _, pivots = _rref(values, m.prime)
            full = len(pivots) == points
            if not full:
                middle = middle or locus_ideal_at(m, mid_degree)
                forms = _interpolate(m, i, values[:, list(pivots)])
                if not _in_saturation(middle.gens, middle.degree, forms, size, dual_ring(m)):
                    return False
        if full and _injective_below(m, i):
            break
    return True


@dataclass(frozen=True)
class LefschetzCheck:
    ok: bool
    failing_degrees: tuple[int, ...]


def is_lefschetz(m: GradedModule, line) -> LefschetzCheck:
    """Does multiplication by the line have maximal rank in every degree
    from b_1 - 1 through the socle degree e?  By Serre duality (module
    docstring) the map out of degree d - 4 - i is the transpose of the map
    out of degree i, up to invertible changes of basis, so it has the same
    rank and the same maximal rank.  Only i from the middle degree i* down
    to b_1 - 1 are ranked, and each failing i also fails d - 4 - i; these
    cover b_1 - 1 through e = d - 3 - b_1.  The walk stops at the first
    degree i where the line is injective with i <= d - 3 - w, w the top
    degree of a minimal generator: the line is onto out of
    d - 4 - i >= w - 1, so M/lM, generated in degrees <= w, vanishes above
    it, and the line is onto out of every higher degree, injective out of
    every lower one (``_injective_below``).  That needs a module certified
    by ``GradedModule.build``; any other is refused."""
    p = m.prime
    coords = tuple(int(c) % p for c in line)
    if len(coords) != 3 or not any(coords):
        raise ZeroLineError("a line needs a nonzero coordinate triple")
    if not m.certified:
        raise ValueError("the Lefschetz scan needs a module certified of finite length "
                         "by GradedModule.build")
    deg = m.degrees
    failing: set[int] = set()
    for i in range(deg.middle_degree, deg.b[0] - 2, -1):
        needed = min(m.h(i), m.h(i + 1))
        if needed == 0:
            continue
        if rank(m.multiplication_map(coords, i), p) < needed:
            failing.update((i, deg.d - 4 - i))
        elif _injective_below(m, i):
            break
    return LefschetzCheck(not failing, tuple(sorted(failing)))


def random_line(prime: int, stream: rand.Stream) -> tuple[int, int, int]:
    while True:
        coords = tuple(stream.below(prime) for _ in range(3))
        if any(coords):
            return coords


def find_lefschetz_line(m: GradedModule, seed: int):
    """A line that is a Lefschetz element, or None.  The module's seeded
    line l (``presentation._seeded_line``) is one with no rank where its
    recorded sections (``GradedModule.onto_degrees``) show it onto out of
    some degree j0 with w - 1 <= j0 and 2 j0 <= d - 3, w the top degree of
    a minimal generator: l is then onto out of every degree >= j0, as
    M/lM, generated in degrees <= w, vanishes above j0 (module docstring),
    and by duality injective out of every degree <= d - 4 - j0 >= j0 - 1,
    which together cover b_1 - 1 through e.  That needs a module certified
    by ``GradedModule.build``.  Otherwise the first of ``_WITNESS_TRIES``
    seeded lines that ``is_lefschetz`` passes, or None."""
    gens = m.pres.generator_degrees
    if m.certified and gens and any(gens[-1] - 1 <= j and 2 * j <= m.degrees.d - 3
                                    for j in m.onto_degrees()):
        return _seeded_line(m.prime)
    stream = rand.Stream(rand.derive(seed, 0x11FE))
    for _ in range(_WITNESS_TRIES):
        coords = random_line(m.prime, stream)
        if is_lefschetz(m, coords).ok:
            return coords
    return None
