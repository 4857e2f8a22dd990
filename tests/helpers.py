"""Independent test oracles: small, self-contained implementations used to
cross-check the engine, kept out of the package because no CLI path needs
them.  Most stand alone, such as the entry-by-entry loop that built the
presentation slices and ``rref_loop``, Gauss-Jordan over Python ints
reduced after every step; ``dict_buchberger`` is the pair-at-a-time Buchberger
loop on dict polynomials, under any monomial order, that the package's
dense per-degree grevlex engine replaced, sharing only its monomial
helpers, and point extraction runs it under lex.
``elimination_intersect`` is the intersection by eliminating t from
t*I + (1 - t)*J, the route the package's degree-by-degree ``intersect``
replaced.  ``scan_splitting_type`` finds a splitting type by
scanning twists for the first section, where the package counts sections
in one twist, and ``vote_generic_splitting`` is the five-line majority vote
that the package replaced by a witness of the least splitting type.
``slice_maps`` builds the maps out of any degree from the two slices,
where the package builds every piece above t0 by the Koszul complex.
``multiplication_map_loop``, ``substitute_line_loop`` (with
``restrict_loop``) and ``section_matrix_loop`` are the dict-lookup, convolution
and coefficient-by-coefficient loops that the package's index arithmetic and
line power table replaced; ``multiplication_map_loop`` lifts the whole linear
form before one reduction, and ``specialize`` sums the variable maps in
Python ints, where the package reduces each product mod p.  Like the
package, the oracles take and return matrices as int64 residue arrays with
the prime beside them, and a form restricted to a line as its tuple of
coefficients; ``variable`` builds the polynomial x_v (l_v).  ``colon``
and ``fold_localization`` (the localization claim decided by intersecting
every degree's minor ideal and comparing saturations) use
``groebner.intersect``.  ``full_scan_is_lefschetz``
ranks the map out of every degree, where the package ranks one degree of
each Serre-dual pair, and reads the piece dimensions, not the mirrored
Hilbert function.  ``series_numpy`` is the array staircase that the
package's plain-Python Hilbert numerator replaced.  The root search scans
all of F_p with an O(p) array (16 GB near 2^31), so the point oracles run
only at primes up to the default 65521."""

from __future__ import annotations

from collections import Counter

import numpy as np

from lefschetz_locus import rand
from lefschetz_locus.bundle import InconsistencyError, SplittingType, h0
from lefschetz_locus.field_linalg import DEFAULT_PRIME, cokernel_basis, rank
from lefschetz_locus.groebner import (
    GroebnerBasis,
    _divides,
    _mono_lcm,
    _mono_mul,
    buchberger,
    grevlex_key,
    intersect,
    saturate,
)
from lefschetz_locus.jumping import (
    RestrictedBundle,
    line_point,
    restrict,
    section_matrix,
    splitting_type,
)
from lefschetz_locus.lefschetz import dual_ring, locus_ideal_at, random_line
from lefschetz_locus.polyring import DegenerateLineError, Polynomial
from lefschetz_locus.presentation import _block_layout, graded_piece_matrix


# -- integer power series / Hilbert series -------------------------------


def poly_mul_z(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_div_one_minus_z(coeffs: list[int]) -> list[int]:
    """Exact division by (1 - z); input must vanish at z = 1."""
    assert sum(coeffs) == 0, "not divisible by 1 - z"
    out = []
    acc = 0
    for c in coeffs[:-1]:
        acc += c
        out.append(acc)
    return out


def hilbert_series_ci(a: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of prod(1 - z^a_i) / (1 - z)^3 for a complete
    intersection quotient with three forms."""
    assert len(a) == 3
    num = [1]
    for ai in a:
        factor = [1] + [0] * (ai - 1) + [-1]
        num = poly_mul_z(num, factor)
    for _ in range(3):
        num = poly_div_one_minus_z(num)
    while num and num[-1] == 0:
        num.pop()
    return tuple(num)


def hilbert_series_presented(a: tuple[int, ...], b: tuple[int, ...]) -> dict[int, int]:
    """Hilbert function of a generic finite-length cokernel from the
    alternating numerator sum(z^b) - sum(z^a) + sum(z^(d-a)) - sum(z^(d-b)),
    divided exactly by (1 - z)^3."""
    d = sum(a) - sum(b)
    shift = -min(min(b), 0)
    top = max(max(d - bj for bj in b), max(a)) + shift + 1
    num = [0] * (top + 1)
    for bj in b:
        num[bj + shift] += 1
    for ai in a:
        num[ai + shift] -= 1
    for ai in a:
        num[d - ai + shift] += 1
    for bj in b:
        num[d - bj + shift] -= 1
    for _ in range(3):
        num = poly_div_one_minus_z(num)
    return {t - shift: c for t, c in enumerate(num) if c}


# -- presentation slices by loops -----------------------------------------


def basis_index(basis) -> dict:
    """Position of each monomial of a graded piece basis."""
    return {m: i for i, m in enumerate(basis.monomials)}


def graded_piece_matrix_loop(pres, t: int) -> np.ndarray:
    """The degree-t slice of the presentation map, entry by entry through
    dict lookups of each target monomial (``graded_piece_matrix`` computes
    the positions instead)."""
    deg = pres.degrees
    tgt_bases, tgt_off, tgt_dim = _block_layout(deg.b, t)
    src_bases, src_off, src_dim = _block_layout(deg.a, t)
    m = np.zeros((tgt_dim, src_dim), dtype=np.int64)
    for j in range(deg.n):
        tgt_index = basis_index(tgt_bases[j])
        for i in range(deg.n + 2):
            f = pres.entries[j][i]
            if f.is_zero() or len(src_bases[i]) == 0:
                continue
            for c, mono in enumerate(src_bases[i].monomials):
                for mf, coef in f.terms.items():
                    target = (mf[0] + mono[0], mf[1] + mono[1], mf[2] + mono[2])
                    r = tgt_off[j] + tgt_index[target]
                    m[r, src_off[i] + c] = (m[r, src_off[i] + c] + coef) % pres.prime
    return m


def multiplication_map_loop(mod, line, t: int) -> np.ndarray:
    """``GradedModule.multiplication_map`` of l1*x1 + l2*x2 + l3*x3, the
    triple ``line``: each coset monomial times the whole linear form is
    lifted through dict lookups of its products, one variable at a time,
    and reduced once (the package reduces the map of each variable)."""
    src, dst = mod.piece(t), mod.piece(t + 1)
    if src.dim == 0 or dst.dim == 0:
        return np.zeros((dst.dim, src.dim), dtype=np.int64)
    bases, _, _ = _block_layout(mod.degrees.b, t + 1)
    index = [basis_index(basis) for basis in bases]
    lifted = np.zeros((dst.target_dim, src.dim), dtype=np.int64)
    for c, (j, mono) in enumerate(zip(src.coset_blocks, src.coset_exponents)):
        for v, cv in enumerate(line):
            target = tuple(int(e) + (k == v) for k, e in enumerate(mono))
            r = dst.offsets[j] + index[j][target]
            lifted[r, c] = (lifted[r, c] + int(cv)) % mod.prime
    return dst.coker.reduce(lifted)


def slice_maps(pres, t: int) -> np.ndarray:
    """The maps of x1, x2, x3 out of degree t, as a (3, h(t+1), h(t))
    stack, with both pieces built from their slices (``graded_piece_matrix``
    and ``cokernel_basis``) at every degree: each coset monomial times each
    variable is lifted through dict lookups and reduced in the next slice."""
    deg, p = pres.degrees, pres.prime
    src, dst = (cokernel_basis(graded_piece_matrix(pres, s), p) for s in (t, t + 1))
    src_bases, src_off, _ = _block_layout(deg.b, t)
    dst_bases, dst_off, dst_dim = _block_layout(deg.b, t + 1)
    index = [basis_index(basis) for basis in dst_bases]
    lifted = np.zeros((dst_dim, 3 * src.dim), dtype=np.int64)
    for c, row in enumerate(src.coset):
        j = max(k for k in range(deg.n) if src_off[k] <= row)
        mono = src_bases[j].monomials[row - src_off[j]]
        for v in range(3):
            target = tuple(e + (k == v) for k, e in enumerate(mono))
            lifted[dst_off[j] + index[j][target], v * src.dim + c] = 1
    return dst.reduce(lifted).reshape(dst.dim, 3, src.dim).transpose(1, 0, 2)


# -- restriction to lines by loops -----------------------------------------


def _binary_mul_loop(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return out


def substitute_line_loop(f: Polynomial, param) -> tuple[int, ...]:
    """Restrict a homogeneous form to the line with 3x2 parametrization
    ``param`` (variable i maps to param[i][0]*s + param[i][1]*u) term by
    term, by convolving powers of the parametrization rows over Python ints
    (the package reads each monomial's row off ``line_power_table``); the
    coefficient of s^(d-l) * u^l is at l."""
    p = f.ring.prime
    rows = [[int(c) % p for c in row] for row in param]
    if len(rows) != 3 or any(len(r) != 2 for r in rows):
        raise ValueError("parametrization must be 3x2")
    if not any((rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0]) % p
               for i, j in ((0, 1), (0, 2), (1, 2))):  # no nonzero 2x2 minor: rank < 2
        raise DegenerateLineError("parametrization does not span a plane")
    if not f.is_homogeneous():
        raise ValueError("can only restrict homogeneous forms")
    d = f.degree()
    if d < 0:
        return (0,)
    powers: dict[tuple[int, int], list[int]] = {}

    def row_power(i: int, e: int) -> list[int]:
        if (i, e) not in powers:
            powers[i, e] = [1] if e == 0 else _binary_mul_loop(row_power(i, e - 1), rows[i], p)
        return powers[i, e]

    acc = [0] * (d + 1)
    for (e1, e2, e3), c in f.terms.items():
        term = [c % p]
        for i, e in ((0, e1), (1, e2), (2, e3)):
            if e:
                term = _binary_mul_loop(term, row_power(i, e), p)
        for k, v in enumerate(term):
            acc[k] = (acc[k] + v) % p
    return tuple(acc)


def restrict_loop(pres, param) -> RestrictedBundle:
    """The restricted grid entry by entry through ``substitute_line_loop``,
    without the surjectivity check of ``jumping.restrict``, each entry
    zero-padded to the degree max(a_(n+2) - b_1, 0) of the widest one."""
    deg, p = pres.degrees, pres.prime
    top = max(deg.a[-1] - deg.b[0], 0)
    grid = [[list(substitute_line_loop(f, param)) if not f.is_zero() else [] for f in row]
            for row in pres.entries]
    return RestrictedBundle(deg, np.array([[c + [0] * (top + 1 - len(c)) for c in row]
                                           for row in grid], dtype=np.int64), p)


def section_matrix_loop(rb, t: int) -> np.ndarray:
    """``jumping.section_matrix`` filled one coefficient at a time."""
    deg = rb.degrees
    src_dims = [max(t - ai + 1, 0) for ai in deg.a]
    tgt_dims = [max(t - bj + 1, 0) for bj in deg.b]
    src_off = [sum(src_dims[:i]) for i in range(len(src_dims))]
    tgt_off = [sum(tgt_dims[:j]) for j in range(len(tgt_dims))]
    m = np.zeros((sum(tgt_dims), sum(src_dims)), dtype=np.int64)
    for j in range(deg.n):
        if tgt_dims[j] == 0:
            continue
        for i in range(deg.n + 2):
            if src_dims[i] == 0:
                continue
            for q in range(src_dims[i]):
                col = src_off[i] + q
                for l, c in enumerate(rb.coefficients[j, i].tolist()):
                    if not c:
                        continue
                    row = tgt_off[j] + q + l
                    m[row, col] = (m[row, col] + c) % rb.prime
    return m


# -- binary form arithmetic ----------------------------------------------


def binary_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def binary_add(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    assert len(a) == len(b)
    return tuple((x + y) % p for x, y in zip(a, b))


# -- exact determinant over F_p ------------------------------------------


def det_mod(rows: list[list[int]], p: int) -> int:
    """Recursive cofactor determinant of a square integer matrix mod p."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0] % p
    total = 0
    for i in range(n):
        if rows[i][0] % p == 0:
            continue
        minor = [r[1:] for k, r in enumerate(rows) if k != i]
        sign = -1 if i % 2 else 1
        total += sign * rows[i][0] * det_mod(minor, p)
    return total % p


def specialize(m, i: int, coords) -> np.ndarray:
    """The degree-i dual matrix at a line: sum_v c_v * (multiplication by
    x_v out of degree i) mod p, summed in Python ints and reduced once."""
    return (np.tensordot(np.array([int(c) for c in coords], dtype=object),
                         m.variable_maps(i).astype(object), 1) % m.prime).astype(np.int64)


def full_scan_is_lefschetz(m, line) -> tuple[bool, tuple[int, ...]]:
    """(ok, failing degrees) of multiplication by the line, the rank taken
    out of every degree from b_1 - 1 through the socle degree; dimensions
    are read from the pieces themselves."""
    lo, e = m.degrees.b[0], m.degrees.socle_degree

    def dim(t):
        return m.piece(t).dim if lo <= t <= e else 0

    failing = tuple(i for i in range(lo - 1, e + 1) if min(dim(i), dim(i + 1))
                    and rank(specialize(m, i, line), m.prime) < min(dim(i), dim(i + 1)))
    return not failing, failing


def series_numpy(lms) -> list[int]:
    """Hilbert-series numerator of R/M, M the monomial ideal of ``lms``, by
    plane staircases in arrays (see ``groebner._series``)."""
    lms = np.array(sorted(set(lms)), dtype=np.int64).reshape(-1, 3)
    top = int(lms[:, 2].max(initial=0))
    out = np.zeros(3 * int(lms.sum(1).max(initial=0)) + 2, dtype=np.int64)
    for c in range(top + 1):
        plane = lms[lms[:, 2] <= c, :2]  # sorted by a, then b
        a, b = plane[plane[:, 1] < np.minimum.accumulate(np.r_[1 << 62, plane[:-1, 1]])].T
        n_c = np.zeros(len(out), dtype=np.int64)
        n_c[0] = 1
        np.add.at(n_c, a + b, -1)
        np.add.at(n_c, a[1:] + b[:-1], 1)
        if c < top:
            n_c -= np.r_[0, n_c[:-1]]
        out[c:] += n_c[:len(out) - c]
    coeffs = out.tolist()
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


# -- criteria-free Buchberger oracle --------------------------------------

RawPoly = dict


def _key(m):
    """Graded reverse-lex."""
    return (sum(m), tuple(-e for e in reversed(m)))


def _lead(f):
    return max(f, key=_key)


def naive_reduce(f: RawPoly, gens: list[RawPoly], p: int) -> RawPoly:
    f = dict(f)
    while True:
        hit = None
        for m in sorted(f, key=_key, reverse=True):
            for g in gens:
                lm = _lead(g)
                if all(x >= y for x, y in zip(m, lm)):
                    hit = (m, g, lm)
                    break
            if hit:
                break
        if hit is None:
            return f
        m, g, lm = hit
        shift = tuple(x - y for x, y in zip(m, lm))
        c = f[m] * pow(g[lm], p - 2, p) % p
        for gm, gc in g.items():
            tm = tuple(x + y for x, y in zip(gm, shift))
            v = (f.get(tm, 0) - c * gc) % p
            if v:
                f[tm] = v
            else:
                f.pop(tm, None)


def naive_spoly(f: RawPoly, g: RawPoly, p: int) -> RawPoly:
    lf, lg = _lead(f), _lead(g)
    lcm = tuple(max(x, y) for x, y in zip(lf, lg))
    out: RawPoly = {}
    cf = pow(f[lf], p - 2, p)
    cg = pow(g[lg], p - 2, p)
    for m, c in f.items():
        tm = tuple(x + y - z for x, y, z in zip(m, lcm, lf))
        out[tm] = (out.get(tm, 0) + c * cf) % p
    for m, c in g.items():
        tm = tuple(x + y - z for x, y, z in zip(m, lcm, lg))
        out[tm] = (out.get(tm, 0) - c * cg) % p
    return {m: c for m, c in out.items() if c}


def naive_groebner_leading_terms(gens: list[RawPoly], p: int) -> set[tuple]:
    """Minimal leading-term set of a Groebner basis computed with no pair
    criteria at all: every S-polynomial is reduced until closure."""
    basis = [dict(g) for g in gens if g]
    done = False
    while not done:
        done = True
        n = len(basis)
        for i in range(n):
            for j in range(i + 1, n):
                r = naive_reduce(naive_spoly(basis[i], basis[j], p), basis, p)
                if r:
                    basis.append(r)
                    done = False
        if not done:
            continue
    leads = {_lead(g) for g in basis}
    minimal = set()
    for m in sorted(leads, key=_key):
        if not any(all(x >= y for x, y in zip(m, g)) for g in minimal):
            minimal.add(m)
    return minimal


# -- pair-at-a-time Buchberger oracle -------------------------------------


def _mono_sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _normal_form(f: RawPoly, basis: list[tuple[tuple, RawPoly]], key, p: int) -> RawPoly:
    """Full normal form of f against monic (lm, poly) pairs under ``key``."""
    work = dict(f)
    out: RawPoly = {}
    while work:
        m = max(work, key=key)
        hit = next(((lm, g) for lm, g in basis if _divides(lm, m)), None)
        if hit is None:
            out[m] = work.pop(m)
            continue
        lm, g = hit
        factor = work[m] % p
        shift = _mono_sub(m, lm)
        for gm, gc in g.items():
            tm = _mono_mul(gm, shift)
            v = (work.get(tm, 0) - factor * gc) % p
            if v:
                work[tm] = v
            else:
                work.pop(tm, None)
    return out


def _monic(f: dict, key, p: int) -> dict:
    lm = max(f, key=key)
    inv = pow(f[lm], p - 2, p)
    return {m: (c * inv) % p for m, c in f.items()}


def dict_buchberger(gens, key, p: int) -> list[dict]:
    """Reduced Groebner basis of raw dict generators under ``key``, one
    S-polynomial at a time with Buchberger's coprime and chain criteria;
    pairs go by lcm degree first.  Same output contract as the terms of
    ``groebner.buchberger(...).basis``: monic, sorted by leading monomial."""
    basis: list[dict] = []
    lms: list[tuple] = []
    pairs: dict[tuple[int, int], tuple] = {}  # -> (deg, key(lcm), (i, j), lcm)

    def add(f: dict):
        r = _normal_form(f, list(zip(lms, basis)), key, p)
        if not r:
            return
        r = _monic(r, key, p)
        k = len(basis)
        lm_new = max(r, key=key)
        basis.append(r)
        lms.append(lm_new)
        for i in range(k):
            lcm = _mono_lcm(lms[i], lm_new)
            pairs[(i, k)] = (sum(lcm), key(lcm), (i, k), lcm)

    for g in gens:
        if g:
            add(g)

    while pairs:
        _, _, (i, j), lcm = min(pairs.values())
        del pairs[(i, j)]
        if lcm == _mono_mul(lms[i], lms[j]):
            continue  # coprime leading monomials
        if any(k not in (i, j) and _divides(lms[k], lcm)
               and (min(i, k), max(i, k)) not in pairs and (min(j, k), max(j, k)) not in pairs
               for k in range(len(basis))):
            continue
        sh_i = _mono_sub(lcm, lms[i])
        sh_j = _mono_sub(lcm, lms[j])
        s: dict = {}
        for m, c in basis[i].items():
            tm = _mono_mul(m, sh_i)
            s[tm] = (s.get(tm, 0) + c) % p
        for m, c in basis[j].items():
            tm = _mono_mul(m, sh_j)
            s[tm] = (s.get(tm, 0) - c) % p
        add({m: c for m, c in s.items() if c})

    # minimalize, then tail-reduce each element against the others
    minimal: list[dict] = []
    minimal_lms: list[tuple] = []
    for i in sorted(range(len(basis)), key=lambda i: key(lms[i])):
        if not any(_divides(g_lm, lms[i]) for g_lm in minimal_lms):
            minimal.append(basis[i])
            minimal_lms.append(lms[i])
    reduced = []
    for i, f in enumerate(minimal):
        others = [(minimal_lms[j], minimal[j]) for j in range(len(minimal)) if j != i]
        reduced.append(_monic(_normal_form(f, others, key, p), key, p))
    reduced.sort(key=lambda f: key(max(f, key=key)))
    return reduced


# -- intersection by elimination -------------------------------------------


def _elim1_key(m: tuple) -> tuple:
    """Block order eliminating the first variable: lex on it, deg-lex after."""
    return (m[0], sum(m[1:]), m[1:])


def elimination_intersect(gens1: list[dict], gens2: list[dict], p: int) -> list[dict]:
    """I n J by elimination, the route the package's degree-by-degree
    ``intersect`` replaced: a basis of t*I + (1 - t)*J under the order
    eliminating t, its t-free part, then the reduced grevlex basis of that.
    Raw dicts in and out, all through ``dict_buchberger``."""
    lift = [{(1,) + m: c for m, c in f.items()} for f in gens1]
    for g in gens2:
        lifted = {(0,) + m: c for m, c in g.items()}
        lifted.update({(1,) + m: -c % p for m, c in g.items()})
        lift.append(lifted)
    free = [{m[1:]: c for m, c in f.items()} for f in dict_buchberger(lift, _elim1_key, p)
            if all(m[0] == 0 for m in f)]
    return dict_buchberger(free, grevlex_key, p)


# -- polynomial evaluation and exact rank ---------------------------------


def variable(ring, v: int) -> Polynomial:
    """The variable x_(v+1) (l_(v+1) in the dual ring) as a polynomial."""
    return Polynomial(ring, {tuple(int(k == v) for k in range(3)): 1})


def evaluate(f: Polynomial, point) -> int:
    """Value of f at a point of the plane, mod p."""
    p = f.ring.prime
    x = [int(v) % p for v in point]
    return sum(c * pow(x[0], m[0], p) * pow(x[1], m[1], p) * pow(x[2], m[2], p)
               for m, c in f.terms.items()) % p


def rank_rational(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free
    (Bareiss) elimination with exact big-int arithmetic."""
    a = [[int(x) for x in row] for row in rows]
    if not a or not a[0]:
        return 0
    nr, nc = len(a), len(a[0])
    prev, r = 1, 0
    for c in range(nc):
        if r == nr:
            break
        pivot_row = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                a[i][j] = (a[i][j] * a[r][c] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
    return r


def rref_loop(rows: list[list[int]], p: int) -> tuple[list[list[int]], tuple[int, ...]]:
    """Reduced row echelon form mod p and its pivot columns, by Gauss-Jordan
    over Python ints, reducing every entry after every operation."""
    a = [[int(x) % p for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for j in range(len(a)):
            if j != r and a[j][c]:
                f = a[j][c]
                a[j] = [(x - f * y) % p for x, y in zip(a[j], a[r])]
        pivots.append(c)
    return a, tuple(pivots)


def random_matrix(rows: int, cols: int, seed: int, p: int = DEFAULT_PRIME) -> np.ndarray:
    stream = rand.Stream(seed)
    return np.array([[stream.below(p) for _ in range(cols)] for _ in range(rows)],
                    dtype=np.int64).reshape(rows, cols)


# -- Euler characteristic of the kernel bundle ----------------------------


def _chi_line_bundle(m: int) -> int:
    """Euler characteristic of O(m) on the plane, all m."""
    return (m + 2) * (m + 1) // 2


def euler_characteristic(degrees, t: int) -> int:
    """chi of the twisted bundle, by additivity over the defining sequence;
    cross-checked against the closed form in t."""
    total = sum(_chi_line_bundle(t - ai) for ai in degrees.a)
    total -= sum(_chi_line_bundle(t - bj) for bj in degrees.b)
    d = degrees.d
    sq = sum(ai * ai for ai in degrees.a) - sum(bj * bj for bj in degrees.b)
    if 2 * t * t + 6 * t + 4 - 2 * d * t - 3 * d + sq != 2 * total:
        raise InconsistencyError("Euler characteristic closed form disagrees with the sum")
    return total


def h2(degrees, t: int) -> int:
    """h^2 via duality: the bundle is self-dual up to the twist by d."""
    return h0(degrees, degrees.d - 3 - t)


def scan_splitting_type(rb) -> SplittingType:
    """Splitting type of the restricted kernel by scanning twists upward
    from total - 2: the larger summand is minus the first twist with a
    section, the other is pinned by the total."""
    total = -rb.degrees.d
    for t in range(total - 2, -total + 3):
        m = section_matrix(rb, t)
        if m.shape[1] > rank(m, rb.prime):
            assert -t >= total + t, "section scan produced an unsorted splitting"
            return SplittingType(-t, total + t)
    raise AssertionError(f"no sections for twists in [{total - 2}, {-total + 2}]")


def vote_generic_splitting(pres, seed: int = 0, samples: int = 5) -> SplittingType:
    """The most common splitting type over all ``samples`` seeded lines of
    the stream ``jumping.is_jumping`` draws its witnesses from, ties to the
    first.  A vote is no proof of genericity: at p = 13 it can elect a
    jumping type."""
    stream = rand.Stream(rand.derive(seed, 0x591))
    votes: Counter[tuple[int, int]] = Counter()
    for _ in range(samples):
        st = splitting_type(restrict(pres, line_point(random_line(pres.prime, stream),
                                                      pres.prime)))
        votes[(st.alpha, st.beta)] += 1
    return SplittingType(*votes.most_common(1)[0][0])


# -- colon ideals ----------------------------------------------------------


def _divide_exact(g: dict, f: dict, p: int) -> dict:
    """Quotient g/f when f divides g exactly."""
    work = dict(g)
    lf = max(f, key=grevlex_key)
    inv = pow(f[lf], p - 2, p)
    quotient = {}
    while work:
        m = max(work, key=grevlex_key)
        if not all(x <= y for x, y in zip(lf, m)):
            raise ArithmeticError("division is not exact")
        shift = tuple(y - x for x, y in zip(lf, m))
        coef = work[m] * inv % p
        quotient[shift] = coef
        for fm, fc in f.items():
            tm = tuple(x + y for x, y in zip(fm, shift))
            v = (work.get(tm, 0) - coef * fc) % p
            if v:
                work[tm] = v
            else:
                work.pop(tm, None)
    return quotient


def colon(ideal: GroebnerBasis, f: Polynomial) -> GroebnerBasis:
    """The colon ideal (I : f), from I meet (f) divided by f."""
    if f.is_zero():
        raise ValueError("colon by zero")
    ring = ideal.ring
    meet = intersect(ideal, buchberger([f], ring=ring))
    return buchberger([Polynomial(ring, _divide_exact(g.terms, f.terms, ring.prime))
                       for g in meet.basis], ring=ring)


# -- localization by intersection -----------------------------------------


def fold_localization(m, middle: GroebnerBasis) -> bool:
    """Does the middle-degree ideal cut out the whole locus?  Fold every
    other degree's minor ideal onto ``middle`` by intersection (skipping a
    degree whose basis already contains the running ideal), then compare
    the saturations of the result and of ``middle`` both ways."""
    ring = dual_ring(m)
    deg = m.degrees
    running = middle
    for i in range(deg.b[0] - 1, deg.socle_degree + 1):
        if i == deg.middle_degree:
            continue
        gb_i = buchberger(list(locus_ideal_at(m, i).gens), ring=ring)
        if not all(gb_i.contains(g) for g in running.basis):
            running = intersect(running, gb_i)
    if running.basis == middle.basis:
        return True
    sat_mid, sat_full = saturate(middle), saturate(running)
    return all(sat_full.contains(g) for g in sat_mid.basis) and all(
        sat_mid.contains(g) for g in sat_full.basis)


# -- rational points (O(p) root scans) -------------------------------------


def _univariate_roots(coeffs: list[int], p: int) -> list[int]:
    """All roots in F_p of a univariate polynomial given by descending
    coefficients, by a vectorized full scan."""
    coeffs = [c % p for c in coeffs]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if not coeffs:
        raise ValueError("zero polynomial has every root")
    xs = np.arange(p, dtype=np.int64)
    acc = np.full(p, coeffs[0], dtype=np.int64)
    for c in coeffs[1:]:
        acc = (acc * xs + c) % p
    return [int(r) for r in xs[acc == 0]]


def _canonical_point(coords, p: int) -> tuple[int, int, int]:
    coords = tuple(c % p for c in coords)
    last = max(i for i, c in enumerate(coords) if c)
    inv = pow(coords[last], p - 2, p)
    return tuple(c * inv % p for c in coords)


def _substitute(raw: dict, index: int, value: int, p: int) -> dict:
    out: dict = {}
    for m, c in raw.items():
        key = tuple(0 if i == index else e for i, e in enumerate(m))
        out[key] = (out.get(key, 0) + c * pow(value, m[index], p)) % p
    return {m: c for m, c in out.items() if c}


def _as_univariate(raw: dict, index: int) -> list[int] | None:
    """Descending coefficient list if the poly only involves one variable."""
    if any(e for m in raw for i, e in enumerate(m) if i != index):
        return None
    deg = max((m[index] for m in raw), default=0)
    out = [0] * (deg + 1)
    for m, c in raw.items():
        out[deg - m[index]] = c
    return out


def _univariate_gcd(polys: list[list[int]], p: int) -> list[int]:
    def trim(a):
        a = [c % p for c in a]
        while a and a[0] == 0:
            a.pop(0)
        return a

    def mod(a, b):
        a, b = trim(a), trim(b)
        inv = pow(b[0], p - 2, p)
        while len(a) >= len(b) and a:
            factor = a[0] * inv % p
            a = trim([(x - factor * y) % p for x, y in zip(a, b)] + a[len(b):])
        return a

    g: list[int] = []
    for poly in map(trim, polys):
        if not g:
            g = poly
            continue
        while poly:
            g, poly = poly, mod(g, poly)
        g = trim(g)
    return g


def rational_points_0dim(gb: GroebnerBasis) -> list[tuple[int, int, int]] | None:
    """All base-field points of a 0-dimensional vanishing set in the dual
    plane; None when a patch turns out positive-dimensional."""
    gens = list(gb.basis)
    if not gens:
        return None
    p = gens[0].ring.prime
    raws = [g.terms for g in gens]
    points = []

    def vanishes_at(point) -> bool:
        return all(evaluate(g, point) == 0 for g in gens)

    # patch l3 = 1: a lex basis, univariate in l2, then in l1 above each root
    affine = [r for r in (_substitute(r, 2, 1, p) for r in raws) if r]
    if not affine:
        return None
    gb = dict_buchberger(affine, lambda m: m, p)
    g2 = _univariate_gcd([u for f in gb if (u := _as_univariate(f, 1)) is not None], p)
    if not g2:
        return None
    for r in _univariate_roots(g2, p):
        slices = [s for s in (_substitute(f, 1, r, p) for f in gb) if s]
        univs = [u for s in slices if (u := _as_univariate(s, 0)) is not None]
        if len(univs) < len(slices):
            return None
        g1 = _univariate_gcd(univs, p)
        if not g1:
            return None
        points += [pt for s in _univariate_roots(g1, p)
                   if vanishes_at(pt := _canonical_point((s, r, 1), p))]

    # patch l3 = 0, l2 = 1
    line = [r for r in (_substitute(_substitute(r, 2, 0, p), 1, 1, p) for r in raws) if r]
    if not line:
        return None  # the whole line l3 = 0 lies in the locus
    g1 = _univariate_gcd([_as_univariate(r, 0) for r in line], p)
    if not g1:
        return None
    points += [pt for s in _univariate_roots(g1, p)
               if vanishes_at(pt := _canonical_point((s, 1, 0), p))]

    # the single remaining point
    if vanishes_at((1, 0, 0)):
        points.append((1, 0, 0))
    return sorted(set(points))


def sample_locus_points(gens: list[Polynomial], seed: int,
                        pencils: int = 6) -> list[tuple[int, int, int]]:
    """Base-field points of a positive-dimensional locus found by cutting
    with seeded random pencils; points whose coordinates would need a field
    extension are invisible to this search and are simply not returned."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    p = gens[0].ring.prime
    stream = rand.Stream(rand.derive(seed, 0x70C1))
    found = set()
    xs = np.arange(p, dtype=np.int64)
    for _ in range(pencils):
        pt_a = tuple(stream.below(p) for _ in range(3))
        pt_b = tuple(stream.below(p) for _ in range(3))
        try:
            forms = [substitute_line_loop(g, [[pt_a[i], pt_b[i]] for i in range(3)])
                     for g in gens]
        except ValueError:
            continue  # the two points do not span a line
        if not any(c for f in forms for c in f):
            continue  # pencil lies inside the locus; useless for sampling
        mask = np.ones(p, dtype=bool)
        for form in forms:
            acc = np.zeros(p, dtype=np.int64)
            for c in form:
                acc = (acc * xs + c) % p
            mask &= acc == 0
        for lam in xs[mask]:
            coords = tuple((int(lam) * pt_a[i] + pt_b[i]) % p for i in range(3))
            if any(coords):
                found.add(_canonical_point(coords, p))
        if all(form[0] == 0 for form in forms) and any(pt_a):
            found.add(_canonical_point(pt_a, p))
    return sorted(found)
