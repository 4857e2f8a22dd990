"""Independent test oracles: small, self-contained implementations used to
cross-check the engine, kept out of the package because no CLI path needs
them.  Most stand alone, such as the entry-by-entry loop that built the
presentation slices; ``dict_buchberger`` is the pair-at-a-time Buchberger
loop on dict polynomials that the package's batched engine replaced,
sharing only its normal form and monomial helpers, and point extraction
runs it under lex.  ``colon`` and ``fold_localization`` (the
localization claim decided by intersecting every degree's minor ideal and
comparing saturations) use ``groebner.intersect``.  The root search scans
all of F_p with an O(p) array (16 GB near 2^31), so the point oracles run
only at primes up to the default 65521."""

from __future__ import annotations

import numpy as np

from lefschetz_locus import rand
from lefschetz_locus.bundle import InconsistencyError, h0
from lefschetz_locus.field_linalg import DEFAULT_PRIME, Matrix
from lefschetz_locus.groebner import (
    GroebnerBasis,
    _divides,
    _mono_lcm,
    _mono_mul,
    _mono_sub,
    _normal_form,
    buchberger,
    grevlex_key,
    intersect,
    saturate,
)
from lefschetz_locus.lefschetz import dual_ring, locus_ideal_at
from lefschetz_locus.polyring import Polynomial, substitute_line
from lefschetz_locus.presentation import _block_layout


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


def graded_piece_matrix_loop(pres, t: int) -> Matrix:
    """The degree-t slice of the presentation map, entry by entry through
    dict lookups of each target monomial (``graded_piece_matrix`` computes
    the positions instead)."""
    deg = pres.degrees
    tgt_bases, tgt_off, tgt_dim = _block_layout(deg.b, t)
    src_bases, src_off, src_dim = _block_layout(deg.a, t)
    m = Matrix.zero(tgt_dim, src_dim, pres.prime)
    for j in range(deg.n):
        tgt_index = tgt_bases[j].index()
        for i in range(deg.n + 2):
            f = pres.entries[j][i]
            if f.is_zero() or len(src_bases[i]) == 0:
                continue
            for c, mono in enumerate(src_bases[i].monomials):
                for mf, coef in f.terms.items():
                    target = (mf[0] + mono[0], mf[1] + mono[1], mf[2] + mono[2])
                    r = tgt_off[j] + tgt_index[target]
                    m.a[r, src_off[i] + c] = (m.a[r, src_off[i] + c] + coef) % pres.prime
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


def specialize(m, i: int, coords) -> Matrix:
    """The degree-i dual matrix at a line: sum_v c_v * (multiplication by
    x_v out of degree i) mod p, each product reduced before the sum."""
    p = m.prime
    maps = m.variable_maps(i)
    return Matrix(sum(int(c) % p * mv.a % p for c, mv in zip(coords, maps)) % p, p)


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


def _monic(f: dict, key, p: int) -> dict:
    lm = max(f, key=key)
    inv = pow(f[lm], p - 2, p)
    return {m: (c * inv) % p for m, c in f.items()}


def dict_buchberger(gens, key, p: int) -> list[dict]:
    """Reduced Groebner basis of raw dict generators under ``key``, one
    S-polynomial at a time with Buchberger's coprime and chain criteria;
    pairs go by lcm degree first.  Same output contract as
    ``groebner._buchberger_raw``: monic, sorted by leading monomial."""
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


# -- polynomial evaluation and exact rank ---------------------------------


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


def random_matrix(rows: int, cols: int, seed: int, p: int = DEFAULT_PRIME) -> Matrix:
    stream = rand.Stream(seed)
    data = [[stream.below(p) for _ in range(cols)] for _ in range(rows)]
    return Matrix.from_rows(data, p, cols=cols)


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
    meet = intersect(ideal, [f])
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
            forms = [substitute_line(g, [[pt_a[i], pt_b[i]] for i in range(3)]) for g in gens]
        except ValueError:
            continue  # the two points do not span a line
        if not any(c for f in forms for c in f.coeffs):
            continue  # pencil lies inside the locus; useless for sampling
        mask = np.ones(p, dtype=bool)
        for form in forms:
            acc = np.zeros(p, dtype=np.int64)
            for c in form.coeffs:
                acc = (acc * xs + c) % p
            mask &= acc == 0
        for lam in xs[mask]:
            coords = tuple((int(lam) * pt_a[i] + pt_b[i]) % p for i in range(3))
            if any(coords):
                found.add(_canonical_point(coords, p))
        if all(form.coeffs[0] == 0 for form in forms) and any(pt_a):
            found.add(_canonical_point(pt_a, p))
    return sorted(found)
