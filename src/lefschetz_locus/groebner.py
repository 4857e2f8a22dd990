"""Buchberger engine over the dual coordinate ring.

Reduced Groebner bases under graded reverse-lex, the one public order
(lex and first-variable elimination stay private to point extraction and
intersection), ideal dimension and degree through the Hilbert series of the
leading-term ideal, intersection by the auxiliary variable construction,
colon ideals and saturation by the irrelevant ideal, and rational point
extraction for measured loci.

Internally polynomials are plain dicts mapping exponent tuples (of any
length, so the auxiliary-variable lift is just a longer tuple) to
residues; the public surface speaks :class:`~.polyring.Polynomial`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import rand
from .polyring import Polynomial, Ring, substitute_line

RawPoly = dict[tuple, int]

# -- monomial orders -----------------------------------------------------


@functools.lru_cache(maxsize=1 << 16)
def grevlex_key(m: tuple) -> tuple:
    """Graded reverse-lex; cached (bounded), as reductions rank the same
    monomials over and over."""
    return (sum(m), tuple(-e for e in reversed(m)))


def _lex_key(m: tuple) -> tuple:
    return m


def _elim1_key(m: tuple) -> tuple:
    """Block order eliminating the first variable: lex on it, deg-lex after."""
    return (m[0], sum(m[1:]), m[1:])


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _mono_sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


# -- raw polynomial core -------------------------------------------------


def _monic(f: RawPoly, key, p: int) -> RawPoly:
    lm = max(f, key=key)
    inv = pow(f[lm], p - 2, p)
    return {m: (c * inv) % p for m, c in f.items()}


def _normal_form(f: RawPoly, basis: list[tuple[tuple, RawPoly]], key, p: int) -> RawPoly:
    """Full normal form of f against monic (lm, poly) pairs."""
    work = dict(f)
    out: RawPoly = {}
    while work:
        m = max(work, key=key)
        hit = None
        for lm, g in basis:
            if _divides(lm, m):
                hit = (lm, g)
                break
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


def _buchberger_raw(gens: Iterable[RawPoly], key, p: int) -> list[RawPoly]:
    """Reduced Groebner basis of the raw generators under ``key``; pairs go
    by lcm degree first, so non-graded orders stay low on homogeneous input."""
    basis: list[RawPoly] = []
    lms: list[tuple] = []
    pairs: dict[tuple[int, int], tuple] = {}  # -> (deg, key(lcm), (i, j), lcm)

    def prepared() -> list[tuple[tuple, RawPoly]]:
        return list(zip(lms, basis))

    def add(f: RawPoly):
        r = _normal_form(f, prepared(), key, p)
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
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not _divides(lms[k], lcm):
                continue
            if (min(i, k), max(i, k)) not in pairs and (min(j, k), max(j, k)) not in pairs:
                skip = True
                break
        if skip:
            continue
        sh_i = _mono_sub(lcm, lms[i])
        sh_j = _mono_sub(lcm, lms[j])
        s: RawPoly = {}
        for m, c in basis[i].items():
            tm = _mono_mul(m, sh_i)
            s[tm] = (s.get(tm, 0) + c) % p
        for m, c in basis[j].items():
            tm = _mono_mul(m, sh_j)
            s[tm] = (s.get(tm, 0) - c) % p
        add({m: c for m, c in s.items() if c})

    return _reduce_basis_raw(basis, key, p)


def _reduce_basis_raw(basis: list[RawPoly], key, p: int) -> list[RawPoly]:
    """Minimalize then tail-reduce; output sorted by leading monomial."""
    if not basis:
        return []
    order = sorted(range(len(basis)), key=lambda i: key(max(basis[i], key=key)))
    minimal: list[RawPoly] = []
    minimal_lms: list[tuple] = []
    for i in order:
        lm = max(basis[i], key=key)
        if any(_divides(g_lm, lm) for g_lm in minimal_lms):
            continue
        minimal.append(basis[i])
        minimal_lms.append(lm)
    reduced = []
    for i, f in enumerate(minimal):
        others = [(minimal_lms[j], minimal[j]) for j in range(len(minimal)) if j != i]
        r = _normal_form(f, others, key, p)
        reduced.append(_monic(r, key, p))
    reduced.sort(key=lambda f: key(max(f, key=key)))
    return reduced


def _divide_exact(g: RawPoly, f: RawPoly, key, p: int) -> RawPoly:
    """Quotient g/f when f divides g exactly."""
    work = dict(g)
    lf = max(f, key=key)
    inv = pow(f[lf], p - 2, p)
    quotient: RawPoly = {}
    while work:
        m = max(work, key=key)
        if not _divides(lf, m):
            raise ArithmeticError("division is not exact")
        shift = _mono_sub(m, lf)
        coef = (work[m] * inv) % p
        quotient[shift] = coef
        for fm, fc in f.items():
            tm = _mono_mul(fm, shift)
            v = (work.get(tm, 0) - coef * fc) % p
            if v:
                work[tm] = v
            else:
                work.pop(tm, None)
    return quotient


# -- public wrappers -----------------------------------------------------


@dataclass(frozen=True)
class GroebnerBasis:
    ring: Ring
    basis: tuple[Polynomial, ...]

    @property
    def is_unit(self) -> bool:
        return any(f.degree() == 0 for f in self.basis)

    def leading_monomials(self) -> list[tuple[int, int, int]]:
        return [max(f.terms, key=grevlex_key) for f in self.basis]

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise ValueError("polynomial lives in the wrong ring")
        prepared = list(zip(self.leading_monomials(), (g.terms for g in self.basis)))
        return Polynomial(self.ring, _normal_form(f.terms, prepared, grevlex_key, self.ring.prime))

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()


def _as_gens(ideal) -> tuple[list[Polynomial], Ring]:
    if isinstance(ideal, GroebnerBasis):
        gens = list(ideal.basis)
        return gens, ideal.ring
    gens = list(ideal)
    if not gens:
        raise ValueError("cannot infer the ring of an empty generator list")
    return gens, gens[0].ring


def buchberger(gens: Sequence[Polynomial], ring: Ring | None = None) -> GroebnerBasis:
    """Reduced grevlex Groebner basis of the given generators."""
    gens = list(gens)
    if ring is None:
        if not gens:
            raise ValueError("ring required for an empty generator list")
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("mixed rings in generator list")
    raw = _buchberger_raw([g.terms for g in gens], grevlex_key, ring.prime)
    return GroebnerBasis(ring, tuple(Polynomial(ring, f) for f in raw))


def same_ideal(a: GroebnerBasis, b: GroebnerBasis) -> bool:
    """Ideal equality: reduced Groebner bases are unique."""
    return a.basis == b.basis


# -- dimension and degree ------------------------------------------------


@dataclass(frozen=True)
class IdealMeasure:
    """Projective dimension (-1 for empty) and degree of the vanishing
    scheme in the dual plane, plus the Hilbert-series numerator of the
    leading-term ideal for inspection."""

    dim_projective: int
    degree: int
    hilbert_numerator: tuple[int, ...]

    @property
    def codim(self) -> int:
        return 2 - self.dim_projective


def _minimalize_monos(monos: Iterable[tuple]) -> tuple[tuple, ...]:
    out: list[tuple] = []
    for m in sorted(set(monos), key=lambda t: (sum(t), t)):
        if not any(_divides(g, m) for g in out):
            out.append(m)
    return tuple(out)


def _poly_mul_z(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _numerator(monos: tuple[tuple, ...], memo: dict) -> list[int]:
    """Hilbert-series numerator of S/(monomial ideal), integer coefficients."""
    if monos in memo:
        return memo[monos]
    if not monos:
        return [1]
    if any(sum(m) == 0 for m in monos):
        return [0]
    nvars = len(monos[0])
    supports = [tuple(v for v in range(nvars) if m[v]) for m in monos]
    pairwise_coprime = all(
        not (set(supports[i]) & set(supports[j]))
        for i in range(len(monos))
        for j in range(i + 1, len(monos))
    )
    if pairwise_coprime:
        result = [1]
        for m in monos:
            factor = [1] + [0] * (sum(m) - 1) + [-1]
            result = _poly_mul_z(result, factor)
        memo[monos] = result
        return result
    counts = [sum(1 for m in monos if m[v]) for v in range(nvars)]
    v = max(range(nvars), key=lambda i: counts[i])
    pivot = tuple(1 if i == v else 0 for i in range(nvars))
    plus = _minimalize_monos(list(monos) + [pivot])
    colon = _minimalize_monos(
        tuple(x - 1 if i == v and x > 0 else x for i, x in enumerate(m)) for m in monos
    )
    n_plus = _numerator(plus, memo)
    n_colon = _numerator(colon, memo)
    result = [0] * max(len(n_plus), len(n_colon) + 1)
    for i, x in enumerate(n_plus):
        result[i] += x
    for i, x in enumerate(n_colon):
        result[i + 1] += x
    while result and result[-1] == 0:
        result.pop()
    memo[monos] = result
    return result


def _strip_one_minus_z(coeffs: list[int]) -> list[int]:
    out = []
    acc = 0
    for c in coeffs[:-1]:
        acc += c
        out.append(acc)
    while out and out[-1] == 0:
        out.pop()
    return out


def measure(gb: GroebnerBasis) -> IdealMeasure:
    """Dimension and degree read off the leading-term ideal."""
    if gb.is_unit:
        return IdealMeasure(-1, 0, (0,))
    lms = _minimalize_monos(gb.leading_monomials())
    num = _numerator(lms, {})
    series = list(num)
    drops = 0
    while series and sum(series) == 0:
        series = _strip_one_minus_z(series)
        drops += 1
    if drops > 3:
        raise ArithmeticError("numerator vanished more than 3 times at z=1")
    dim_proj = 2 - drops
    degree = sum(series) if dim_proj >= 0 else 0
    return IdealMeasure(dim_proj, degree, tuple(num))


# -- intersection, colon, saturation --------------------------------------


def intersect(i1, i2) -> GroebnerBasis:
    """Intersection of two homogeneous ideals via the auxiliary-variable
    elimination construction."""
    gens1, ring = _as_gens(i1)
    gens2, ring2 = _as_gens(i2)
    if ring != ring2:
        raise ValueError("ideals live in different rings")
    if any(g.degree() == 0 and not g.is_zero() for g in gens1):
        return buchberger(gens2, ring=ring)
    if any(g.degree() == 0 and not g.is_zero() for g in gens2):
        return buchberger(gens1, ring=ring)
    p = ring.prime
    raw: list[RawPoly] = []
    for f in gens1:
        raw.append({(1,) + m: c for m, c in f.terms.items()})
    for g in gens2:
        lifted: RawPoly = {(0,) + m: c for m, c in g.terms.items()}
        for m, c in g.terms.items():
            key4 = (1,) + m
            lifted[key4] = (lifted.get(key4, 0) - c) % p
        raw.append({m: c for m, c in lifted.items() if c})
    gb4 = _buchberger_raw(raw, _elim1_key, p)
    eliminated = [f for f in gb4 if all(m[0] == 0 for m in f)]
    polys = [Polynomial(ring, {m[1:]: c for m, c in f.items()}) for f in eliminated]
    return buchberger(polys, ring=ring)


def colon(ideal, f: Polynomial) -> GroebnerBasis:
    """The colon ideal (I : f)."""
    gens, ring = _as_gens(ideal)
    if f.is_zero():
        raise ValueError("colon by zero")
    meet = intersect(gens, [f])
    out = [
        Polynomial(ring, _divide_exact(g.terms, f.terms, grevlex_key, ring.prime))
        for g in meet.basis
    ]
    return buchberger(out, ring=ring)


def _saturate_variable(raws: list[RawPoly], v: int, p: int) -> list[RawPoly]:
    """Generators of I : l_v^infinity for homogeneous I: compute a Groebner
    basis in graded reverse-lex with l_v last and strip the l_v powers."""
    n = 3
    perm = [i for i in range(n) if i != v] + [v]
    position = {j: i for i, j in enumerate(perm)}
    lifted = [
        {tuple(m[perm[i]] for i in range(n)): c for m, c in f.items()}
        for f in raws
    ]
    gb = _buchberger_raw(lifted, grevlex_key, p)
    out = []
    for f in gb:
        shift = min(m[n - 1] for m in f)
        stripped = {}
        for m, c in f.items():
            lowered = m[: n - 1] + (m[n - 1] - shift,)
            stripped[tuple(lowered[position[j]] for j in range(n))] = c
        out.append(stripped)
    return out


def saturate(ideal) -> GroebnerBasis:
    """Saturation with respect to the irrelevant ideal (l1, l2, l3).

    The saturation by the whole irrelevant ideal is the intersection of the
    three single-variable saturations, each of which drops out of one
    reverse-lex basis by stripping trailing-variable powers.
    """
    gens, ring = _as_gens(ideal)
    p = ring.prime
    raws = [g.terms for g in gens if not g.is_zero()]
    if not raws:
        return buchberger([], ring=ring)
    parts = []
    for v in range(3):
        sat_raw = _saturate_variable(raws, v, p)
        parts.append(buchberger([Polynomial(ring, f) for f in sat_raw], ring=ring))
    result = parts[0]
    for part in parts[1:]:
        if part.basis == result.basis:
            continue  # no component clings to this coordinate line
        result = intersect(result, part)
    return result


# -- rational points -------------------------------------------------------


def _univariate_roots(coeffs: list[int], p: int) -> list[int]:
    """All roots in F_p of a univariate polynomial given by descending
    coefficients, by a vectorized full scan."""
    coeffs = [c % p for c in coeffs]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if not coeffs:
        raise ValueError("zero polynomial has every root")
    if len(coeffs) == 1:
        return []
    xs = np.arange(p, dtype=np.int64)
    acc = np.full(p, coeffs[0], dtype=np.int64)
    for c in coeffs[1:]:
        acc = (acc * xs + c) % p
    return [int(r) for r in xs[acc == 0]]


def _canonical_point(coords: tuple[int, int, int], p: int) -> tuple[int, int, int]:
    coords = tuple(c % p for c in coords)
    last = max(i for i, c in enumerate(coords) if c)
    inv = pow(coords[last], p - 2, p)
    return tuple((c * inv) % p for c in coords)


def _substitute(raw: RawPoly, index: int, value: int, p: int) -> RawPoly:
    out: RawPoly = {}
    for m, c in raw.items():
        scaled = (c * pow(value, m[index], p)) % p
        key = tuple(0 if i == index else e for i, e in enumerate(m))
        v = (out.get(key, 0) + scaled) % p
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def _as_univariate(raw: RawPoly, index: int) -> list[int] | None:
    """Descending coefficient list if the poly only involves one variable."""
    if any(e for m in raw for i, e in enumerate(m) if i != index):
        return None
    if not raw:
        return [0]
    deg = max(m[index] for m in raw)
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
            factor = (a[0] * inv) % p
            for i in range(len(b)):
                a[i] = (a[i] - factor * b[i]) % p
            a = trim(a)
        return a

    g: list[int] = []
    for poly in polys:
        poly = trim(poly)
        if not poly:
            continue
        if not g:
            g = poly
            continue
        while poly:
            g, poly = poly, mod(g, poly)
        g = trim(g)
    return g


def rational_points_0dim(ideal) -> list[tuple[int, int, int]] | None:
    """All base-field points of a 0-dimensional vanishing set in the dual
    plane; None when a patch turns out positive-dimensional."""
    gens, ring = _as_gens(ideal)
    p = ring.prime
    raws = [g.terms for g in gens if not g.is_zero()]
    if not raws:
        return None
    points: list[tuple[int, int, int]] = []

    def vanishes_at(point) -> bool:
        return all(Polynomial(ring, r).evaluate(point) == 0 for r in raws)

    # patch l3 = 1
    affine = [_substitute(r, 2, 1, p) for r in raws]
    affine = [r for r in affine if r]
    if not affine:
        return None
    gb = _buchberger_raw(affine, _lex_key, p)
    pure_l2 = [u for f in gb if (u := _as_univariate(f, 1)) is not None]
    if not pure_l2:
        return None
    g2 = _univariate_gcd(pure_l2, p)
    if not g2:
        return None
    for r in _univariate_roots(g2, p):
        slices = [_substitute(f, 1, r, p) for f in gb]
        univs = [u for s in slices if s and (u := _as_univariate(s, 0)) is not None]
        if len(univs) < len([s for s in slices if s]):
            return None
        g1 = _univariate_gcd(univs, p)
        if not g1:
            return None
        for s in _univariate_roots(g1, p):
            candidate = _canonical_point((s, r, 1), p)
            if vanishes_at(candidate):
                points.append(candidate)

    # patch l3 = 0, l2 = 1
    line = [_substitute(_substitute(r, 2, 0, p), 1, 1, p) for r in raws]
    line = [r for r in line if r]
    if not line and raws:
        return None  # the whole line l3 = 0 lies in the locus
    univs = [u for r in line if (u := _as_univariate(r, 0)) is not None]
    if len(univs) != len(line):
        raise AssertionError("substitution left a multivariate remainder")
    g1 = _univariate_gcd(univs, p)
    if not g1:
        return None
    for s in _univariate_roots(g1, p):
        candidate = _canonical_point((s, 1, 0), p)
        if vanishes_at(candidate):
            points.append(candidate)

    # the single remaining point
    if vanishes_at((1, 0, 0)):
        points.append(_canonical_point((1, 0, 0), p))

    return sorted(set(points))


def sample_locus_points(ideal, seed: int, pencils: int = 6) -> list[tuple[int, int, int]]:
    """Base-field points of a positive-dimensional locus found by cutting
    with seeded random pencils; points whose coordinates would need a field
    extension are invisible to this search and are simply not returned."""
    gens, ring = _as_gens(ideal)
    p = ring.prime
    raws = [g for g in gens if not g.is_zero()]
    if not raws:
        return []
    stream = rand.Stream(rand.derive(seed, 0x70C1))
    found: set[tuple[int, int, int]] = set()
    xs = np.arange(p, dtype=np.int64)
    for _ in range(pencils):
        pt_a = tuple(stream.below(p) for _ in range(3))
        pt_b = tuple(stream.below(p) for _ in range(3))
        param = [[pt_a[i], pt_b[i]] for i in range(3)]
        try:
            forms = [substitute_line(g, param) for g in raws]
        except Exception:
            continue
        if all(f.is_zero() for f in forms):
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
