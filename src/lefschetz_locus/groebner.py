"""Groebner engine over the dual coordinate ring.

One engine computes every basis: batched Macaulay-matrix reduction in the
style of F4 (Faugere 1999), each batch being the input generators and
critical pairs of the lowest degree, row-reduced together by one
``field_linalg._rref`` with pairs pruned by the Gebauer-Moller criteria.
Reduced bases use graded reverse-lex, the one public order
(first-variable elimination stays private to intersection); ideal
dimension and degree come from the Hilbert series of the leading-term
ideal, intersection from the auxiliary variable construction, and
saturation by the irrelevant ideal from reverse-lex bases.

Internally polynomials are plain dicts mapping exponent tuples (of any
length, so the auxiliary-variable lift is just a longer tuple) to
residues; the public surface speaks :class:`~.polyring.Polynomial`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .field_linalg import _rref
from .polyring import Polynomial, Ring

RawPoly = dict[tuple, int]

# -- monomial orders -----------------------------------------------------


@functools.lru_cache(maxsize=1 << 16)
def grevlex_key(m: tuple) -> tuple:
    """Graded reverse-lex; cached (bounded), as reductions rank the same
    monomials over and over."""
    return (sum(m), tuple(-e for e in reversed(m)))


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


def _shift(f: RawPoly, t: tuple) -> RawPoly:
    return {_mono_mul(m, t): c for m, c in f.items()}


def _reduce_rows(rows: list[RawPoly], led: set, live: list[int], basis: list[RawPoly],
                 lms: list[tuple], key, p: int) -> tuple[list[tuple[tuple, RawPoly]], set]:
    """One Macaulay-matrix reduction of ``rows``.  Symbolic preprocessing
    first: every monomial of the rows that a ``live`` leading monomial
    divides gets a reducer, a shifted basis element leading there, unless
    it is in ``led`` (monomials that a shifted basis element among the rows
    already leads); ``rows`` and ``led`` grow in place.  Then one ``_rref``
    with columns in decreasing ``key``.  Returns the (leading monomial,
    monic row) pairs of the echelon form and the reducible monomials."""
    monos = set().union(*rows)
    todo, reducible = list(monos), set()
    while todo:
        m = todo.pop()
        k = next((k for k in live if _divides(lms[k], m)), None)
        if k is None:
            continue
        reducible.add(m)
        if m not in led:
            led.add(m)
            rows.append(_shift(basis[k], _mono_sub(m, lms[k])))
            fresh = rows[-1].keys() - monos
            monos |= fresh
            todo += fresh
    cols = sorted(monos, key=key, reverse=True)
    index = {m: c for c, m in enumerate(cols)}
    a = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for r, f in enumerate(rows):
        a[r, [index[m] for m in f]] = list(f.values())
    red, pivots = _rref(a, p)
    return [(cols[c], {cols[j]: int(red[r, j]) for j in np.flatnonzero(red[r])})
            for r, c in enumerate(pivots)], reducible


def _buchberger_raw(gens: Iterable[RawPoly], key, p: int) -> list[RawPoly]:
    """Reduced Groebner basis of the raw generators under ``key``, sorted by
    leading monomial, by batched Macaulay-matrix reduction (F4): each step
    reduces the input generators and critical pairs of the lowest degree
    together, and pairs are pruned by the Gebauer-Moller criteria.  Any
    monomial order and inhomogeneous input give the right basis, though
    under an order that does not refine degree, inhomogeneous input can
    make symbolic preprocessing pull in long chains of reducers."""
    basis: list[RawPoly] = []
    lms: list[tuple] = []
    live: list[int] = []  # basis elements whose leading monomial no later one divides
    pairs: list[tuple] = []  # (degree of lcm, i, j, lcm)
    todo = [(sum(max(g, key=key)), g) for g in gens if g]

    def insert(lm: tuple, f: RawPoly):
        h = len(basis)
        basis.append(f)
        lms.append(lm)
        # Gebauer-Moller: of the new pairs keep those whose lcm no other
        # new lcm divides (one of equal ones), then drop the coprime ones;
        # drop an old pair when lm divides its lcm strictly inside the chain
        cands = [(i, _mono_lcm(lms[i], lm)) for i in live]
        kept: list[tuple] = []
        for n, (i, lcm) in enumerate(cands):
            if lcm == _mono_mul(lms[i], lm) or not any(
                    _divides(other, lcm) for _, other in cands[n + 1:] + kept):
                kept.append((i, lcm))
        pairs[:] = [(d, i, j, lcm) for d, i, j, lcm in pairs
                    if not _divides(lm, lcm) or lcm in (_mono_lcm(lms[i], lm),
                                                        _mono_lcm(lms[j], lm))]
        pairs.extend((sum(lcm), i, h, lcm) for i, lcm in kept
                     if lcm != _mono_mul(lms[i], lm))
        live[:] = [i for i in live if not _divides(lm, lms[i])] + [h]

    while todo or pairs:
        d = min([t for t, _ in todo] + [pr[0] for pr in pairs])
        rows = [g for t, g in todo if t == d]
        todo = [tg for tg in todo if tg[0] != d]
        shifts = {(k, _mono_sub(lcm, lms[k])) for t, i, j, lcm in pairs if t == d for k in (i, j)}
        led = {lcm for t, _, _, lcm in pairs if t == d}
        pairs[:] = [pr for pr in pairs if pr[0] != d]
        reduced, reducible = _reduce_rows(rows + [_shift(basis[k], s) for k, s in shifts],
                                          led, live, basis, lms, key, p)
        # new elements lead at the pivots no old element divides; largest
        # first, so that a smaller one retires any it divides from ``live``
        for lm, f in sorted(reduced, key=lambda r: key(r[0]), reverse=True):
            if lm not in reducible:
                insert(lm, f)

    # the live elements form a minimal basis; reducing them with a reducer
    # for every other divisible monomial leaves the reduced basis
    leads = {lms[i] for i in live}
    reduced, _ = _reduce_rows([basis[i] for i in live], set(leads), live, basis, lms, key, p)
    return [f for lm, f in sorted(reduced, key=lambda r: key(r[0])) if lm in leads]


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
    """Ideal equality: reduced Groebner bases are unique.  The CLI compares
    bases inline; this stays because perfbench/spans.py wraps it by name."""
    return a.basis == b.basis


# -- dimension and degree ------------------------------------------------


@dataclass(frozen=True)
class IdealMeasure:
    """Projective dimension (-1 for empty) and degree of the vanishing
    scheme in the dual plane."""

    dim_projective: int
    degree: int

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
        return IdealMeasure(-1, 0)
    lms = _minimalize_monos(gb.leading_monomials())
    series = list(_numerator(lms, {}))
    drops = 0
    while series and sum(series) == 0:
        series = _strip_one_minus_z(series)
        drops += 1
    if drops > 3:
        raise ArithmeticError("numerator vanished more than 3 times at z=1")
    dim_proj = 2 - drops
    degree = sum(series) if dim_proj >= 0 else 0
    return IdealMeasure(dim_proj, degree)


# -- intersection and saturation -----------------------------------------


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
