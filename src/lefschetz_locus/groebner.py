"""Groebner bases over the dual coordinate ring.

One class, :class:`GroebnerBasis`, is both the engine and its result: a
homogeneous graded reverse-lex basis held as dense rows and grown one
degree at a time.  It is F4 (Faugere 1999) in the per-degree form
homogeneous ideals allow (Lazard 1983): a form of degree D is a dense
residue row over the monomials of R_D in decreasing grevlex order, a
monomial shift is one index scatter, and each degree's generators and
critical pairs, pruned by the Gebauer-Moller criteria, are reduced together
with their reducers by one ``field_linalg._rref``.  Inhomogeneous input is
a named error.  Leading monomials, normal forms and membership read the
stored rows.  Ideal dimension and degree come from the Hilbert series of
the leading-term ideal, intersection degree by degree from the pieces I_D
and J_D, and the saturation by the irrelevant ideal is the intersection of
the three variable saturations I : l_v^infinity, each stripped off a basis
with l_v last (Bayer-Stillman).

Polynomials are :class:`~.polyring.Polynomial` at the public surface and
dense rows inside; ``GroebnerBasis.basis`` builds the polynomials only when
read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate, zip_longest
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .field_linalg import _matmul, _rref
from .polyring import Polynomial, Ring, monomial_basis

RawPoly = dict[tuple, int]

# -- monomials -----------------------------------------------------------


@functools.lru_cache(maxsize=1 << 16)
def grevlex_key(m: tuple) -> tuple:
    """Graded reverse-lex; cached (bounded), as bases rank the same
    monomials over and over."""
    return (sum(m), tuple(-e for e in reversed(m)))


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


@functools.lru_cache(maxsize=None)
def _table(d: int) -> tuple[np.ndarray, list[tuple]]:
    """The monomials of R_d in decreasing grevlex order, as an (N, 3)
    array and as tuples; (e1, e2, e3) sits at ``_pos(d, e)``."""
    monos = sorted(monomial_basis(d).monomials, key=grevlex_key, reverse=True)
    return np.array(monos, dtype=np.int64).reshape(-1, 3), monos


def _pos(d: int, e: np.ndarray) -> np.ndarray:
    """Positions in R_d of the exponent triples along the last axis of e:
    the e3 = k block starts after k blocks of sizes d + 1, d, ..."""
    return e[..., 2] * (d + 1) - e[..., 2] * (e[..., 2] - 1) // 2 + e[..., 1]


# -- the basis: a dense per-degree engine --------------------------------


class GroebnerBasis:
    """A homogeneous grevlex Groebner basis of an ideal of ``ring``, grown
    one degree at a time.  Element k is the dense row ``rows[k]`` over
    R_deg[k]; it leads at ``lms[k]``, its first nonzero entry.  While it
    grows, ``pairs`` holds the critical pairs left, as (degree of lcm, i,
    j, lcm).  Grown by ``grow``, the basis is reduced and its rows monic."""

    def __init__(self, ring: Ring):
        self.ring = ring
        self.lms: list[tuple] = []
        self.deg: list[int] = []
        self.rows: list[np.ndarray] = []
        self.pairs: list[tuple] = []
        self._reduced: dict[int, tuple[np.ndarray, list[int]]] = {}

    @property
    def basis(self) -> tuple[Polynomial, ...]:
        """The elements as polynomials, sorted by leading monomial."""
        order = sorted(range(len(self.lms)), key=lambda k: grevlex_key(self.lms[k]))
        return tuple(Polynomial(self.ring, _raw(self.rows[k], self.deg[k])) for k in order)

    @property
    def is_unit(self) -> bool:
        return 0 in self.deg

    def leading_monomials(self) -> list[tuple[int, int, int]]:
        return sorted(self.lms, key=grevlex_key)  # the order of ``basis``

    def divisors(self, d: int) -> np.ndarray:
        """For each monomial of R_d the first element whose leading
        monomial divides it, or -1: one N x L x 3 comparison."""
        if not self.lms:
            return np.full(len(_table(d)[1]), -1)
        div = (_table(d)[0][:, None, :] >= np.array(self.lms)[None]).all(2)
        return np.where(div.any(1), div.argmax(1), -1)

    def lead_at(self, ks: np.ndarray, ms: np.ndarray, d: int) -> np.ndarray:
        """Rows over R_d: element ks[r] times the monomial that moves its
        leading monomial to position ms[r], one scatter per source degree."""
        exps, deg = _table(d)[0], np.array(self.deg, dtype=np.int64)[ks]
        out = np.zeros((len(ks), len(exps)), dtype=np.int64)
        for e in set(deg.tolist()):
            sel = np.flatnonzero(deg == e)
            shift = exps[ms[sel]] - np.array(self.lms)[ks[sel]]
            out[sel[:, None], _pos(d, _table(e)[0] + shift[:, None])] = \
                np.array([self.rows[k] for k in ks[sel].tolist()])
        return out

    def span(self, d: int, keep=True) -> np.ndarray:
        """Echelon rows spanning the degree-d piece of the ideal, one per
        divisible monomial where ``keep`` holds (the elements must form a
        Groebner basis)."""
        first = self.divisors(d)
        ms = np.flatnonzero((first >= 0) & keep)
        return self.lead_at(first[ms], ms, d)

    def step(self, d: int, rows: np.ndarray) -> None:
        """Degree d: reduce ``rows`` (forms of degree d), the two shifts of
        every critical pair whose lcm has degree d, and a reducer for every
        monomial of theirs that a leading monomial divides (closed under
        the reducers' own monomials) by one ``_rref`` on the columns they
        use.  A pivot that no leading monomial divides starts a new element.
        Every divisible monomial among the columns is a pivot, so the new
        rows are already reduced, and as later elements have higher degree
        the basis stays reduced."""
        shifts = sorted({(k, lcm) for t, i, j, lcm in self.pairs if t == d for k in (i, j)})
        self.pairs = [pr for pr in self.pairs if pr[0] != d]
        self._reduced = {}
        led = _pos(d, np.array([lcm for _, lcm in shifts], dtype=np.int64).reshape(-1, 3))
        a = np.vstack([rows, self.lead_at(np.array([k for k, _ in shifts], dtype=np.int64),
                                          led, d)])
        first = self.divisors(d)
        want = first >= 0
        want[led] = False  # a pair shift already leads there
        while (ms := np.flatnonzero(want & a.any(0))).size:
            want[ms] = False
            a = np.vstack([a, self.lead_at(first[ms], ms, d)])
        cols = np.flatnonzero(a.any(0))
        red, pivots = _rref(a[:, cols], self.ring.prime)
        new = [r for r, c in enumerate(pivots) if first[cols[c]] < 0]
        block = np.zeros((len(new), len(first)), dtype=np.int64)
        block[:, cols] = red[new]
        self.lms += [_table(d)[1][c] for c in (block != 0).argmax(1).tolist()]
        self.deg += [d] * len(block)
        self.rows += list(block)
        for h in range(len(self.lms) - len(new), len(self.lms)):
            self._pair(h)

    def _pair(self, h: int) -> None:
        # Gebauer-Moller: of the new pairs keep those whose lcm no other
        # new lcm divides (one of equal ones), then drop the coprime ones;
        # drop an old pair when lm divides its lcm strictly inside the chain
        lms, lm = self.lms, self.lms[h]
        cands = [(i, _mono_lcm(lms[i], lm)) for i in range(h)]
        kept: list[tuple] = []
        for n, (i, lcm) in enumerate(cands):
            if lcm == _mono_mul(lms[i], lm) or not any(
                    _divides(other, lcm) for _, other in cands[n + 1:] + kept):
                kept.append((i, lcm))
        self.pairs = [(d, i, j, lcm) for d, i, j, lcm in self.pairs
                      if not _divides(lm, lcm) or lcm in (_mono_lcm(lms[i], lm),
                                                          _mono_lcm(lms[j], lm))]
        self.pairs += [(sum(lcm), i, h, lcm) for i, lcm in kept if lcm != _mono_mul(lms[i], lm)]

    def grow(self, todo: dict[int, np.ndarray]) -> "GroebnerBasis":
        """Extend the basis by the forms ``todo`` (rows by degree): one step
        per degree that holds forms or critical pairs, lowest first."""
        while todo or self.pairs:
            d = min([*todo, *(pr[0] for pr in self.pairs)])
            self.step(d, todo.pop(d, np.zeros((0, comb(d + 2, 2)), dtype=np.int64)))
        return self

    def normal_form(self, f: Polynomial) -> Polynomial:
        """The remainder of f on the monomials no leading monomial divides:
        each degree-d part less its projection on the reduced rows of I_d.
        Once no critical pair is left, those rows are eliminated once per
        degree and kept until the next ``step``."""
        if f.ring != self.ring:
            raise ValueError("polynomial lives in the wrong ring")
        p, out = self.ring.prime, {}
        for d in {sum(m) for m in f.terms}:
            row = _dense({m: c for m, c in f.terms.items() if sum(m) == d})[1][None]
            if d in self._reduced:
                red, pivots = self._reduced[d]
            else:
                red, pivots = _rref(self.span(d), p)
                pivots = list(pivots)
                if not self.pairs:
                    self._reduced[d] = red, pivots
            out.update(_raw((row - _matmul(row[:, pivots], red[:len(pivots)], p))[0] % p, d))
        return Polynomial(self.ring, out)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()


def _dense(f: RawPoly) -> tuple[int, np.ndarray]:
    """Degree and dense row of a nonzero form, which must be homogeneous."""
    e = np.array(list(f), dtype=np.int64).reshape(-1, 3)
    degrees = e.sum(1)
    if (degrees != degrees[0]).any():
        raise ValueError("the Groebner engine takes homogeneous generators; got one with "
                         f"terms of degrees {sorted(set(degrees.tolist()))}")
    d = int(degrees[0])
    row = np.zeros(comb(d + 2, 2), dtype=np.int64)
    row[_pos(d, e)] = list(f.values())
    return d, row


def _by_degree(forms: Iterable[tuple[int, np.ndarray]]) -> dict[int, np.ndarray]:
    """(degree, dense row) pairs stacked per degree."""
    out: dict[int, list[np.ndarray]] = {}
    for d, row in forms:
        out.setdefault(d, []).append(row)
    return {d: np.array(rows) for d, rows in out.items()}


def _raw(row: np.ndarray, d: int) -> RawPoly:
    monos, nz = _table(d)[1], np.flatnonzero(row)
    return dict(zip([monos[j] for j in nz.tolist()], row[nz].tolist()))


def buchberger(gens: Sequence[Polynomial], ring: Ring | None = None) -> GroebnerBasis:
    """Reduced grevlex Groebner basis of the given homogeneous generators."""
    gens = list(gens)
    if ring is None:
        if not gens:
            raise ValueError("ring required for an empty generator list")
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("mixed rings in generator list")
    return GroebnerBasis(ring).grow(_by_degree(_dense(g.terms) for g in gens if g.terms))


def same_ideal(a: GroebnerBasis, b: GroebnerBasis) -> bool:
    """Ideal equality: reduced Groebner bases are unique.  No CLI path
    compares ideals; tests use it, and perfbench/spans.py wraps it by name."""
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


def _series(lms: Iterable[tuple]) -> list[int]:
    """Hilbert-series numerator of R/M, M the monomial ideal of ``lms``,
    trailing zeros dropped.  R/M is the sum over c of l3^c k[l1, l2]/M_c,
    M_c generated by the l1, l2 parts of the lms with at most c factors l3,
    constant from the top power C of l3; so the numerator is the sum over
    c < C of t^c (1 - t) N_c plus t^C N_C.  A plane staircase, minimal
    generators (a_0 < ... < a_r, b_0 > ... > b_r), has N_c = 1 - sum
    t^(a_i + b_i) + sum t^(a_(i+1) + b_i)."""
    lms = sorted(set(lms))
    top = max((k for *_, k in lms), default=0)
    out = [0] * (3 * max(map(sum, lms), default=0) + 2)
    for c in range(top + 1):
        terms, least = [(0, 1)], None
        for a, b, k in lms:  # sorted by a, then b: a b below all before is minimal
            if k <= c and (least is None or b < least):
                terms.append((a + b, -1))
                if least is not None:
                    terms.append((a + least, 1))
                least = b
        for e, v in terms:  # t^c N_c, times 1 - t below the top
            out[c + e] += v
            if c < top:
                out[c + e + 1] -= v
    return _trimmed(out)


def _strip_one_minus_z(coeffs: list[int]) -> list[int]:
    """Divide by 1 - z: partial sums, trailing zeros dropped."""
    return _trimmed(list(accumulate(coeffs[:-1])))


def _trimmed(coeffs: list[int]) -> list[int]:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return coeffs[:n]


def measure(gb: GroebnerBasis) -> IdealMeasure:
    """Dimension and degree read off the leading-term ideal."""
    if gb.is_unit:
        return IdealMeasure(-1, 0)
    series = _series(gb.leading_monomials())
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


def intersect(one: GroebnerBasis, two: GroebnerBasis) -> GroebnerBasis:
    """Intersection of two homogeneous ideals, degree by degree.  K, the
    ideal of the pieces found so far, grows by one engine step per degree
    D, and where K_D falls short of the dimension of (I n J)_D the step
    also gets I_D n J_D, met by one Zassenhaus reduction of [I_D I_D; J_D 0]
    (each piece spanned by one shifted basis element per divisible
    monomial).  K lies in I n J, so it is I n J once R/K has the Hilbert
    series of R/(I n J), HS(R/I) + HS(R/J) - HS(R/(I+J)) by the exact
    sequence; the leading monomials so far are then a Groebner basis, and
    the pairs left reduce to zero."""
    ring, p = one.ring, one.ring.prime
    if two.ring != ring:
        raise ValueError("ideals live in different rings")
    both = GroebnerBasis(ring).grow(_by_degree(zip(one.deg + two.deg, one.rows + two.rows)))
    target = _trimmed([a + b - c for a, b, c in zip_longest(
        _series(one.lms), _series(two.lms), _series(both.lms), fillvalue=0)])
    meet = GroebnerBasis(ring)
    d = max(min(one.deg, default=0), min(two.deg, default=0))
    while _series(meet.lms) != target:
        n, have = comb(d + 2, 2), meet.divisors(d) >= 0
        rows = np.zeros((0, n), dtype=np.int64)
        # K_d holds at least one row per monomial of ``have``, and I_d is
        # K_d plus the rows of I_d leading elsewhere, so (I n J)_d is K_d
        # plus their meet with J_d: reduce that where K_d is short of
        # dim (I n J)_d = n - dim (R/(I n J))_d
        if np.count_nonzero(have) < n - sum(
                c * comb(d - i + 2, 2) for i, c in enumerate(target[:d + 1])):
            u, v = one.span(d, ~have), two.span(d)
            red, pivots = _rref(np.block([[u, u], [v, np.zeros_like(v)]]), p)
            rows = red[[r for r, c in enumerate(pivots) if c >= n], n:]
        meet.step(d, rows)
        d += 1
    meet.pairs = []
    return meet


def _moved(d: int, row: np.ndarray, perm: list[int], low: int = 0) -> tuple[int, np.ndarray]:
    """The degree-d form ``row`` divided by l3^low, with variable perm[k]
    renamed l_k: a row over R_(d - low)."""
    nz = np.flatnonzero(row)
    out = np.zeros(comb(d - low + 2, 2), dtype=np.int64)
    out[_pos(d - low, (_table(d)[0][nz] - [0, 0, low])[:, perm])] = row[nz]
    return d - low, out


def _variable_saturations(gb: GroebnerBasis) -> list[GroebnerBasis]:
    """The bases of I : l_v^infinity, v = 1, 2, 3, for the ideal I of gb.

    In grevlex with l_v last, l_v divides a homogeneous form exactly when
    it divides its leading monomial, so dividing each element of a basis
    in that order by its largest power of l_v gives a basis of
    I : l_v^infinity (Bayer-Stillman); it is then grown in the ring's
    order.  Their intersection is the saturation I^sat = I : m^infinity,
    m = (l1, l2, l3): if f m^k lies in I then so does f l_v^k for each v,
    and if f l_v^k lies in I for each v then so does f m^(3k-2), as every
    monomial of degree 3k - 2 has some exponent at least k.  So g lies in
    I^sat exactly when it lies in all three bases; no intersection is
    needed to test that."""
    out = []
    for v in range(3):
        perm = [i for i in range(3) if i != v] + [v]
        back = [perm.index(i) for i in range(3)]
        last = gb if v == 2 else GroebnerBasis(gb.ring).grow(
            _by_degree(_moved(d, row, perm) for d, row in zip(gb.deg, gb.rows)))
        out.append(GroebnerBasis(gb.ring).grow(_by_degree(
            _moved(d, row, back, int(_table(d)[0][np.flatnonzero(row), 2].min()))
            for d, row in zip(last.deg, last.rows))))
    return out


def saturate(gb: GroebnerBasis) -> GroebnerBasis:
    """Saturation with respect to the irrelevant ideal (l1, l2, l3): the
    intersection of the three bases of ``_variable_saturations``."""
    parts = _variable_saturations(gb)
    result = parts[0]
    for part in parts[1:]:
        if not same_ideal(part, result):  # a component clings to this coordinate line
            result = intersect(result, part)
    return result
