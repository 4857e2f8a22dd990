from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    colon,
    dict_buchberger,
    evaluate,
    naive_groebner_leading_terms,
    rational_points_0dim,
    sample_locus_points,
)
from lefschetz_locus import field_linalg, groebner, rand
from lefschetz_locus.groebner import (
    GroebnerBasis,
    _buchberger_raw,
    _elim1_key,
    buchberger,
    grevlex_key,
    intersect,
    measure,
    same_ideal,
    saturate,
)
from lefschetz_locus.polyring import Polynomial, Ring, monomial_basis, multiply

S = Ring(dual=True)
P = S.prime

L1 = Polynomial.variable(S, 0)
L2 = Polynomial.variable(S, 1)
L3 = Polynomial.variable(S, 2)


def _fixture_middle_ideal(a=(2, 2, 3), b=(0,), seed=1, prime=P):
    from lefschetz_locus.lefschetz import dual_ring, locus_ideal_at
    from lefschetz_locus.presentation import DegreeData, generic_module

    m = generic_module(DegreeData(a, b), seed, prime)
    li = locus_ideal_at(m, m.degrees.middle_degree)
    return list(li.gens), dual_ring(m)


def test_single_generator_is_its_own_basis():
    gb = buchberger([L1])
    assert gb.basis == (L1,)


def test_unit_ideal():
    gb = buchberger([Polynomial.constant(S, 5)])
    assert gb.is_unit
    assert gb.basis == (Polynomial.constant(S, 1),)


def test_two_monomial_generators_match_naive_oracle():
    gens = [multiply(L1, L2), multiply(L1, L3)]
    gb = buchberger(gens)
    want = naive_groebner_leading_terms([g.terms for g in gens], P)
    got = set(gb.leading_monomials())
    assert got == want


def _deglex_leading_terms(gens: list[Polynomial]) -> set[tuple]:
    def deglex(m):
        return (sum(m), m)

    return {max(f, key=deglex) for f in dict_buchberger([g.terms for g in gens], deglex, P)}


@pytest.mark.parametrize("seed", [*range(5), "cubic"])
def test_random_small_ideals_match_naive_oracle(seed):
    if seed == "cubic":
        # l1*l3^2 leads in deg-lex, l2^3 in grevlex: the orders part ways
        gens = [multiply(L1, multiply(L3, L3)) + multiply(L2, multiply(L2, L2)),
                multiply(L1, multiply(L1, L2)) + multiply(L3, multiply(L3, L3))]
    else:
        stream = rand.Stream(7000 + seed)
        gens = []
        for k in range(2 + seed % 2):
            deg = 1 + (seed + k) % 2
            gens.append(Polynomial(S, {m: stream.below(P)
                                       for m in monomial_basis(deg).monomials
                                       if stream.below(3)}))
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            pytest.skip("empty draw")
    gb = buchberger(gens)
    want = naive_groebner_leading_terms([g.terms for g in gens], P)
    assert set(gb.leading_monomials()) == want
    if seed == "cubic":
        assert _deglex_leading_terms(gens) != want


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    lf = max(f.terms, key=grevlex_key)
    lg = max(g.terms, key=grevlex_key)
    lcm = tuple(max(x, y) for x, y in zip(lf, lg))
    ring = f.ring
    mf = Polynomial(ring, {tuple(x - y for x, y in zip(lcm, lf)): pow(f.terms[lf], P - 2, P)})
    mg = Polynomial(ring, {tuple(x - y for x, y in zip(lcm, lg)): pow(g.terms[lg], P - 2, P)})
    return multiply(mf, f) - multiply(mg, g)


@pytest.mark.parametrize("a,b,i", [((2, 2, 3), (0,), None), ((2, 2, 2), (0,), None),
                                   ((2, 2, 2, 3), (0, 1), 1)])
def test_buchberger_criterion_on_fixture_ideals(a, b, i):
    from lefschetz_locus.lefschetz import dual_ring, locus_ideal_at
    from lefschetz_locus.presentation import DegreeData, generic_module

    m = generic_module(DegreeData(a, b), 1)
    degree = m.degrees.middle_degree if i is None else i
    gens = list(locus_ideal_at(m, degree).gens)
    ring = dual_ring(m)
    gb = buchberger(gens, ring=ring)
    basis = list(gb.basis)
    for r in range(len(basis)):
        for s in range(r + 1, len(basis)):
            assert gb.normal_form(_spoly(basis[r], basis[s])).is_zero()
    for g in gens:
        assert gb.contains(g)


def test_reduced_basis_is_actually_reduced():
    gens, ring = _fixture_middle_ideal(seed=2)
    gb = buchberger(gens, ring=ring)
    lms = gb.leading_monomials()
    for i, f in enumerate(gb.basis):
        others = [lm for j, lm in enumerate(lms) if j != i]
        for mono in f.terms:
            assert not any(all(x >= y for x, y in zip(mono, lm)) for lm in others)


def test_measure_line():
    m = measure(buchberger([L1]))
    assert (m.dim_projective, m.degree) == (1, 1)
    assert m.codim == 1


def test_measure_point():
    m = measure(buchberger([L1, L2]))
    assert (m.dim_projective, m.degree) == (0, 1)


def test_measure_empty_and_whole_plane():
    assert measure(buchberger([Polynomial.constant(S, 1)])).dim_projective == -1
    assert measure(buchberger([L1, L2, L3])).dim_projective == -1
    whole = measure(buchberger([], ring=S))
    assert (whole.dim_projective, whole.degree) == (2, 1)


def test_measure_fixture_223_is_six_points():
    gens, ring = _fixture_middle_ideal()
    m = measure(buchberger(gens, ring=ring))
    assert (m.dim_projective, m.degree) == (0, 6)


def _lex_key(m):
    return m


def _measure_leading_terms(gens, key, ring):
    # measure of the initial monomial ideal under ``key``; for a homogeneous
    # ideal it has the ideal's Hilbert function whatever the order
    raw = dict_buchberger([g.terms for g in gens], key, ring.prime)
    leading = [Polynomial(ring, {max(f, key=key): 1}) for f in raw]
    return measure(GroebnerBasis(ring, tuple(leading)))


@pytest.mark.parametrize("a,b", [((2, 2, 3), (0,)), ((2, 2, 2), (0,)), ((1, 1, 1, 2), (0, 0))])
def test_measure_is_order_independent(a, b):
    gens, ring = _fixture_middle_ideal(a, b)
    m1 = measure(buchberger(gens, ring=ring))
    m2 = _measure_leading_terms(gens, _lex_key, ring)
    assert (m1.dim_projective, m1.degree) == (m2.dim_projective, m2.degree)


@settings(max_examples=25, deadline=None)
@given(a=st.lists(st.integers(1, 3), min_size=3, max_size=3), seed=st.integers(1, 1000))
def test_grevlex_measure_matches_lex_leading_terms(a, seed):
    # n = 1 twist data: the middle minor ideal measured from its grevlex
    # basis and from its lex initial ideal
    gens, ring = _fixture_middle_ideal(tuple(sorted(a)), (0,), seed)
    m1 = measure(buchberger(gens, ring=ring))
    m2 = _measure_leading_terms(gens, _lex_key, ring)
    assert (m1.dim_projective, m1.degree) == (m2.dim_projective, m2.degree)


def test_degree_matches_eliminant_degree_on_points():
    # an independent route to the degree of a finite locus: saturate, project
    # out the first variable, and read the degree of the binary eliminant
    gens, ring = _fixture_middle_ideal(seed=3)
    gb = saturate(buchberger(gens, ring=ring))
    elim = dict_buchberger([f.terms for f in gb.basis], _elim1_key, ring.prime)
    free = [f for f in elim if all(m[0] == 0 for m in f)]
    assert free, "projection ideal is zero"
    eliminant = Polynomial(ring, min(free, key=lambda f: max(sum(m) for m in f)))
    measured = measure(buchberger(list(gb.basis), ring=ring))
    assert eliminant.degree() == measured.degree == 6


_ORDERS = {"grevlex": grevlex_key, "lex": _lex_key, "deglex": lambda m: (sum(m), m)}
_SMALL_MONOS = [m for d in range(5) for m in monomial_basis(d).monomials]
_raw_polys = st.dictionaries(st.sampled_from(_SMALL_MONOS), st.integers(1, P - 1),
                             min_size=1, max_size=4)


@settings(max_examples=25, deadline=None)
@given(gens=st.lists(_raw_polys, min_size=1, max_size=4),
       order=st.sampled_from([*_ORDERS, "intersect"]))
def test_batched_engine_matches_dict_oracle(gens, order):
    # random ideals, inhomogeneous under the graded orders.  Under lex and
    # the elimination order, where an inhomogeneous ideal can keep either
    # engine busy for many seconds, each generator keeps its top-degree
    # part: the inputs the package sends.  "intersect" is the lift that
    # ``intersect`` eliminates under ``_elim1_key``: t*I + (1 - t)*J
    key = _ORDERS.get(order, _elim1_key)
    if order in ("lex", "intersect"):
        gens = [{m: c for m, c in f.items() if sum(m) == max(map(sum, f))} for f in gens]
    if order == "intersect":
        half = (len(gens) + 1) // 2
        left, right = gens[:half], gens[half:] or gens
        gens = [{(1,) + m: c for m, c in f.items()} for f in left]
        for g in right:
            lifted = {(0,) + m: c for m, c in g.items()}
            lifted.update({(1,) + m: P - c for m, c in g.items()})
            gens.append(lifted)
    assert _buchberger_raw(gens, key, P) == dict_buchberger(gens, key, P)


def test_middle_basis_takes_three_narrow_reductions(monkeypatch):
    # after the chain criterion only the s adjacent pairs of the (s+1) x s
    # Hilbert-Burch minors remain, all in degree s + 1: one reduction of the
    # minors, one of the pairs, one final interreduction
    gens, ring = _fixture_middle_ideal((3, 4, 4), (0,), seed=1)
    s = gens[0].degree()
    shapes = []

    def counted(a, p):
        shapes.append(a.shape)
        return field_linalg._rref(a, p)

    monkeypatch.setattr(groebner, "_rref", counted)
    gb = buchberger(gens, ring=ring)
    assert (s, len(gb.basis)) == (9, 10)
    assert len(shapes) <= 3, shapes
    assert max(cols for _, cols in shapes) <= comb(s + 3, 2), shapes


def test_intersect_with_unit_is_identity():
    gens, ring = _fixture_middle_ideal()
    gb = buchberger(gens, ring=ring)
    unit = buchberger([Polynomial.constant(ring, 1)], ring=ring)
    assert same_ideal(intersect(gb, unit), gb)


def test_intersect_self_is_identity():
    gb = buchberger([L1 + L2, multiply(L2, L3)])
    assert same_ideal(intersect(gb, gb), gb)


def test_intersect_principal_ideals():
    meet = intersect([L1], [L2])
    assert meet.basis == (multiply(L1, L2),)


def test_intersect_membership_both_ways():
    f = L1 + 2 * L2
    g = multiply(L2, L3) + multiply(L1, L1)
    gb_f, gb_g = buchberger([f]), buchberger([g])
    meet = intersect(gb_f, gb_g)
    for h in meet.basis:
        assert gb_f.contains(h) and gb_g.contains(h)
    assert meet.contains(multiply(f, g))


def test_colon_divides_out():
    ideal = buchberger([multiply(L1, L1), multiply(L1, L2)])
    quo = colon(ideal, L1)
    assert same_ideal(quo, buchberger([L1, L2]))


def test_saturate_strips_irrelevant_power():
    gens = [multiply(L1, L1), multiply(L1, L2), multiply(L1, L3)]
    sat = saturate(gens)
    assert sat.basis == (L1,)


def _saturate_by_iterated_colon(gb: GroebnerBasis) -> GroebnerBasis:
    # the straightforward mechanism, kept as an oracle: colon by each
    # variable, intersect, repeat until stable
    current = gb
    while True:
        parts = [colon(current, v) for v in (L1, L2, L3)]
        step = intersect(intersect(parts[0], parts[1]), parts[2])
        if same_ideal(step, current):
            return current
        current = step


@pytest.mark.parametrize("gens", [
    [lambda: multiply(L1, L1), lambda: multiply(L1, L2), lambda: multiply(L1, L3)],
    [lambda: multiply(L1, L2)],
    [lambda: multiply(L1 + L2, L3), lambda: multiply(L1, L1)],
])
def test_saturate_matches_iterated_colon_oracle(gens):
    ideal = buchberger([g() for g in gens])
    assert same_ideal(saturate(ideal), _saturate_by_iterated_colon(ideal))


def test_saturate_monomial_fixture_matches_oracle():
    from lefschetz_locus.lefschetz import dual_ring, locus_ideal_at
    from lefschetz_locus.presentation import DegreeData, GradedModule, presentation_from_strings

    pres = presentation_from_strings(DegreeData((3, 4, 4), (0,)),
                                     [["x1^3", "x2^4", "x3^4"]])
    m = GradedModule.build(pres)
    gb = buchberger(list(locus_ideal_at(m, 3).gens), ring=dual_ring(m))
    assert same_ideal(saturate(gb), _saturate_by_iterated_colon(gb))


def test_old_pair_criterion_prunes_saturation_rows(monkeypatch):
    # the degree-3 minor ideal of the monomial (3,4,4) row needs pairs in
    # several degrees under the variable saturations; pruning old pairs
    # whose lcm a new leading monomial divides keeps the reductions to 280
    # rows, where the engine without that criterion hands 283 to ``_rref``
    from lefschetz_locus.lefschetz import dual_ring, locus_ideal_at
    from lefschetz_locus.presentation import DegreeData, GradedModule, presentation_from_strings

    pres = presentation_from_strings(DegreeData((3, 4, 4), (0,)),
                                     [["x1^3", "x2^4", "x3^4"]])
    m = GradedModule.build(pres)
    gb = buchberger(list(locus_ideal_at(m, 3).gens), ring=dual_ring(m))
    rows = []

    def counted(a, p):
        rows.append(a.shape[0])
        return field_linalg._rref(a, p)

    monkeypatch.setattr(groebner, "_rref", counted)
    saturate(gb)
    assert sum(rows) <= 280, rows


def test_saturate_unit_and_idempotence():
    unit = buchberger([Polynomial.constant(S, 1)])
    assert saturate(unit).is_unit
    prin = buchberger([L1 + L2])
    assert same_ideal(saturate(prin), prin)
    gens = [multiply(L1, L1), multiply(L1, L2), multiply(L1, L3)]
    once = saturate(gens)
    assert same_ideal(saturate(once), once)


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_rational_points_match_brute_force_small_prime(seed):
    prime = 101
    gens, ring = _fixture_middle_ideal(seed=seed, prime=prime)
    pts = rational_points_0dim(buchberger(gens, ring=ring))
    assert pts is not None

    def vanish(pt):
        return all(evaluate(g, pt) == 0 for g in gens)

    brute = []
    for x in range(prime):
        for y in range(prime):
            if vanish((x, y, 1)):
                brute.append((x, y, 1))
    for x in range(prime):
        if vanish((x, 1, 0)):
            brute.append((x, 1, 0))
    if vanish((1, 0, 0)):
        brute.append((1, 0, 0))
    assert sorted(pts) == sorted(brute)


def test_rational_points_against_curve_returns_none():
    # a curve has positive dimension; the 0-dimensional extractor must say so
    curve = buchberger([multiply(L1, L2) - multiply(L3, L3)])
    assert rational_points_0dim(curve) is None


def test_sample_locus_points_land_on_curve():
    gens = [multiply(L1, L2) - multiply(L3, L3)]
    pts = sample_locus_points(gens, seed=4)
    assert pts
    for pt in pts:
        assert evaluate(gens[0], pt) == 0
