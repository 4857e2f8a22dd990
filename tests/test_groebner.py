from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Polynomial,
    _elim1_key,
    _normal_form,
    basis_of,
    by_degree,
    colon,
    contains,
    dict_buchberger,
    elimination_intersect,
    evaluate,
    minor_basis,
    minor_forms,
    multiply,
    naive_groebner_leading_terms,
    normal_form,
    rational_points_0dim,
    rows,
    sample_locus_points,
    series_numpy,
    variable,
)
from lefschetz_locus import field_linalg, groebner, rand
from lefschetz_locus.groebner import (
    GroebnerBasis,
    _variable_saturations,
    buchberger,
    grevlex_key,
    intersect,
    measure,
    same_ideal,
    saturate,
)
from lefschetz_locus.polyring import Ring, monomial_basis

S = Ring(dual=True)
P = S.prime

L1 = variable(S, 0)
L2 = variable(S, 1)
L3 = variable(S, 2)


def _fixture_middle_ideal(a=(2, 2, 3), b=(0,), seed=1, prime=P):
    from lefschetz_locus.lefschetz import dual_ring
    from lefschetz_locus.presentation import DegreeData, generic_module

    m = generic_module(DegreeData(a, b), seed, prime)
    return minor_forms(m, m.degrees.middle_degree), dual_ring(m)


def test_single_generator_is_its_own_basis():
    gb = basis_of([L1])
    assert gb.basis == (L1,)


def test_unit_ideal():
    gb = basis_of([Polynomial.constant(S, 5)])
    assert gb.is_unit
    assert gb.basis == (Polynomial.constant(S, 1),)


def test_two_monomial_generators_match_naive_oracle():
    gens = [multiply(L1, L2), multiply(L1, L3)]
    gb = basis_of(gens)
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
    gb = basis_of(gens)
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
    from lefschetz_locus.lefschetz import dual_ring
    from lefschetz_locus.presentation import DegreeData, generic_module

    m = generic_module(DegreeData(a, b), 1)
    gens = minor_forms(m, m.degrees.middle_degree if i is None else i)
    gb = basis_of(gens, dual_ring(m))
    basis = list(gb.basis)
    for r in range(len(basis)):
        for s in range(r + 1, len(basis)):
            assert normal_form(gb, _spoly(basis[r], basis[s])).is_zero()
    for g in gens:
        assert contains(gb, g)


def test_reduced_basis_is_actually_reduced():
    gens, ring = _fixture_middle_ideal(seed=2)
    gb = basis_of(gens, ring)
    lms = gb.leading_monomials()
    for i, f in enumerate(gb.basis):
        others = [lm for j, lm in enumerate(lms) if j != i]
        for mono in f.terms:
            assert not any(all(x >= y for x, y in zip(mono, lm)) for lm in others)


def test_measure_line():
    m = measure(basis_of([L1]))
    assert (m.dim_projective, m.degree) == (1, 1)
    assert m.codim == 1


def test_measure_point():
    m = measure(basis_of([L1, L2]))
    assert (m.dim_projective, m.degree) == (0, 1)


def test_measure_empty_and_whole_plane():
    assert measure(basis_of([Polynomial.constant(S, 1)])).dim_projective == -1
    assert measure(basis_of([L1, L2, L3])).dim_projective == -1
    whole = measure(basis_of([], S))
    assert (whole.dim_projective, whole.degree) == (2, 1)


def test_measure_fixture_223_is_six_points():
    gens, ring = _fixture_middle_ideal()
    m = measure(basis_of(gens, ring))
    assert (m.dim_projective, m.degree) == (0, 6)


@settings(max_examples=200, deadline=None)
@given(lms=st.lists(st.tuples(*[st.integers(0, 6)] * 3), max_size=9))
def test_series_matches_array_staircase(lms):
    # the plain-Python staircase against the array version it replaced,
    # duplicates and non-minimal generators included
    assert groebner._series(lms) == series_numpy(lms)


def test_series_of_one_monomial_and_of_none():
    # R/(l1^2 l3) has numerator 1 - t^3; R itself has 1
    assert groebner._series([(2, 0, 1)]) == [1, 0, 0, -1]
    assert groebner._series([]) == [1]


def _lex_key(m):
    return m


def _measure_leading_terms(gens, key, ring):
    # measure of the initial monomial ideal under ``key``; for a homogeneous
    # ideal it has the ideal's Hilbert function whatever the order
    raw = dict_buchberger([g.terms for g in gens], key, ring.prime)
    return measure(basis_of([Polynomial(ring, {max(f, key=key): 1}) for f in raw], ring))


@pytest.mark.parametrize("a,b", [((2, 2, 3), (0,)), ((2, 2, 2), (0,)), ((1, 1, 1, 2), (0, 0))])
def test_measure_is_order_independent(a, b):
    gens, ring = _fixture_middle_ideal(a, b)
    m1 = measure(basis_of(gens, ring))
    m2 = _measure_leading_terms(gens, _lex_key, ring)
    assert (m1.dim_projective, m1.degree) == (m2.dim_projective, m2.degree)


@settings(max_examples=25, deadline=None)
@given(a=st.lists(st.integers(1, 3), min_size=3, max_size=3), seed=st.integers(1, 1000))
def test_grevlex_measure_matches_lex_leading_terms(a, seed):
    # n = 1 twist data: the middle minor ideal measured from its grevlex
    # basis and from its lex initial ideal
    gens, ring = _fixture_middle_ideal(tuple(sorted(a)), (0,), seed)
    m1 = measure(basis_of(gens, ring))
    m2 = _measure_leading_terms(gens, _lex_key, ring)
    assert (m1.dim_projective, m1.degree) == (m2.dim_projective, m2.degree)


def test_degree_matches_eliminant_degree_on_points():
    # an independent route to the degree of a finite locus: saturate, project
    # out the first variable, and read the degree of the binary eliminant
    gens, ring = _fixture_middle_ideal(seed=3)
    gb = saturate(basis_of(gens, ring))
    elim = dict_buchberger([f.terms for f in gb.basis], _elim1_key, ring.prime)
    free = [f for f in elim if all(m[0] == 0 for m in f)]
    assert free, "projection ideal is zero"
    eliminant = Polynomial(ring, min(free, key=lambda f: max(sum(m) for m in f)))
    measured = measure(basis_of(list(gb.basis), ring))
    assert eliminant.degree() == measured.degree == 6


_PRIMES = (13, P, 2**31 - 1)


@st.composite
def _homogeneous_gens(draw, p, kinds=("form",) * 8 + ("zero", "unit"), top=4):
    # homogeneous generators of mixed degrees, now and then a zero or a unit
    # one, with the variables permuted as ``_saturate_variable`` does
    perm = draw(st.permutations(range(3)))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        if kind != "form":
            gens.append({(0, 0, 0): draw(st.integers(1, p - 1))} if kind == "unit" else {})
            continue
        monos = draw(st.lists(st.sampled_from(monomial_basis(draw(st.integers(1, top))).monomials),
                              min_size=1, max_size=4, unique=True))
        gens.append({tuple(m[v] for v in perm): draw(st.integers(1, p - 1)) for m in monos})
    return gens


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from(_PRIMES))
def test_batched_engine_matches_dict_oracle(data, p):
    # the basis, and what ``measure`` and ``contains`` read off its rows
    ring = Ring(prime=p, dual=True)
    gens = data.draw(_homogeneous_gens(p))
    gb = basis_of([Polynomial(ring, g) for g in gens], ring)
    want = dict_buchberger(gens, grevlex_key, p)
    assert [f.terms for f in gb.basis] == want
    lms = [max(f, key=grevlex_key) for f in want]
    assert gb.leading_monomials() == lms
    assert gb.is_unit == any(sum(m) == 0 for f in want for m in f)
    form = data.draw(_homogeneous_gens(p, ("form",)))[0]
    assert normal_form(gb, Polynomial(ring, form)).terms == _normal_form(
        form, list(zip(lms, want)), grevlex_key, p)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), p=st.sampled_from(_PRIMES))
def test_normal_forms_of_one_degree_match_dict_oracle_across_growth(data, p):
    # many forms of one degree: the first eliminates that degree's span and
    # the rest reuse it; one more generator grown into the basis must not
    # leave the old span in use
    ring = Ring(prime=p, dual=True)
    gens = data.draw(_homogeneous_gens(p, ("form",)))
    gb = basis_of([Polynomial(ring, g) for g in gens], ring)
    d = data.draw(st.integers(1, 6))
    monos = monomial_basis(d).monomials
    coef = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
    for more in ([], data.draw(_homogeneous_gens(p, ("form",)))[:1]):
        if more:
            gb.grow(by_degree([Polynomial(ring, more[0])]))
            gens = gens + more
        want = dict_buchberger(gens, grevlex_key, p)
        basis = [(max(f, key=grevlex_key), f) for f in want]
        for _ in range(5):
            form = {m: c for m, c in zip(monos, data.draw(
                st.lists(coef, min_size=len(monos), max_size=len(monos)))) if c}
            assert normal_form(gb, Polynomial(ring, form)).terms == _normal_form(
                form, basis, grevlex_key, p)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), p=st.sampled_from(_PRIMES))
def test_intersect_matches_elimination_oracle(data, p):
    ring = Ring(prime=p, dual=True)
    left, right = (data.draw(_homogeneous_gens(p, ("form",), top=3)) for _ in range(2))
    meet = intersect(*(basis_of([Polynomial(ring, f) for f in gens], ring)
                       for gens in (left, right)))
    assert meet.basis == tuple(Polynomial(ring, f) for f in elimination_intersect(left, right, p))


def test_buchberger_takes_rows_by_degree_and_leaves_them():
    # the engine's own API: coefficient rows by degree in, rows of one
    # degree to ``normal_form`` and ``contains``; the caller's dict stays
    gens = [multiply(L1, L2), multiply(L1, L3), multiply(L2, multiply(L2, L3))]
    forms = by_degree(gens)
    kept = {d: r.copy() for d, r in forms.items()}
    gb = buchberger(S, forms)
    assert sorted(forms) == sorted(kept) == [2, 3]
    assert all((forms[d] == kept[d]).all() for d in kept)
    assert gb.basis == basis_of(gens).basis
    assert buchberger(S, {0: np.ones((1, 1), dtype=np.int64)}).is_unit
    assert not buchberger(S, {3: np.zeros((0, 10), dtype=np.int64)}).lms
    # l1 l2 l3 lies in the ideal and l3^3 reduces to itself
    cubes = rows([multiply(L1, multiply(L2, L3)), multiply(L3, multiply(L3, L3))], 3)
    remainders = gb.normal_form(3, cubes)
    assert not remainders[0].any() and (remainders[1] == cubes[1]).all()
    assert gb.contains(3, cubes[:1]) and not gb.contains(3, cubes)


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
    gb = basis_of(gens, ring)
    assert (s, len(gb.basis)) == (9, 10)
    assert len(shapes) <= 3, shapes
    assert max(cols for _, cols in shapes) <= comb(s + 3, 2), shapes


def test_intersect_with_unit_is_identity():
    gens, ring = _fixture_middle_ideal()
    gb = basis_of(gens, ring)
    unit = basis_of([Polynomial.constant(ring, 1)], ring)
    assert same_ideal(intersect(gb, unit), gb)


def test_intersect_self_is_identity():
    gb = basis_of([L1 + L2, multiply(L2, L3)])
    assert same_ideal(intersect(gb, gb), gb)


def test_intersect_principal_ideals():
    meet = intersect(basis_of([L1]), basis_of([L2]))
    assert meet.basis == (multiply(L1, L2),)


def test_intersect_membership_both_ways():
    f = L1 + 2 * L2
    g = multiply(L2, L3) + multiply(L1, L1)
    gb_f, gb_g = basis_of([f]), basis_of([g])
    meet = intersect(gb_f, gb_g)
    for h in meet.basis:
        assert contains(gb_f, h) and contains(gb_g, h)
    assert contains(meet, multiply(f, g))


def test_colon_divides_out():
    ideal = basis_of([multiply(L1, L1), multiply(L1, L2)])
    quo = colon(ideal, L1)
    assert same_ideal(quo, basis_of([L1, L2]))


def test_saturate_strips_irrelevant_power():
    gens = [multiply(L1, L1), multiply(L1, L2), multiply(L1, L3)]
    sat = saturate(basis_of(gens))
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


_COLON_FIXTURES = [
    [lambda: multiply(L1, L1), lambda: multiply(L1, L2), lambda: multiply(L1, L3)],
    [lambda: multiply(L1, L2)],
    [lambda: multiply(L1 + L2, L3), lambda: multiply(L1, L1)],
]


@pytest.mark.parametrize("gens", _COLON_FIXTURES)
def test_saturate_matches_iterated_colon_oracle(gens):
    ideal = basis_of([g() for g in gens])
    assert same_ideal(saturate(ideal), _saturate_by_iterated_colon(ideal))


@pytest.mark.parametrize("gens", _COLON_FIXTURES)
def test_variable_saturations_decide_iterated_colon_membership(gens):
    # a form lies in the saturation exactly when it lies in all three
    # I : l_v^infinity: every monomial up to degree 3, and every element of
    # the oracle's basis and of the three bases
    ideal = basis_of([g() for g in gens])
    sats, oracle = _variable_saturations(ideal), _saturate_by_iterated_colon(ideal)
    forms = [Polynomial(S, {m: 1}) for d in range(4) for m in monomial_basis(d).monomials]
    for g in forms + list(oracle.basis) + [h for sat in sats for h in sat.basis]:
        assert all(contains(sat, g) for sat in sats) == contains(oracle, g), g


@settings(max_examples=25, deadline=None)
@given(data=st.data(), p=st.sampled_from(_PRIMES))
def test_variable_saturations_decide_saturation_membership(data, p):
    ring = Ring(prime=p, dual=True)
    ideal = basis_of([Polynomial(ring, f) for f in data.draw(
        _homogeneous_gens(p, ("form",), top=3))], ring=ring)
    sats, sat = _variable_saturations(ideal), saturate(ideal)
    forms = [Polynomial(ring, f) for f in data.draw(_homogeneous_gens(p, ("form",), top=3))]
    for g in forms + list(sat.basis) + [h for part in sats for h in part.basis]:
        assert all(contains(part, g) for part in sats) == contains(sat, g), g


def test_saturate_monomial_fixture_matches_oracle():
    from lefschetz_locus.presentation import DegreeData, GradedModule, presentation_from_strings

    pres = presentation_from_strings(DegreeData((3, 4, 4), (0,)),
                                     [["x1^3", "x2^4", "x3^4"]])
    gb = minor_basis(GradedModule.build(pres), 3)
    assert same_ideal(saturate(gb), _saturate_by_iterated_colon(gb))


def test_old_pair_criterion_prunes_saturation_rows(monkeypatch):
    # the degree-3 minor ideal of the monomial (3,4,4) row needs pairs in
    # several degrees under the variable saturations; pruning old pairs
    # whose lcm a new leading monomial divides keeps the reductions to 280
    # rows, where the engine without that criterion hands 283 to ``_rref``
    from lefschetz_locus.presentation import DegreeData, GradedModule, presentation_from_strings

    pres = presentation_from_strings(DegreeData((3, 4, 4), (0,)),
                                     [["x1^3", "x2^4", "x3^4"]])
    gb = minor_basis(GradedModule.build(pres), 3)
    rows = []

    def counted(a, p):
        rows.append(a.shape[0])
        return field_linalg._rref(a, p)

    monkeypatch.setattr(groebner, "_rref", counted)
    saturate(gb)
    assert sum(rows) <= 280, rows


def test_saturate_unit_and_idempotence():
    unit = basis_of([Polynomial.constant(S, 1)])
    assert saturate(unit).is_unit
    prin = basis_of([L1 + L2])
    assert same_ideal(saturate(prin), prin)
    gens = [multiply(L1, L1), multiply(L1, L2), multiply(L1, L3)]
    once = saturate(basis_of(gens))
    assert same_ideal(saturate(once), once)


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_rational_points_match_brute_force_small_prime(seed):
    prime = 101
    gens, ring = _fixture_middle_ideal(seed=seed, prime=prime)
    pts = rational_points_0dim(basis_of(gens, ring))
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
    curve = basis_of([multiply(L1, L2) - multiply(L3, L3)])
    assert rational_points_0dim(curve) is None


def test_sample_locus_points_land_on_curve():
    gens = [multiply(L1, L2) - multiply(L3, L3)]
    pts = sample_locus_points(gens, seed=4)
    assert pts
    for pt in pts:
        assert evaluate(gens[0], pt) == 0
