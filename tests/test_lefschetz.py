import json
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import det_mod, specialize
from lefschetz_locus import cli, rand
from lefschetz_locus.groebner import buchberger, intersect, measure, same_ideal, saturate
from lefschetz_locus.lefschetz import (
    ZeroLineError,
    dual_ring,
    find_lefschetz_line,
    is_lefschetz,
    locus_ideal,
    locus_ideal_at,
    random_line,
)
from lefschetz_locus.polyring import Polynomial, Ring, monomial_basis
from lefschetz_locus.presentation import DegreeData, generic_module

R = Ring()


def _module(a, b, seed=1):
    return generic_module(DegreeData(a, b), seed)


def _basis(m, i):
    return buchberger(list(locus_ideal_at(m, i).gens), ring=dual_ring(m))


def test_specialization_at_coordinate_lines_and_random_lines():
    m = _module((2, 2, 3), (0,), seed=4)
    stream = rand.Stream(99)
    for i in (0, 1, 2, 3):
        coords_list = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        coords_list += [random_line(m.prime, stream) for _ in range(10)]
        for coords in coords_list:
            ell = Polynomial.linear_form(R, coords)
            direct = m.multiplication_map(ell, i)
            assert specialize(m, i, coords) == direct


def test_minors_of_223_middle_are_four_cubics():
    m = _module((2, 2, 3), (0,))
    li = locus_ideal_at(m, 1)
    assert li.source_degrees == (1,)
    assert len(li.gens) == 4
    assert all(g.homogeneous_degree() == 3 for g in li.gens)


def test_minors_of_222_middle_is_one_cubic_determinant():
    m = _module((2, 2, 2), (0,))
    li = locus_ideal_at(m, 1)
    assert len(li.gens) == 1
    assert li.gens[0].homogeneous_degree() == 3


def _cofactor_minors(m, i, coords):
    """Every maximal minor of the specialized degree-i matrix by cofactor
    expansion, over subsets of the taller side in lexicographic order."""
    a = specialize(m, i, coords).a
    if a.shape[0] < a.shape[1]:
        a = a.T
    size = a.shape[1]
    return [det_mod([[int(x) for x in a[r]] for r in rows], m.prime)
            for rows in combinations(range(a.shape[0]), size)]


@pytest.mark.parametrize("a,i,shape,count,prime", [
    ((2, 2, 3), 1, (4, 3), 4, 65521),
    ((2, 2, 3), 2, (3, 4), 4, 65521),
    ((2, 2, 2), 1, (3, 3), 1, 65521),
    ((3, 4, 4), 5, (6, 9), 84, 65521),
    ((3, 4, 4), 5, (6, 9), 84, 2**31 - 1),  # residue products near 2^62
], ids=["tall", "wide", "square", "many", "many-largest-prime"])
def test_minor_values_match_independent_determinant(a, i, shape, count, prime):
    # evaluate each interpolated minor at seeded lines (not lattice points)
    # and compare with a cofactor determinant of the specialized submatrix
    m = generic_module(DegreeData(a, (0,)), 6, prime)
    assert (m.h(i + 1), m.h(i)) == shape
    li = locus_ideal_at(m, i)
    assert len(li.gens) == count
    stream = rand.Stream(123)
    for _ in range(3):
        coords = random_line(m.prime, stream)
        assert [g.evaluate(coords) for g in li.gens] == _cofactor_minors(m, i, coords)


@settings(max_examples=25, deadline=None)
@given(a=st.lists(st.integers(1, 3), min_size=3, max_size=3), seed=st.integers(1, 1000),
       pick=st.integers(0, 100), line=st.tuples(*[st.integers(0, 65520)] * 3))
def test_minors_match_cofactor_oracle_on_random_twists(a, seed, pick, line):
    # at a degree with a nontrivial map, the generators evaluated at a random
    # line are the cofactor oracle's values in order, less the minors that
    # vanish identically (which the ideal drops, so they read 0 here)
    m = _module(tuple(sorted(a)), (0,), seed=seed)
    degrees = [i for i in range(-1, m.degrees.socle_degree + 1) if min(m.h(i), m.h(i + 1))]
    assume(degrees and any(line))
    i = degrees[pick % len(degrees)]
    values = [g.evaluate(line) for g in locus_ideal_at(m, i).gens]
    matched = 0
    for v in _cofactor_minors(m, i, line):
        if matched < len(values) and values[matched] == v:
            matched += 1
        else:
            assert v == 0
    assert matched == len(values)


def test_locus_needs_a_prime_above_the_minor_size(capsys):
    # (2,2,3) has minors of size 3, so p = 3 cannot interpolate them; the
    # commands that take no minors still run at p = 3
    def run(argv):
        code = cli.main(argv + ["--prime", "3"])
        return code, capsys.readouterr().out

    code, out = run(["locus", "--a", "2,2,3", "--b", "0"])
    assert code == 1 and len(out.splitlines()) == 1
    assert "prime above the minor size 3" in json.loads(out)["error"]
    assert run(["hilbert", "--a", "2,2,3", "--b", "0"])[0] == 0
    assert run(["line", "--a", "2,2,3", "--b", "0", "--line", "1,1,0"])[0] == 0


def test_degenerate_shapes_contribute_unit_ideal():
    m = _module((1, 1, 1), (0,))  # the module is one-dimensional in degree 0
    assert m.hilbert() == {0: 1}
    for i in (-1, 0, 1):
        li = locus_ideal_at(m, i)
        assert li.spanned_degree == 0
    assert locus_ideal(m, _basis(m, m.degrees.middle_degree)).is_unit


def test_locus_intersection_equals_middle_on_generic_fixtures():
    for a, b in (((2, 2, 3), (0,)), ((2, 2, 2), (0,)), ((1, 1, 1, 2), (0, 0))):
        m = _module(a, b, seed=2)
        gb_mid = _basis(m, m.degrees.middle_degree)
        gb_full = locus_ideal(m, gb_mid)
        mf, mm = measure(gb_full), measure(gb_mid)
        assert (mf.dim_projective, mf.degree) == (mm.dim_projective, mm.degree)
        sat_full, sat_mid = saturate(gb_full), saturate(gb_mid)
        assert all(sat_full.contains(g) for g in sat_mid.basis)
        assert all(sat_mid.contains(g) for g in sat_full.basis)


def test_fold_intersects_degrees_that_miss_the_running_ideal():
    # l1 lies in no cubic minor ideal of (2,2,3), so folding onto (l1) must
    # take the honest intersection; an unconditional intersect fold over the
    # per-degree bases is the reference
    m = _module((2, 2, 3), (0,))
    ring = dual_ring(m)
    middle = buchberger([Polynomial.variable(ring, 0)], ring=ring)
    expected = middle
    for i in range(m.degrees.b[0] - 1, m.degrees.socle_degree + 1):
        if i != m.degrees.middle_degree and locus_ideal_at(m, i).spanned_degree != 0:
            expected = intersect(expected, _basis(m, i))
    result = locus_ideal(m, middle)
    assert result.basis != middle.basis
    assert result.basis == expected.basis


@pytest.mark.parametrize("a,i,spans", [((4, 4, 4), 3, True), ((4, 4, 4), 5, True),
                                       ((2, 2, 3), 1, False)])
def test_spanned_degree_agrees_with_groebner_oracle(a, i, spans):
    # the rank test claims m^k inside the ideal exactly when its reduced basis
    # is every monomial of degree k; on (4,4,4) the 66 degree-10 minors at
    # degrees 3 and 5 span R_10
    m = _module(a, (0,))
    li = locus_ideal_at(m, i)
    k = li.gens[0].degree()
    basis = set(_basis(m, i).basis)
    power = {Polynomial(dual_ring(m), {mono: 1}) for mono in monomial_basis(k).monomials}
    assert (li.spanned_degree == k) is spans
    assert (basis == power) is spans
    if spans:
        assert (k, len(basis)) == (10, 66)


def test_fold_rank_skip_needs_every_running_degree_at_least_k(monkeypatch):
    # on (2,3,3) the minors at degrees 0 and 4 span R_1 and those at 1 and 3
    # span R_3.  Folding onto (l1) skips degree 0, must intersect degree 1
    # (k = 3 > 1), which leaves l1*m^2; that starts in degree 3, so degrees 3
    # and 4 are skipped.  The result equals an unconditional intersect fold.
    import lefschetz_locus.lefschetz as lef

    m = _module((2, 3, 3), (0,))
    ring = dual_ring(m)
    middle = buchberger([Polynomial.variable(ring, 0)], ring=ring)
    spanned = {i: locus_ideal_at(m, i).spanned_degree for i in (0, 1, 3, 4)}
    assert spanned == {0: 1, 1: 3, 3: 3, 4: 1}
    expected = middle
    for i in range(m.degrees.b[0] - 1, m.degrees.socle_degree + 1):
        if i != m.degrees.middle_degree:
            expected = intersect(expected, _basis(m, i))
    met = []

    def recording_intersect(running, gb_i):
        met.append(gb_i.basis)
        return intersect(running, gb_i)

    monkeypatch.setattr(lef, "intersect", recording_intersect)
    result = locus_ideal(m, middle)
    assert met == [_basis(m, 1).basis]
    assert min(g.degree() for g in result.basis) == 3
    assert result.basis == expected.basis


def test_middle_pair_selfduality_for_odd_total_twist():
    # ascending and descending halves of the Hilbert function pair up:
    # the two middle loci define the same scheme when d is odd
    for a, b, seed in (((2, 2, 3), (0,), 3), ((1, 1, 1, 2), (0, 0), 2),
                       ((2, 2, 3, 3), (0, 1), 1)):
        m = _module(a, b, seed=seed)
        assert m.degrees.d % 2 == 1
        i_star = m.degrees.middle_degree
        ring = dual_ring(m)
        lhs = saturate(buchberger(list(locus_ideal_at(m, i_star).gens), ring=ring))
        rhs = saturate(buchberger(list(locus_ideal_at(m, i_star + 1).gens), ring=ring))
        assert same_ideal(lhs, rhs)


def test_is_lefschetz_generic_line():
    m = _module((2, 2, 3), (0,))
    check = is_lefschetz(m, (1, 2, 3))
    assert check.ok and not check.failing_degrees
    assert bool(check)


def test_is_lefschetz_fails_exactly_on_locus_points():
    from lefschetz_locus.groebner import rational_points_0dim

    m = _module((1, 1, 1, 2), (0, 0), seed=2)
    li = locus_ideal_at(m, m.degrees.middle_degree)
    gb = buchberger(list(li.gens), ring=dual_ring(m))
    points = rational_points_0dim(gb)
    assert points
    for pt in points:
        check = is_lefschetz(m, pt)
        assert not check.ok
        assert m.degrees.middle_degree in check.failing_degrees


def test_monomial_ci_x1_is_not_lefschetz():
    from lefschetz_locus.presentation import GradedModule, presentation_from_strings

    pres = presentation_from_strings(DegreeData((3, 4, 4), (0,)),
                                     [["x1^3", "x2^4", "x3^4"]])
    m = GradedModule.build(pres)
    check = is_lefschetz(m, (1, 0, 0))
    assert not check.ok
    assert is_lefschetz(m, (1, 1, 1)).ok


def test_zero_line_rejected():
    m = _module((2, 2, 3), (0,))
    with pytest.raises(ZeroLineError):
        is_lefschetz(m, (0, 0, 0))


def test_minor_vanishing_matches_rank_deficiency():
    # a line kills all middle minors exactly when the middle map drops rank
    m = _module((1, 1, 1, 2), (0, 0), seed=3)
    i_star = m.degrees.middle_degree
    li = locus_ideal_at(m, i_star)
    stream = rand.Stream(55)
    from lefschetz_locus.field_linalg import rank

    lines = [random_line(m.prime, stream) for _ in range(100)]
    from lefschetz_locus.groebner import rational_points_0dim

    gb = buchberger(list(li.gens), ring=dual_ring(m))
    lines += rational_points_0dim(gb) or []
    for coords in lines:
        all_vanish = all(g.evaluate(coords) == 0 for g in li.gens)
        r = rank(specialize(m, i_star, coords))
        assert all_vanish == (r < min(m.h(i_star), m.h(i_star + 1)))


@pytest.mark.parametrize("a,b", [((2, 2, 3), (0,)), ((2, 2, 2, 3), (0, 1)), ((1, 1, 1, 8), (0, 0))])
def test_wlp_witness_exists(a, b):
    m = _module(a, b)
    assert find_lefschetz_line(m, seed=1, tries=100) is not None
