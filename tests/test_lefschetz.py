import pytest

from helpers import det_mod
from lefschetz_locus import rand
from lefschetz_locus.groebner import buchberger, intersect, measure, same_ideal, saturate
from lefschetz_locus.lefschetz import (
    ZeroLineError,
    dual_matrix,
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


def test_dual_matrix_shape_and_linearity():
    m = _module((2, 2, 3), (0,))
    dm = dual_matrix(m, 1)
    assert (dm.rows, dm.cols) == (4, 3)
    for row in dm.entries:
        for f in row:
            assert f.is_zero() or f.homogeneous_degree() == 1


def test_dual_matrix_empty_side():
    m = _module((2, 2, 3), (0,))
    dm = dual_matrix(m, -1)
    assert (dm.rows, dm.cols) == (1, 0)


def test_specialization_at_coordinate_lines_and_random_lines():
    m = _module((2, 2, 3), (0,), seed=4)
    stream = rand.Stream(99)
    for i in (0, 1, 2, 3):
        dm = dual_matrix(m, i)
        coords_list = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        coords_list += [random_line(m.prime, stream) for _ in range(10)]
        for coords in coords_list:
            ell = Polynomial.linear_form(R, coords)
            direct = m.multiplication_map(ell, i)
            assert dm.specialize(coords) == direct


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


def test_minor_values_match_independent_determinant():
    # evaluate each symbolic minor at a line and compare with a cofactor
    # determinant of the specialized numeric submatrix
    from itertools import combinations

    m = _module((2, 2, 3), (0,), seed=6)
    dm = dual_matrix(m, 1)
    li = locus_ideal_at(m, 1)
    stream = rand.Stream(123)
    coords = random_line(m.prime, stream)
    numeric = dm.specialize(coords)
    rows_subsets = list(combinations(range(4), 3))
    assert len(rows_subsets) == len(li.gens)
    for subset, minor in zip(rows_subsets, li.gens):
        sub = [[int(numeric.a[r, c]) for c in range(3)] for r in subset]
        assert minor.evaluate(coords) == det_mod(sub, m.prime)


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
    dm = dual_matrix(m, i_star)
    for coords in lines:
        all_vanish = all(g.evaluate(coords) == 0 for g in li.gens)
        r = rank(dm.specialize(coords))
        assert all_vanish == (r < min(m.h(i_star), m.h(i_star + 1)))


@pytest.mark.parametrize("a,b", [((2, 2, 3), (0,)), ((2, 2, 2, 3), (0, 1)), ((1, 1, 1, 8), (0, 0))])
def test_wlp_witness_exists(a, b):
    m = _module(a, b)
    assert find_lefschetz_line(m, seed=1, tries=100) is not None
