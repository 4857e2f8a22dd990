import json
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import det_mod, evaluate, fold_localization, rational_points_0dim, specialize
from test_acceptance import CI_GRID, N2_GRID
from lefschetz_locus import cli, rand
from lefschetz_locus import lefschetz as lef
from lefschetz_locus.groebner import buchberger, same_ideal, saturate
from lefschetz_locus.lefschetz import (
    ZeroLineError,
    _in_saturation,
    dual_ring,
    find_lefschetz_line,
    is_lefschetz,
    locus_ideal,
    locus_ideal_at,
    random_line,
)
from lefschetz_locus.polyring import Polynomial, Ring, monomial_basis
from lefschetz_locus.presentation import (
    DegreeData,
    GradedModule,
    generic_module,
    presentation_from_strings,
)

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
            ell = Polynomial(R, dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), coords)))
            direct = m.multiplication_map(ell, i)
            assert specialize(m, i, coords) == direct


def test_minors_of_223_middle_are_four_cubics():
    m = _module((2, 2, 3), (0,))
    li = locus_ideal_at(m, 1)
    assert len(li.gens) == 4
    assert all(g.is_homogeneous() and g.degree() == 3 for g in li.gens)


def test_minors_of_222_middle_is_one_cubic_determinant():
    m = _module((2, 2, 2), (0,))
    li = locus_ideal_at(m, 1)
    assert len(li.gens) == 1
    assert li.gens[0].is_homogeneous() and li.gens[0].degree() == 3


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
        assert [evaluate(g, coords) for g in li.gens] == _cofactor_minors(m, i, coords)


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
    values = [evaluate(g, line) for g in locus_ideal_at(m, i).gens]
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
    one = Polynomial.constant(dual_ring(m), 1)
    for i in (-1, 0, 1):
        assert locus_ideal_at(m, i).gens == (one,)
    middle = _basis(m, m.degrees.middle_degree)
    assert middle.is_unit and locus_ideal(m, middle)


def _middle(m):
    return _basis(m, m.degrees.middle_degree)


@pytest.mark.parametrize("seed", [1, 2])
def test_localization_agrees_with_fold_oracle_on_criterion_8(seed):
    for a, b in [(a, (0,)) for a in CI_GRID] + N2_GRID:
        m = _module(a, b, seed=seed)
        middle = _middle(m)
        assert locus_ideal(m, middle) is fold_localization(m, middle) is True, (a, b)


def test_localization_agrees_with_fold_oracle_off_the_grid():
    pres = presentation_from_strings(DegreeData((3, 4, 4), (0,)), [["x1^3", "x2^4", "x3^4"]])
    for m in (GradedModule.build(pres), _module((2, 3, 3), (0,))):
        middle = _middle(m)
        assert locus_ideal(m, middle) is fold_localization(m, middle) is True


def test_localization_fails_where_a_degree_misses_the_middle():
    # l1 vanishes at none of the six points that every cubic minor ideal of
    # (2,2,3) cuts out, so (l1) lies in no saturation and the fold grows
    m = _module((2, 2, 3), (0,))
    ring = dual_ring(m)
    middle = buchberger([Polynomial.variable(ring, 0)], ring=ring)
    assert locus_ideal(m, middle) is fold_localization(m, middle) is False


def test_lower_degree_middle_is_shifted_up_to_each_minor_degree(monkeypatch):
    # on (2,3,3) the minors at degrees 0 and 4 span R_1 and those at 1 and 3
    # span R_3, so (l1) passes every degree by rank alone, as the fold agrees
    m = _module((2, 3, 3), (0,))
    ring = dual_ring(m)
    middle = buchberger([Polynomial.variable(ring, 0)], ring=ring)
    assert fold_localization(m, middle)
    monkeypatch.setattr(lef, "saturate", _forbidden)
    assert locus_ideal(m, middle)
    # (l1) against l1 * m passes in degree D = 2 > 1, without saturation
    l1, l2, l3 = (Polynomial.variable(ring, v) for v in range(3))
    assert _in_saturation([l1], (l1 * l1, l1 * l2, l1 * l3))


def _forbidden(*args):
    raise AssertionError("the rank test should have decided")


def _counting_saturate(monkeypatch):
    calls = []

    def counted(ideal):
        calls.append(ideal)
        return saturate(ideal)

    monkeypatch.setattr(lef, "saturate", counted)
    return calls


def test_saturation_decides_where_the_rank_falls_short(monkeypatch):
    # (l3) against (l1^2, l2^2, l3^2, l1*l2): l1*l3 is missing in degree 2,
    # but the ideal is m-primary, so its saturation is the unit ideal
    l1, l2, l3 = (Polynomial.variable(R, v) for v in range(3))
    calls = _counting_saturate(monkeypatch)
    assert _in_saturation([l3], (l1 * l1, l2 * l2, l3 * l3, l1 * l2))
    assert len(calls) == 1


def test_saturation_rejects_a_form_off_the_locus(monkeypatch):
    # (l1) against (l2): the line l2 = 0 is saturated and misses l1; nothing
    # but the zero form lies in the zero ideal
    l1, l2 = Polynomial.variable(R, 0), Polynomial.variable(R, 1)
    calls = _counting_saturate(monkeypatch)
    assert not _in_saturation([l1], (l2,))
    assert not _in_saturation([l1], (Polynomial.zero(R),))
    assert _in_saturation([], (l2,))
    assert len(calls) == 2


@pytest.mark.parametrize("a,i,spans", [((4, 4, 4), 3, True), ((4, 4, 4), 5, True),
                                       ((2, 2, 3), 1, False)])
def test_spanned_degree_agrees_with_groebner_oracle(a, i, spans, monkeypatch):
    # a degree whose minors span every form of their degree k passes the
    # containment test at once, without a Macaulay matrix, exactly when its
    # reduced basis is every monomial of degree k; on (4,4,4) the 66
    # degree-10 minors at degrees 3 and 5 span R_10.  On (2,2,3), degree 1
    # is the middle, which its own generators pass by the Macaulay matrix.
    m = _module(a, (0,))
    li = locus_ideal_at(m, i)
    k = li.gens[0].degree()
    basis = set(_basis(m, i).basis)
    power = {Polynomial(dual_ring(m), {mono: 1}) for mono in monomial_basis(k).monomials}
    assert (basis == power) is spans
    if spans:
        assert (k, len(basis)) == (10, 66)
    built = []
    rows = lef._macaulay_rows
    monkeypatch.setattr(lef, "_macaulay_rows", lambda *args: built.append(args) or rows(*args))
    middle = _middle(m).basis
    mid = [g for g in middle if g.degree() == middle[0].degree()]
    assert _in_saturation(mid, li.gens)
    assert (not built) is spans


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


def test_is_lefschetz_fails_exactly_on_locus_points():
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
    gb = buchberger(list(li.gens), ring=dual_ring(m))
    lines += rational_points_0dim(gb) or []
    for coords in lines:
        all_vanish = all(evaluate(g, coords) == 0 for g in li.gens)
        r = rank(specialize(m, i_star, coords))
        assert all_vanish == (r < min(m.h(i_star), m.h(i_star + 1)))


@pytest.mark.parametrize("a,b", [((2, 2, 3), (0,)), ((2, 2, 2, 3), (0, 1)), ((1, 1, 1, 8), (0, 0))])
def test_wlp_witness_exists(a, b):
    m = _module(a, b)
    assert find_lefschetz_line(m, seed=1, tries=100) is not None
