import json
import random
from itertools import combinations
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    det_mod,
    evaluate,
    fold_localization,
    full_scan_is_lefschetz,
    rational_points_0dim,
    specialize,
    variable,
)
from test_acceptance import CI_GRID, N2_GRID
from test_jumping import _WITNESS_FIXTURES, _monomial_344
from lefschetz_locus import cli, groebner, rand
from lefschetz_locus import lefschetz as lef
from lefschetz_locus.field_linalg import _matmul, _rref
from lefschetz_locus.groebner import _variable_saturations, buchberger, same_ideal, saturate
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


GENERIC_PAIRS = [((2, 2, 3), (0,)), ((3, 4, 4), (0,)), ((1, 1, 2, 2), (0, 0)),
                 ((2, 2, 3, 3), (0, 1)), ((2, 2, 2, 3), (0, 2)), ((1, 1, 1, 2, 2), (0, 0, 0)),
                 ((2, 2, 2, 2, 2), (0, 1, 1))]
EXPLICIT_PAIRS = [((3, 4, 4), (0,), [["x1^3", "x2^4", "x3^4"]]),
                  ((2, 2, 3), (0,), [["x1^2", "x2^2", "x3^3"]]),
                  ((3, 3, 3), (0,), [["x1^3", "x2^3", "x3^3"]]),
                  ((1, 1, 2, 2), (0, 0), [["x1", "x2", "x3^2", "0"], ["0", "x1", "x2^2", "x3^2"]]),
                  ((1, 1, 1, 1, 1), (0, 0, 0), [["x1", "x2", "x3", "0", "0"],
                                                ["0", "x1", "x2", "x3", "0"],
                                                ["0", "0", "x1", "x2", "x3"]])]


def _explicit(a, b, grid, p):
    return GradedModule.build(presentation_from_strings(DegreeData(a, b), grid, p))


def _coefficients(gens, s):
    # coefficient rows of degree-s forms, in ``monomial_basis`` order
    return np.array([[g.terms.get(mo, 0) for mo in monomial_basis(s).monomials] for g in gens],
                    dtype=np.int64).reshape(len(gens), -1)


def _no_intersect(monkeypatch):
    # the fallback tests membership in the three variable saturations and
    # never forms their intersection
    def forbidden(*args):
        raise AssertionError("the localization fallback intersected ideals")

    monkeypatch.setattr(groebner, "intersect", forbidden)


def _basis(m, i):
    return buchberger(list(locus_ideal_at(m, i).gens), ring=dual_ring(m))


def test_specialization_at_coordinate_lines_and_random_lines():
    m = _module((2, 2, 3), (0,), seed=4)
    stream = rand.Stream(99)
    for i in (0, 1, 2, 3):
        coords_list = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        coords_list += [random_line(m.prime, stream) for _ in range(10)]
        for coords in coords_list:
            assert np.array_equal(specialize(m, i, coords), m.multiplication_map(coords, i))


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
    a = specialize(m, i, coords)
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
    # evaluate each interpolated minor at seeded lines (not chart points)
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
    # ``locus_ideal`` visits one degree of each Serre-dual pair and the
    # oracle every degree: they agree on the middle ideal and on (l1), on
    # the explicit presentations (pure powers among them) and on (2,3,3)
    modules = [_explicit(a, b, grid, 65521) for a, b, grid in EXPLICIT_PAIRS]
    for m in modules + [_module((2, 3, 3), (0,))]:
        middle = _middle(m)
        assert locus_ideal(m, middle) is fold_localization(m, middle) is True
        ring = dual_ring(m)
        l1 = buchberger([variable(ring, 0)], ring=ring)
        assert locus_ideal(m, l1) is fold_localization(m, l1), m.degrees


def test_localization_fails_where_a_degree_misses_the_middle(monkeypatch):
    # l1 vanishes at none of the six points that every cubic minor ideal of
    # (2,2,3) cuts out, so (l1) lies in no saturation and the fold grows
    m = _module((2, 2, 3), (0,))
    ring = dual_ring(m)
    middle = buchberger([variable(ring, 0)], ring=ring)
    want = fold_localization(m, middle)
    _no_intersect(monkeypatch)
    calls = _counting_saturations(monkeypatch)
    assert locus_ideal(m, middle) is want is False
    assert calls


def test_lower_degree_middle_is_shifted_up_to_each_minor_degree(monkeypatch):
    # on (2,3,3) the minors at degrees 0 and 4 span R_1 and those at 1 and 3
    # span R_3, so (l1) passes every degree by rank alone, as the fold agrees
    m = _module((2, 3, 3), (0,))
    ring = dual_ring(m)
    middle = buchberger([variable(ring, 0)], ring=ring)
    assert fold_localization(m, middle)
    monkeypatch.setattr(lef, "_variable_saturations", _forbidden)
    assert locus_ideal(m, middle)
    # (l1) against l1 * m passes in degree D = 2 > 1, without saturation
    l1, l2, l3 = (variable(ring, v) for v in range(3))
    assert _in_saturation(_coefficients([l1], 1), 1,
                          _coefficients((l1 * l1, l1 * l2, l1 * l3), 2), 2, ring)


def _forbidden(*args):
    raise AssertionError("the rank test should have decided")


def _counting_saturations(monkeypatch):
    calls = []

    def counted(gb):
        calls.append(gb)
        return _variable_saturations(gb)

    monkeypatch.setattr(lef, "_variable_saturations", counted)
    return calls


def test_saturation_decides_where_the_rank_falls_short(monkeypatch):
    # (l3) against (l1^2, l2^2, l3^2, l1*l2): l1*l3 is missing in degree 2,
    # but the ideal is m-primary, so its saturation is the unit ideal
    l1, l2, l3 = (variable(R, v) for v in range(3))
    _no_intersect(monkeypatch)
    calls = _counting_saturations(monkeypatch)
    assert _in_saturation(_coefficients([l3], 1), 1,
                          _coefficients((l1 * l1, l2 * l2, l3 * l3, l1 * l2), 2), 2, R)
    assert len(calls) == 1


def test_saturation_rejects_a_form_off_the_locus(monkeypatch):
    # (l1) against (l2): the line l2 = 0 is saturated and misses l1; nothing
    # but the zero form lies in the zero ideal (no coefficient rows)
    l1, l2 = variable(R, 0), variable(R, 1)
    _no_intersect(monkeypatch)
    calls = _counting_saturations(monkeypatch)
    mid = _coefficients([l1], 1)
    assert not _in_saturation(mid, 1, _coefficients((l2,), 1), 1, R)
    assert not _in_saturation(mid, 1, np.zeros((0, 3), dtype=np.int64), 1, R)
    assert _in_saturation(mid[:0], 1, _coefficients((l2,), 1), 1, R)
    assert len(calls) == 2


@pytest.mark.parametrize("a,i,spans", [((4, 4, 4), 3, True), ((4, 4, 4), 5, True),
                                       ((2, 2, 3), 1, False)])
def test_spanned_degree_agrees_with_groebner_oracle(a, i, spans):
    # a degree whose minors span every form of their degree k has minor
    # values of full rank at the chart points, which passes it without a
    # Macaulay matrix, exactly when its reduced basis is every monomial of
    # degree k; on (4,4,4) the 66 degree-10 minors at degrees 3 and 5 span
    # R_10.  On (2,2,3), degree 1 is the middle, which its own generators
    # pass by the Macaulay matrix.
    m = _module(a, (0,))
    li = locus_ideal_at(m, i)
    k = li.gens[0].degree()
    basis = set(_basis(m, i).basis)
    power = {Polynomial(dual_ring(m), {mono: 1}) for mono in monomial_basis(k).monomials}
    assert (basis == power) is spans
    if spans:
        assert (k, len(basis)) == (10, 66)
    values = lef._lattice_minors(m.variable_maps(i), k, m.prime)
    assert (len(_rref(values, m.prime)[1]) == len(values)) is spans
    middle = _middle(m).basis
    mid = [g for g in middle if g.degree() == middle[0].degree()]
    s_mid = mid[0].degree()
    assert _in_saturation(_coefficients(mid, s_mid), s_mid, lef._interpolate(m, i), k,
                          dual_ring(m))


@pytest.mark.parametrize("a,calls", [((4, 4, 4), [4]), ((3, 4, 4), [3, 4])])
def test_localization_interpolates_only_degrees_whose_values_fall_short(a, calls, monkeypatch):
    # every other degree of (4,4,4) has minor values of full rank, so a
    # survey row interpolates the middle degree alone; on (3,4,4) degree 4
    # has 10 minors of degree 9, which cannot span the 55 forms of R_9
    seen = []
    original = lef._interpolate
    monkeypatch.setattr(lef, "_interpolate",
                        lambda m, i, *args: seen.append(i) or original(m, i, *args))
    row = cli.survey_row({"a": list(a), "b": [0], "seed": 1, "prime": 65521,
                          "matrix": None, "localization": True})
    assert {"claim": "middle-localization", "ok": True} in row["claims"]
    assert seen == calls


def test_identically_vanishing_minors_fail_localization(monkeypatch):
    # a degree whose minors all vanish has the zero ideal, which holds no
    # middle form: its values have rank 0 and the verdict is False
    m = _module((2, 2, 3), (0,))
    middle = _middle(m)
    minors = lef._lattice_minors
    monkeypatch.setattr(lef, "_lattice_minors", lambda *args: minors(*args) * 0)
    assert locus_ideal(m, middle) is False


def test_localization_names_a_prime_too_small_for_another_degree():
    # at p = 7 the minors of degree 4 of (3,4,4) (size 9), the dual of the
    # middle degree 3 and the first degree visited, cannot be decided: the
    # localization test raises the named error of ``locus_ideal_at``
    m = generic_module(DegreeData((3, 4, 4), (0,)), 1, 7)
    ring = dual_ring(m)
    middle = buchberger([variable(ring, 0)], ring=ring)
    message = "degree-4 minors: the locus needs a prime above the minor size 9"
    with pytest.raises(ValueError, match=message):
        locus_ideal(m, middle)
    with pytest.raises(ValueError, match=message):
        locus_ideal_at(m, 4)


@st.composite
def _stacks(draw):
    """Three random n x s maps (or their transposes) mod a small or large
    prime, as ``_lattice_minors`` takes them: plain, with a rank drop at
    every point, or with a zero first row, so that the leading s x s block
    is singular and, for n > s, the first pivot comes from below."""
    p = draw(st.sampled_from([7, 13, 65521, 2**31 - 1]))
    n = draw(st.integers(1, 6))
    s = draw(st.integers(1, min(n, 5)))
    kind = draw(st.sampled_from(["random", "rank-drop", "zero-top-row"]))
    maps = []
    for _ in range(3):
        a = [[draw(st.integers(0, p - 1)) for _ in range(s)] for _ in range(n)]
        if kind == "rank-drop":
            a = [row[:-1] + row[:1] if s > 1 else [0] for row in a]
        elif kind == "zero-top-row":
            a[0] = [0] * s
        maps.append(a)
    wide = draw(st.booleans())
    stack = np.array(maps, dtype=np.int64)
    return p, s, stack.transpose(0, 2, 1) if wide else stack


@settings(max_examples=120, deadline=None)
@given(stack=_stacks())
def test_lattice_minors_match_cofactor_determinants(stack):
    # corank 0, 0 < c < s (one elimination and the left kernel) and c >= s
    # (the square submatrices) all give every minor at every chart point
    # (1, b, c), the row of the monomial (a, b, c)
    p, s, maps = stack
    values = lef._lattice_minors(maps, s, p)
    points = monomial_basis(s).monomials
    assert values.shape[0] == len(points)
    for (_, b, c), row in zip(points, values):
        a = (maps[0] + b * maps[1] + c * maps[2]) % p
        a = a if a.shape[0] >= a.shape[1] else a.T
        want = [det_mod([[int(x) for x in a[r]] for r in rows], p)
                for rows in combinations(range(a.shape[0]), s)]
        assert [int(x) for x in row] == want, (b, c)


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([13, 65521, 2**31 - 1]), s=st.integers(0, 12),
       cols=st.integers(1, 5), seed=st.integers(0, 2**32))
@example(p=13, s=12, cols=5, seed=0)  # s = p - 1: every 1/i!, i <= s, exists mod p
@example(p=2**31 - 1, s=12, cols=5, seed=1)
def test_interpolation_round_trips_random_forms(p, s, cols, seed):
    # coefficient rows of random degree-s forms, evaluated in Python ints at
    # the chart points (1, b, c) and interpolated back exactly
    monos = monomial_basis(s).monomials
    draw = random.Random(seed)
    coeffs = [[draw.randrange(p) for _ in monos] for _ in range(cols)]
    values = np.array([[sum(f * b ** j * c ** k for f, (_, j, k) in zip(row, monos)) % p
                        for row in coeffs] for _, b, c in monos], dtype=np.int64)
    chart = SimpleNamespace(h=lambda i: s, prime=p)  # degree-0 minors of size s
    assert lef._interpolate(chart, 0, values).tolist() == coeffs


@pytest.mark.parametrize("p", [13, 65521, 2**31 - 1])
def test_newton_tables_match_their_definitions(p):
    # Delta[i, k] = (-1)^(i-k) C(i, k), and row k of F holds the
    # coefficients of C(x, k), expanded here in exact rationals; the
    # tables are cached, so they are read-only
    from fractions import Fraction

    for s in range(0, min(p - 1, 12) + 1):
        delta, binom = lef._newton_tables(s, p)
        assert lef._newton_tables(s, p)[0] is delta
        assert not delta.flags.writeable and not binom.flags.writeable
        assert delta.tolist() == [[(-1) ** (i - k) * comb(i, k) % p for k in range(s + 1)]
                                  for i in range(s + 1)]
        poly = [Fraction(1)]
        for k in range(s + 1):
            padded = poly + [0] * (s + 1 - len(poly))
            assert binom[k].tolist() == [f.numerator * pow(f.denominator, p - 2, p) % p
                                         for f in padded], (s, k)
            poly = [(a - k * b) / (k + 1) for a, b in zip([0] + poly, poly + [0])]


def test_lattice_minors_of_monomial_module_match_cofactor_determinants():
    # the pure-power module (3,4,4) drops rank at many chart points (1, b, c)
    # (40 (degree, point) pairs where every minor vanishes); every minor at
    # every point of every degree is checked
    pres = presentation_from_strings(DegreeData((3, 4, 4), (0,)), [["x1^3", "x2^4", "x3^4"]])
    m = GradedModule.build(pres)
    vanishing = 0
    for i in range(-1, m.degrees.socle_degree + 1):
        size = min(m.h(i), m.h(i + 1))
        if size == 0:
            continue
        values = lef._lattice_minors(m.variable_maps(i), size, m.prime)
        for (_, b, c), row in zip(monomial_basis(size).monomials, values):
            want = _cofactor_minors(m, i, (1, b, c))
            assert [int(x) for x in row] == want, (i, b, c)
            vanishing += not any(want)
    assert vanishing == 40


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


def _assert_dual_spans_agree(m):
    # Serre duality: the maximal minors of degrees i and d - 4 - i span one
    # space, so their chart-value columns have one column span
    deg, p = m.degrees, m.prime
    pairs = 0
    for i in range(deg.b[0] - 1, deg.d - 3 - deg.middle_degree):
        j = deg.d - 4 - i
        size = min(m.h(i), m.h(i + 1))
        assert size == min(m.h(j), m.h(j + 1)), i
        if i == j or not size:
            continue
        v_i, v_j = lef._minor_values(m, i, size), lef._minor_values(m, j, size)
        assert _rank(v_i, p) == _rank(v_j, p) == _rank(np.hstack([v_i, v_j]), p), (i, j)
        pairs += 1
    assert pairs


@pytest.mark.parametrize("p", [65521, 2**31 - 1])
@pytest.mark.parametrize("a,b", GENERIC_PAIRS)
def test_dual_degrees_have_one_minor_span_on_generic_modules(a, b, p):
    _assert_dual_spans_agree(generic_module(DegreeData(a, b), 1, p))


@pytest.mark.parametrize("p", [65521, 2**31 - 1])
@pytest.mark.parametrize("a,b,grid", EXPLICIT_PAIRS)
def test_dual_degrees_have_one_minor_span_on_explicit_presentations(a, b, grid, p):
    # the pure powers (3,4,4) and the two n > 1 grids have degrees whose
    # minor values fall short of full rank: the spans agree there too
    _assert_dual_spans_agree(_explicit(a, b, grid, p))


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


def _dual_plane(p):
    # one coordinate triple for each point of P^2(F_p)
    return ([(1, b, c) for b in range(p) for c in range(p)]
            + [(0, 1, c) for c in range(p)] + [(0, 0, 1)])


@pytest.mark.parametrize("a,b,grid", [
    ((3, 4, 4), (0,), None),
    ((2, 2, 3, 3), (0, 1), None),
    ((1, 1, 1, 2, 2), (0, 0, 0), None),
    ((2, 2, 2, 2, 2), (0, 1, 1), None),  # d even: the self-dual degree 2 fails alone
    ((3, 4, 4), (0,), [["x1^3", "x2^4", "x3^4"]]),
    ((2, 3, 4, 4, 5), (0, 0, 2), None),  # non-minimal: a unit entry from a = 2 to b = 2
])
def test_halved_scan_agrees_with_full_scan_on_every_line_of_f13(a, b, grid):
    # Serre duality gives the failing degrees above the middle; the oracle
    # ranks every degree.  Each module has non-Lefschetz lines over F_13
    m = (generic_module(DegreeData(a, b), 1, 13) if grid is None else _explicit(a, b, grid, 13))
    failing = 0
    for line in _dual_plane(13):
        check = is_lefschetz(m, line)
        assert (check.ok, check.failing_degrees) == full_scan_is_lefschetz(m, line), line
        failing += not check.ok
    assert failing


@pytest.mark.parametrize("a,b,seed", [(a, b, s) for a, b in _WITNESS_FIXTURES for s in (1, 2, 3)]
                         + [((3, 4, 4), (0,), None), ((1, 3, 4, 5), (0, 5), 1)])
def test_scan_stops_at_the_first_injective_degree_on_every_line_of_f13(a, b, seed,
                                                                       monkeypatch):
    # exhaustive over P^2(F_13), on the jumping-line fixtures and the pure
    # power (3,4,4) (None: it has no seed): the scan down from the middle
    # gives the full scan's verdict and failing degrees on every line, and
    # ranks no degree below the first where the line is injective with
    # i <= d - 3 - b_n.  On (1,3,4,5 | 0,5) that bound, 0, keeps degree 0
    # ranked below an injective degree 1
    m = (GradedModule.build(_monomial_344(13)) if seed is None
         else generic_module(DegreeData(a, b), seed, 13))
    deg = m.degrees
    ranked, product = [], m.multiplication_map
    monkeypatch.setattr(m, "multiplication_map",
                        lambda line, t: ranked.append(t) or product(line, t))
    for line in _dual_plane(13):
        del ranked[:]
        check = is_lefschetz(m, line)
        ok, failing = full_scan_is_lefschetz(m, line)
        assert (check.ok, check.failing_degrees) == (ok, failing), line
        want = []
        for i in range(deg.middle_degree, deg.b[0] - 2, -1):
            if min(m.h(i), m.h(i + 1)):
                want.append(i)
                if i not in failing and m.h(i) <= m.h(i + 1) and i <= deg.d - 3 - deg.b[-1]:
                    break
        assert ranked == want, line


def test_injectivity_passes_down_only_from_a_rising_degree_below_the_bound():
    # maximal rank is injective only where h_i <= h_(i+1), and injectivity
    # passes down only from i <= d - 3 - b_n; with d = 8 and b_n = 3 the
    # bound is 2: degree 2 falls (4 -> 2), degree 3 rises but lies above it
    hilb = {0: 1, 1: 3, 2: 4, 3: 2, 4: 5}
    m = SimpleNamespace(degrees=DegreeData((2, 2, 3, 4), (0, 3)), h=lambda t: hilb.get(t, 0))
    assert [lef._injective_below(m, i) for i in range(4)] == [True, True, False, False]


def test_a_lefschetz_line_of_2233_takes_one_rank(monkeypatch):
    # (2,2,3,3 | 0,1): the middle degree 2 (7 -> 8) is injective at a
    # Lefschetz line and 2 <= d - 3 - b_n = 5, so degrees 1 and 0 are not
    # ranked and their maps are never built
    m = generic_module(DegreeData((2, 2, 3, 3), (0, 1)), 1)
    ranks, original = [], lef.rank
    monkeypatch.setattr(lef, "rank", lambda a, p: ranks.append(a.shape) or original(a, p))
    assert is_lefschetz(m, (1, 2, 3)).ok
    assert ranks == [(8, 7)]
    assert 0 not in m._maps and 1 not in m._maps


def test_scan_refuses_a_module_build_did_not_certify():
    # the halved scan rests on Serre duality, which needs finite length
    pres = presentation_from_strings(DegreeData((2, 2, 3), (0,)), [["x1^2", "x1*x2", "x1^3"]])
    with pytest.raises(ValueError, match="certified"):
        is_lefschetz(GradedModule(pres, {}), (1, 2, 3))


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
        r = rank(specialize(m, i_star, coords), m.prime)
        assert all_vanish == (r < min(m.h(i_star), m.h(i_star + 1)))


@pytest.mark.parametrize("a,b", [((2, 2, 3), (0,)), ((2, 2, 2, 3), (0, 1)), ((1, 1, 1, 8), (0, 0))])
def test_wlp_witness_exists(a, b):
    m = _module(a, b)
    assert find_lefschetz_line(m, seed=1, tries=100) is not None


def _rank(a, p):
    return len(_rref(a, p)[1])


@settings(max_examples=120, deadline=None)
@given(stack=_stacks(), data=st.data())
def test_compressed_columns_lie_in_the_span_of_every_minor(stack, data):
    # each compressed column is a fixed combination of the minors' value
    # columns (Cauchy-Binet), on the subset and the kernel route, with rank
    # drops and small primes; on the subset route it is exactly
    # sum_S det Q_j[S] * (column of S)
    p, s, maps = stack
    n = max(maps.shape[1:])
    by_kernel, k = lef._minor_shape(n, s)
    count = data.draw(st.integers(1, 6))
    entries = data.draw(st.lists(st.integers(0, p - 1), min_size=count * n * k,
                                 max_size=count * n * k))
    weights = np.array(entries, dtype=np.int64).reshape(count, n, k)
    full = lef._lattice_minors(maps, s, p)
    comp = lef._lattice_minors(maps, s, p, weights)
    assert comp.shape == (len(full), count)
    assert _rank(np.hstack([full, comp]), p) == _rank(full, p)
    if not by_kernel:
        dets = np.array([[det_mod([[int(x) for x in q[r]] for r in rows], p)
                          for q in weights] for rows in combinations(range(n), k)],
                        dtype=np.int64).reshape(-1, count)
        assert (comp == _matmul(full, dets, p)).all()


def test_compressed_rank_equals_full_rank_on_criterion_8():
    # every non-middle degree with more than C(s+2, 2) + 4 maximal minors
    seen = 0
    for a, b in [(a, (0,)) for a in CI_GRID] + N2_GRID:
        m = _module(a, b)
        for i in range(-1, m.degrees.socle_degree + 1):
            size = min(m.h(i), m.h(i + 1))
            points = comb(size + 2, 2)
            if not size or i == m.degrees.middle_degree or comb(
                    max(m.h(i), m.h(i + 1)), size) <= points + 4:
                continue
            comp = lef._minor_values(m, i, size, points + 4)
            assert _rank(comp, m.prime) == _rank(lef._minor_values(m, i, size), m.prime), (a, i)
            seen += 1
    assert seen >= 16


def _recorded_minors(monkeypatch):
    """(degree, size, compressed?) of every ``_minor_values`` call."""
    calls = []
    values = lef._minor_values
    monkeypatch.setattr(lef, "_minor_values", lambda m, i, size, count=0: calls.append(
        (i, size, bool(count))) or values(m, i, size, count))
    return calls


def test_survey_rows_visit_down_to_the_first_injective_degree(monkeypatch):
    # (4,4,4): the middle degree 4 is interpolated for the row's basis;
    # degree 3 is a 12 x 10 map, 3 <= d - 3 - b_n = 9, whose values reach
    # rank C(12, 2) = 66, so degrees 2 down to -1, and their duals 6 to 9,
    # are never evaluated.  (3,4,4), d odd: degree 4 (dual to the middle 3)
    # comes first, then degree 2, a 9 x 6 map with 84 maximal minors, whose
    # 32 compressed columns reach rank 28 = C(8, 2): no value matrix of all
    # 84 minors is built, and degrees 1 down to -1 are skipped
    for a, want in [((4, 4, 4), [(4, 12, False), (3, 10, False)]),
                    ((3, 4, 4), [(3, 9, False), (4, 9, False), (2, 6, True)])]:
        calls = _recorded_minors(monkeypatch)
        row = cli.survey_row({"a": list(a), "b": [0], "seed": 1, "prime": 65521,
                              "matrix": None, "localization": True})
        assert {"claim": "middle-localization", "ok": True} in row["claims"]
        assert calls == want, a
        monkeypatch.undo()


def _propagated_visits(m):
    """The (degree, size, compressed?) calls that ``locus_ideal`` makes when
    no compressed rank is full: one degree of each Serre-dual pair
    (i, d - 4 - i), i <= d - 4 - i*, less the middle and the empty maps,
    those above the middle first, then down from i* - 1 through the first
    degree i < i* whose all-minors values have rank C(s+2, 2), with
    h_i <= h_(i+1) and i <= d - 3 - b_n."""
    deg = m.degrees
    mid, out = deg.middle_degree, []
    for i in sorted(range(deg.b[0] - 1, deg.d - 3 - mid), key=lambda i: (i < mid, -i)):
        size = min(m.h(i), m.h(i + 1))
        if i == mid or not size:
            continue
        points = comb(size + 2, 2)
        if comb(max(m.h(i), m.h(i + 1)), size) > points + 4:
            out.append((i, size, True))
        out.append((i, size, False))
        full = _rank(lef._lattice_minors(m.variable_maps(i), size, m.prime), m.prime) == points
        if full and i < mid and m.h(i) <= m.h(i + 1) and i <= deg.d - 3 - deg.b[-1]:
            break
    return out


@pytest.mark.parametrize("n, k, count, p", [(1, 1, 1, 2), (4, 2, 3, 13), (10, 6, 32, 65521),
                                             (7, 3, 5, 2**31 - 1)])
def test_weights_are_the_stream_draws_in_order(n, k, count, p):
    stream = rand.Stream(rand.derive(0, 0xCB))
    want = [stream.below(p) for _ in range(count * n * k)]
    got = lef._weights(n, k, count, p)
    assert got.dtype == np.int64 and got.shape == (count, n, k)
    assert got.ravel().tolist() == want


def test_vectorised_draws_continue_the_stream():
    batched, single = rand.Stream(2**64 - 5), rand.Stream(2**64 - 5)
    got = batched.below_many(65521, 7).tolist() + [batched.below(65521)]
    assert got == [single.below(65521) for _ in range(8)]


def test_zeroed_weights_fall_back_to_every_minor(monkeypatch):
    # compressed values of rank 0 decide nothing: each visited degree then
    # takes all of its minors, and the verdicts stay as they were.  The
    # visits are one degree of each dual pair, down to the first injective
    # one; the other degree of a pair is never evaluated
    monkeypatch.setattr(lef, "_weights", lambda n, k, count, p: np.zeros((count, n, k), np.int64))
    calls = _recorded_minors(monkeypatch)
    visits = []
    for a, b in [(a, (0,)) for a in CI_GRID] + N2_GRID:
        m = _module(a, b)
        middle = _middle(m)
        del calls[:]
        assert locus_ideal(m, middle) is True, (a, b)
        assert calls == _propagated_visits(m), (a, b)
        deg = m.degrees
        assert all(i <= deg.d - 4 - deg.middle_degree for i, _, _ in calls), (a, b)
        visits += calls
    assert sum(call[2] for call in visits) == 3 and len(visits) == 24
    m = _module((2, 2, 3), (0,))
    ring = dual_ring(m)
    assert locus_ideal(m, buchberger([variable(ring, 0)], ring=ring)) is False


@pytest.mark.parametrize("prime", [65521, 2**31 - 1])
def test_every_skipped_degree_has_values_of_full_rank(prime, monkeypatch):
    # the walk down stops once a degree's values span R_s; every lower
    # degree it skips has all-minors values spanning its own R_s, so its
    # locus is empty, as the propagation argument says
    calls = _recorded_minors(monkeypatch)
    skipped = 0
    for seed in (1, 2):
        for a, b in [(a, (0,)) for a in CI_GRID] + N2_GRID:
            m = generic_module(DegreeData(a, b), seed, prime)
            middle = _middle(m)
            del calls[:]
            assert locus_ideal(m, middle) is True, (a, b, seed)
            deg = m.degrees
            visited = {i for i, _, _ in calls} | {deg.middle_degree}
            for i in range(deg.b[0] - 1, deg.d - 3 - deg.middle_degree):
                size = min(m.h(i), m.h(i + 1))
                if size and i not in visited:
                    assert i < min(visited), (a, b, seed, i)
                    values = lef._lattice_minors(m.variable_maps(i), size, prime)
                    assert _rank(values, prime) == comb(size + 2, 2), (a, b, seed, i)
                    skipped += 1
    assert skipped == 30


def test_all_minors_above_the_cap_is_a_named_error(monkeypatch, capsys):
    # the middle degree 3 of (3,4,4) is a 10 x 9 map: 55 points x 10 minors
    monkeypatch.setattr(lef, "_MAX_VALUES", 549)
    assert cli.main(["locus", "--a", "3,4,4", "--b", "0"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["type"] == "ValueError"
    assert report["error"] == ("the degree-3 minors of a 10 x 9 map take 55 points x 10 minors, "
                               "above the cap of 549 values")
    monkeypatch.setattr(lef, "_MAX_VALUES", 550)
    assert cli.main(["locus", "--a", "3,4,4", "--b", "0"]) == 0
