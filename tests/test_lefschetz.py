import json
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import det_mod, evaluate, fold_localization, rational_points_0dim, specialize
from test_acceptance import CI_GRID, N2_GRID
from lefschetz_locus import cli, rand
from lefschetz_locus import lefschetz as lef
from lefschetz_locus.field_linalg import Matrix, _matmul, _rref
from lefschetz_locus.groebner import buchberger, same_ideal, saturate
from lefschetz_locus.lefschetz import (
    ZeroLineError,
    _coefficients,
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
    assert _in_saturation([l1], _coefficients((l1 * l1, l1 * l2, l1 * l3), 2), 2, ring)


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
    assert _in_saturation([l3], _coefficients((l1 * l1, l2 * l2, l3 * l3, l1 * l2), 2), 2, R)
    assert len(calls) == 1


def test_saturation_rejects_a_form_off_the_locus(monkeypatch):
    # (l1) against (l2): the line l2 = 0 is saturated and misses l1; nothing
    # but the zero form lies in the zero ideal (no coefficient rows)
    l1, l2 = Polynomial.variable(R, 0), Polynomial.variable(R, 1)
    calls = _counting_saturate(monkeypatch)
    assert not _in_saturation([l1], _coefficients((l2,), 1), 1, R)
    assert not _in_saturation([l1], np.zeros((0, 3), dtype=np.int64), 1, R)
    assert _in_saturation([], _coefficients((l2,), 1), 1, R)
    assert len(calls) == 2


@pytest.mark.parametrize("a,i,spans", [((4, 4, 4), 3, True), ((4, 4, 4), 5, True),
                                       ((2, 2, 3), 1, False)])
def test_spanned_degree_agrees_with_groebner_oracle(a, i, spans):
    # a degree whose minors span every form of their degree k has minor
    # values of full rank at the lattice points, which passes it without a
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
    assert _in_saturation(mid, lef._interpolate(m, i), k, dual_ring(m))


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
    # at p = 7 the minors of (3,4,4) below the middle degree 3 (sizes 1, 3
    # and 6) are decided, but those of degree 4 (size 9) cannot be: the
    # localization test raises the named error of ``locus_ideal_at``
    m = generic_module(DegreeData((3, 4, 4), (0,)), 1, 7)
    ring = dual_ring(m)
    middle = buchberger([Polynomial.variable(ring, 0)], ring=ring)
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
    return p, s, [Matrix(np.array(a, dtype=np.int64).T if wide else a, p) for a in maps]


@settings(max_examples=120, deadline=None)
@given(stack=_stacks())
def test_lattice_minors_match_cofactor_determinants(stack):
    # corank 0, 0 < c < s (one elimination and the left kernel) and c >= s
    # (the square submatrices) all give every minor at every lattice point
    p, s, maps = stack
    values = lef._lattice_minors(maps, s, p)
    points = monomial_basis(s).monomials
    assert values.shape[0] == len(points)
    for pt, row in zip(points, values):
        a = sum(c * mv.a for c, mv in zip(pt, maps)) % p
        a = a if a.shape[0] >= a.shape[1] else a.T
        want = [det_mod([[int(x) for x in a[r]] for r in rows], p)
                for rows in combinations(range(a.shape[0]), s)]
        assert [int(x) for x in row] == want, pt


def test_lattice_minors_of_monomial_module_match_cofactor_determinants():
    # the pure-power module (3,4,4) drops rank at many lattice points (all
    # of degree 4's minors vanish at each of its 55 points); every minor at
    # every point of every degree is checked
    pres = presentation_from_strings(DegreeData((3, 4, 4), (0,)), [["x1^3", "x2^4", "x3^4"]])
    m = GradedModule.build(pres)
    vanishing = 0
    for i in range(-1, m.degrees.socle_degree + 1):
        size = min(m.h(i), m.h(i + 1))
        if size == 0:
            continue
        values = lef._lattice_minors(m.variable_maps(i), size, m.prime)
        for pt, row in zip(monomial_basis(size).monomials, values):
            want = _cofactor_minors(m, i, pt)
            assert [int(x) for x in row] == want, (i, pt)
            vanishing += not any(want)
    assert vanishing == 56


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


def test_lattice_inverse_cache_holds_a_survey_pass(capsys):
    # a --localization survey over ci:2-4 and n2 interpolates fewer minor
    # sizes than the cache holds, so a second pass recomputes no inverse
    def survey():
        for grid in ("ci:2-4", "n2"):
            assert cli.main(["survey", "--grid", grid, "--localization", "--seed", "1"]) == 0
        capsys.readouterr()

    survey()
    misses = lef._lattice_inverse.cache_info().misses
    survey()
    assert lef._lattice_inverse.cache_info().misses == misses


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
    n = max(maps[0].rows, maps[0].cols)
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
    """(taller side, size, compressed?) of every ``_lattice_minors`` call."""
    calls = []
    minors = lef._lattice_minors
    monkeypatch.setattr(lef, "_lattice_minors", lambda maps, size, p, *w: calls.append(
        (max(maps[0].a.shape), size, bool(w))) or minors(maps, size, p, *w))
    return calls


def test_444_row_decides_degrees_2_and_6_on_compressed_values(monkeypatch):
    # degrees 2 and 6 of (4,4,4) are 10 x 6 maps with 210 maximal minors
    # each; their 32 compressed columns reach rank 28 = C(8, 2), so no
    # value matrix of all 210 minors is ever built
    calls = _recorded_minors(monkeypatch)
    row = cli.survey_row({"a": [4, 4, 4], "b": [0], "seed": 1, "prime": 65521,
                          "matrix": None, "localization": True})
    assert {"claim": "middle-localization", "ok": True} in row["claims"]
    assert calls.count((10, 6, True)) == 2 and (10, 6, False) not in calls


def test_zeroed_weights_fall_back_to_every_minor(monkeypatch):
    # compressed values of rank 0 decide nothing: each degree then takes
    # all of its minors, and the verdicts stay as they were
    monkeypatch.setattr(lef, "_weights", lambda n, k, count, p: np.zeros((count, n, k), np.int64))
    calls = _recorded_minors(monkeypatch)
    for a, b in [(a, (0,)) for a in CI_GRID] + N2_GRID:
        m = _module(a, b)
        assert locus_ideal(m, _middle(m)) is True, (a, b)
    compressed = [j for j, call in enumerate(calls) if call[2]]
    assert len(compressed) >= 16
    assert all(calls[j + 1] == calls[j][:2] + (False,) for j in compressed)
    m = _module((2, 2, 3), (0,))
    ring = dual_ring(m)
    assert locus_ideal(m, buchberger([Polynomial.variable(ring, 0)], ring=ring)) is False


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
