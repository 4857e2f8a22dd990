import contextlib
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
    Polynomial,
    basis_of,
    det_mod,
    evaluate,
    fold_localization,
    full_scan_is_lefschetz,
    line_values_measure,
    minor_basis,
    minor_forms,
    minors_at_points,
    rational_points_0dim,
    rows,
    socle_by_slices,
    specialize,
    variable,
)
from test_acceptance import CI_GRID, N2_GRID
from test_jumping import _WITNESS_FIXTURES, _monomial_344
from lefschetz_locus import cli, field_linalg, groebner, presentation, rand
from lefschetz_locus import lefschetz as lef
from lefschetz_locus.field_linalg import _matmul, _rref
from lefschetz_locus.groebner import (IdealMeasure, _table, _variable_saturations, same_ideal,
                                      saturate)
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
from lefschetz_locus.polyring import Ring, monomial_basis
from lefschetz_locus.presentation import (
    DegreeData,
    GradedModule,
    generic_module,
    presentation_from_strings,
    random_presentation,
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


def _no_intersect(monkeypatch):
    # the fallback tests membership in the three variable saturations and
    # never forms their intersection
    def forbidden(*args):
        raise AssertionError("the localization fallback intersected ideals")

    monkeypatch.setattr(groebner, "intersect", forbidden)


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
    assert li.degree == 3 and li.gens.shape == (4, 10)


def test_minors_of_222_middle_is_one_cubic_determinant():
    m = _module((2, 2, 2), (0,))
    li = locus_ideal_at(m, 1)
    assert li.degree == 3 and li.gens.shape == (1, 10)


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
    gens = minor_forms(m, i)
    assert len(gens) == count
    stream = rand.Stream(123)
    for _ in range(3):
        coords = random_line(m.prime, stream)
        assert [evaluate(g, coords) for g in gens] == _cofactor_minors(m, i, coords)


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
    values = [evaluate(g, line) for g in minor_forms(m, i)]
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
        ideal = locus_ideal_at(m, i)
        assert ideal.degree == 0 and ideal.gens.tolist() == [[1]]
    middle = lef.middle_basis(m)
    assert middle.is_unit and locus_ideal(m)


def _middle(m):
    return minor_basis(m, m.degrees.middle_degree)


def _held_by_every_other_degree(m, forms, s):
    """Do the degree-s ``forms`` lie in I_i^sat for every degree i other
    than the middle, as ``fold_localization`` asks of a middle ideal?
    ``_in_saturation`` on each degree with a nonzero map, none skipped."""
    ring, deg = dual_ring(m), m.degrees
    return all(_in_saturation(rows(forms, s), s, lef._interpolate(m, i), size, ring)
               for i in range(deg.b[0] - 1, deg.socle_degree + 1)
               if i != deg.middle_degree and (size := min(m.h(i), m.h(i + 1))))


def test_middle_basis_is_the_middle_ideal_shared_per_module():
    # the measurement and the localization of one row read one basis: it
    # is built once for a module and again for the next one
    m, other = _module((2, 2, 3), (0,)), _module((2, 2, 3), (0,), seed=2)
    middle = lef.middle_basis(m)
    assert middle.basis == _middle(m).basis
    assert lef.middle_basis(m) is middle
    assert lef.middle_basis(other).basis == _middle(other).basis
    assert lef.middle_basis(m) is not middle and lef.middle_basis(m).basis == middle.basis


@pytest.mark.parametrize("seed", [1, 2])
def test_localization_agrees_with_fold_oracle_on_criterion_8(seed):
    for a, b in [(a, (0,)) for a in CI_GRID] + N2_GRID:
        m = _module(a, b, seed=seed)
        assert locus_ideal(m) is fold_localization(m, lef.middle_basis(m)) is True, (a, b)


def test_localization_agrees_with_fold_oracle_off_the_grid():
    # ``locus_ideal`` visits one degree of each Serre-dual pair below the
    # middle and the oracle every degree: they agree on the middle ideal,
    # on the explicit presentations (pure powers among them) and on
    # (2,3,3).  On (l1), ``_in_saturation`` on every degree but the middle
    # agrees with the fold, since saturation commutes with intersection
    modules = [_explicit(a, b, grid, 65521) for a, b, grid in EXPLICIT_PAIRS]
    for m in modules + [_module((2, 3, 3), (0,))]:
        assert locus_ideal(m) is fold_localization(m, lef.middle_basis(m)) is True
        ring = dual_ring(m)
        l1 = variable(ring, 0)
        want = fold_localization(m, basis_of([l1]))
        assert _held_by_every_other_degree(m, [l1], 1) is want, m.degrees


def test_localization_fails_where_a_degree_misses_the_middle(monkeypatch):
    # l1 vanishes at none of the six points that the cubic minor ideals of
    # degrees 1 and 2 of (2,2,3) cut out, so (l1) lies in neither
    # saturation and the fold grows; each degree is decided by normal forms
    # against its three variable saturations, with no intersection
    m = _module((2, 2, 3), (0,))
    ring = dual_ring(m)
    l1 = variable(ring, 0)
    want = fold_localization(m, basis_of([l1]))
    _no_intersect(monkeypatch)
    calls = _counting_saturations(monkeypatch)
    for i in (1, 2):
        held = _in_saturation(rows([l1], 1), 1, lef._interpolate(m, i), 3, ring)
        assert held is want is False, i
    assert len(calls) == 2


def test_lower_degree_middle_is_shifted_up_to_each_minor_degree(monkeypatch):
    # on (2,3,3) the minors at degrees 0 and 4 span R_1 and those at 1 and 3
    # span R_3, so (l1) passes each of them by rank alone, as the fold
    # agrees; so does the module's own middle ideal in ``locus_ideal``
    m = _module((2, 3, 3), (0,))
    ring = dual_ring(m)
    l1 = variable(ring, 0)
    assert fold_localization(m, basis_of([l1]))
    monkeypatch.setattr(lef, "_variable_saturations", _forbidden)
    for i in (0, 1, 3, 4):
        size = min(m.h(i), m.h(i + 1))
        assert _in_saturation(rows([l1], 1), 1, lef._interpolate(m, i), size, ring), i
    assert locus_ideal(m)
    # (l1) against l1 * m passes in degree D = 2 > 1, without saturation
    l1, l2, l3 = (variable(ring, v) for v in range(3))
    assert _in_saturation(rows([l1], 1), 1,
                          rows((l1 * l1, l1 * l2, l1 * l3), 2), 2, ring)


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
    assert _in_saturation(rows([l3], 1), 1,
                          rows((l1 * l1, l2 * l2, l3 * l3, l1 * l2), 2), 2, R)
    assert len(calls) == 1


def test_saturation_rejects_a_form_off_the_locus(monkeypatch):
    # (l1) against (l2): the line l2 = 0 is saturated and misses l1; nothing
    # but the zero form lies in the zero ideal (no coefficient rows)
    l1, l2 = variable(R, 0), variable(R, 1)
    _no_intersect(monkeypatch)
    calls = _counting_saturations(monkeypatch)
    mid = rows([l1], 1)
    assert not _in_saturation(mid, 1, rows((l2,), 1), 1, R)
    assert not _in_saturation(mid, 1, np.zeros((0, 3), dtype=np.int64), 1, R)
    assert _in_saturation(mid[:0], 1, rows((l2,), 1), 1, R)
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
    k = locus_ideal_at(m, i).degree
    basis = {Polynomial(f.ring, f.terms) for f in minor_basis(m, i).basis}
    power = {Polynomial(dual_ring(m), {mono: 1}) for mono in monomial_basis(k).monomials}
    assert (basis == power) is spans
    if spans:
        assert (k, len(basis)) == (10, 66)
    values = lef._lattice_minors(m.variable_maps(i), k, m.prime)
    assert (len(_rref(values, m.prime)[1]) == len(values)) is spans
    middle = [Polynomial(f.ring, f.terms) for f in _middle(m).basis]
    mid = [g for g in middle if g.degree() == middle[0].degree()]
    s_mid = mid[0].degree()
    assert _in_saturation(rows(mid, s_mid), s_mid, lef._interpolate(m, i), k,
                          dual_ring(m))


@pytest.mark.parametrize("a,calls", [((4, 4, 4), []), ((3, 4, 4), []), ((2, 2, 4), [2, 1])])
def test_localization_interpolates_only_degrees_whose_values_fall_short(a, calls, monkeypatch):
    # the middle locus is measured on one seeded line, with no
    # interpolation, and every other degree of (4,4,4) has minor values of
    # full rank, so a survey row interpolates nothing.  On (3,4,4) degree 4
    # has 10 minors of degree 9, which cannot span the 55 forms of R_9, but
    # it is the Serre dual of the middle degree 3 and is never visited.  On
    # (2,2,4) the values of degree 1 fall short: only then is the middle
    # degree 2 interpolated, for its basis, and then degree 1's forms
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
    # middle form: its values have rank 0 and the verdict is False.  The
    # middle basis is built, and kept for the module, before the minors
    # are zeroed
    m = _module((2, 2, 3), (0,))
    lef.middle_basis(m)
    minors = lef._lattice_minors
    monkeypatch.setattr(lef, "_lattice_minors", lambda *args: minors(*args) * 0)
    assert locus_ideal(m) is False


def test_localization_names_a_prime_too_small_for_another_degree():
    # at p = 7 the minors of the middle degree 3 of (3,4,4) and of its dual
    # 4 (size 9) cannot be decided: each raises the named error of its own
    # degree, and the localization test raises the middle's, whose basis
    # it builds first.  At p = 11 every degree is decided
    m = generic_module(DegreeData((3, 4, 4), (0,)), 1, 7)
    for i in (3, 4):
        with pytest.raises(ValueError, match=f"degree-{i} minors: the locus needs a prime "
                                             "above the minor size 9"):
            locus_ideal_at(m, i)
    with pytest.raises(ValueError, match="degree-3 minors"):
        locus_ideal(m)
    assert locus_ideal(generic_module(DegreeData((3, 4, 4), (0,)), 1, 11))


@st.composite
def _stacks(draw, minor_size=0, prime=0):
    """Three random n x s maps (or their transposes) mod a small or large
    prime (or ``prime``), as ``_lattice_minors`` takes them: plain, with a
    rank drop at every point, or with a zero first row, so that the leading
    s x s block is singular and, for n > s, the first pivot comes from
    below.  With a ``minor_size`` k the minors taken have size k: corank k
    below s (the kernel route), or s = k with n = k or n >= 2k (the
    subset route)."""
    p = prime or draw(st.sampled_from([7, 13, 65521, 2**31 - 1]))
    if minor_size:
        k = minor_size
        s = draw(st.integers(k + 1, 5) | st.just(k))
        n = s + k if s > k else draw(st.sampled_from([k, *range(2 * k, 7)]))
    else:
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


def _eliminate_route(maps, size: int, p: int, weights=None) -> np.ndarray:
    """``_lattice_minors`` with every k x k minor, k <= 3 included, taken by
    ``_eliminate``, all chart points in one stack: the route that minors
    of size 1 to 3 now skip."""
    tall = maps if maps.shape[1] >= maps.shape[2] else maps.transpose(0, 2, 1)
    n = tall.shape[1]
    by_kernel, k = lef._minor_shape(n, size)
    subsets, eps = np.array(list(combinations(range(n), k)), dtype=np.intp), 1
    if by_kernel and weights is None:
        subsets = subsets[::-1]
        eps = (-1) ** ((n * (n - 1) // 2 - subsets.sum(axis=1) + size * (size + 3) // 2) % 2)
    points = np.array(monomial_basis(size).monomials, dtype=np.int64)
    points[:, 0] = 1
    mats, lam = np.tensordot(points, tall, 1) % p, 1
    if by_kernel:
        mats = np.concatenate([mats, np.tile(np.eye(n, dtype=np.int64), (len(mats), 1, 1))], 2)
        lam = lef._eliminate(mats, size, p)[:, None] * eps % p
        mats = mats[:, size:, size:].transpose(0, 2, 1)
    square = (mats[:, subsets] if weights is None
              else _matmul(weights.transpose(0, 2, 1)[None], mats[:, None], p))
    return lef._eliminate(square.reshape(-1, k, k), k, p).reshape(len(mats), -1) * lam % p


@settings(max_examples=80, deadline=None)
@given(stack=_stacks(minor_size=1), data=st.data())
def test_minors_of_size_one_skip_elimination_exactly(stack, data):
    # corank 1 (the kernel route) and maps of size 1 (the subset route)
    # take minors of size 1, which are read as entries: the values equal
    # the elimination route's, with every minor and with seeded weights
    p, s, maps = stack
    n = max(maps.shape[1:])
    assert lef._minor_shape(n, s)[1] == 1
    count = data.draw(st.integers(1, 6))
    weights = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=count * n,
                                          max_size=count * n)), dtype=np.int64)
    for w in (None, weights.reshape(count, n, 1)):
        assert (lef._lattice_minors(maps, s, p, w) == _eliminate_route(maps, s, p, w)).all()


@pytest.mark.parametrize("p", [13, 65521, 2**31 - 1])
@pytest.mark.parametrize("k", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_minors_of_size_two_and_three_take_closed_forms_exactly(k, p, data):
    # the kernel route at corank 2 and 3 and the subset route with a side
    # of 2 and 3 take cofactor formulas: the values equal the elimination
    # route's, with every minor and with seeded weights, whether the chart
    # points go in one batch or one point per batch
    _, s, maps = data.draw(_stacks(minor_size=k, prime=p))
    n = max(maps.shape[1:])
    assert lef._minor_shape(n, s)[1] == k
    count = data.draw(st.integers(1, 6))
    weights = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=count * n * k,
                                          max_size=count * n * k)), dtype=np.int64)
    with pytest.MonkeyPatch.context() as patch:
        for batch in (lef._BATCH, 1):
            patch.setattr(lef, "_BATCH", batch)
            for w in (None, weights.reshape(count, n, k)):
                want = _eliminate_route(maps, s, p, w)
                assert (lef._lattice_minors(maps, s, p, w) == want).all()


@settings(max_examples=80, deadline=None)
@given(stack=_stacks(), data=st.data())
def test_lattice_minors_eliminate_only_kernels_and_squares_above_three(stack, data):
    # _eliminate sees the [M | I] kernel elimination, or square stacks of
    # size >= 4; every minor of size <= 3 is a closed form
    p, s, maps = stack
    n = max(maps.shape[1:])
    k = lef._minor_shape(n, s)[1]
    weights = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=3 * n * k,
                                          max_size=3 * n * k)), dtype=np.int64)
    calls, eliminate = [], lef._eliminate

    def counted(stack, cols, p):
        calls.append((stack.shape[1:], cols))
        return eliminate(stack, cols, p)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lef, "_eliminate", counted)
        for w in (None, weights.reshape(3, n, k)):
            lef._lattice_minors(maps, s, p, w)
    for (rows, width), cols in calls:
        assert (rows, width) == (n, n + s) and cols == s or rows == width == cols >= 4
    assert any(rows == width for (rows, width), _ in calls) == (k >= 4)


def _edge_matrices(k: int, p: int) -> list[list[list[int]]]:
    """k x k residue matrices near the int64 edge at p = 2^31 - 1: the
    all-(p - 1) matrix, matrices of 0, 1, p - 2 and p - 1, and uniform
    random ones."""
    draw = random.Random(k)
    mats = [[[p - 1] * k for _ in range(k)]]
    mats += [[[draw.choice((0, 1, p - 2, p - 1)) for _ in range(k)] for _ in range(k)]
             for _ in range(60)]
    return mats + [[[draw.randrange(p) for _ in range(k)] for _ in range(k)]
                   for _ in range(60)]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_eliminate_is_exact_at_the_int64_edge(k):
    # at p = 2^31 - 1 an update sums row * piv and row_j * (p - pivot row),
    # up to (p - 1)(2p - 1), just below 2^63: entries of p - 1 and 0 reach
    # it.  Every determinant equals the cofactor expansion in Python ints
    p = 2**31 - 1
    mats = _edge_matrices(k, p)
    got = lef._eliminate(np.array(mats, dtype=np.int64), k, p)
    assert got.tolist() == [det_mod(a, p) for a in mats]


@pytest.mark.parametrize("k", [2, 3])
def test_cofactor_det_is_exact_at_the_int64_edge(k):
    # at p = 2^31 - 1 a 2 x 2 determinant sums products up to
    # (p - 1)(2p - 1), and a 3 x 3 expansion's three terms reach about 3p^2,
    # past 2^63: the last matrix has cofactors p - 1, 0 and p - 1 under a
    # first row of p - 1, so an unreduced sum overflows.  Every determinant
    # equals the cofactor expansion in Python ints
    p = 2**31 - 1
    mats = _edge_matrices(k, p) + [[[p - 1, p - 1], [0, p - 1]] if k == 2
                                   else [[p - 1, p - 1, p - 1], [0, 1, 0], [1, 0, p - 1]]]
    got = lef._cofactor_det(np.array(mats, dtype=np.int64), p)
    assert got.tolist() == [det_mod(a, p) for a in mats]


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([13, 65521, 2**31 - 1]), s=st.integers(0, 12),
       cols=st.integers(1, 5), seed=st.integers(0, 2**32))
@example(p=13, s=12, cols=5, seed=0)  # s = p - 1: every 1/i!, i <= s, exists mod p
@example(p=2**31 - 1, s=12, cols=5, seed=1)
def test_interpolation_round_trips_random_forms(p, s, cols, seed):
    # coefficient rows of random degree-s forms (in grevlex order), evaluated
    # in Python ints at the chart points (1, b, c) (in ``monomial_basis``
    # order) and interpolated back exactly
    monos = _table(s)[1]
    draw = random.Random(seed)
    coeffs = [[draw.randrange(p) for _ in monos] for _ in range(cols)]
    values = np.array([[sum(f * b ** j * c ** k for f, (_, j, k) in zip(row, monos)) % p
                        for row in coeffs] for _, b, c in monomial_basis(s).monomials],
                      dtype=np.int64)
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
        lhs = saturate(minor_basis(m, i_star))
        rhs = saturate(minor_basis(m, i_star + 1))
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
    points = rational_points_0dim(minor_basis(m, m.degrees.middle_degree))
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
    # i <= d - 3 - w, w the top degree of a minimal generator.  By Serre
    # duality d - 3 - w is the lowest socle degree.  On (1,3,4,5 | 0,5) a
    # unit entry cancels the generator of degree 5, so the bound is 5, not
    # d - 3 - b_n = 0, and degree 0 is no longer ranked below an injective
    # degree 1
    m = (GradedModule.build(_monomial_344(13)) if seed is None
         else generic_module(DegreeData(a, b), seed, 13))
    deg = m.degrees
    bound = min(m.socle())
    if a == (1, 3, 4, 5):
        assert (bound, deg.d - 3 - deg.b[-1]) == (5, 0)
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
                if i not in failing and m.h(i) <= m.h(i + 1) and i <= bound:
                    break
        assert ranked == want, line
        if a == (1, 3, 4, 5) and ok:  # the middle degree 2 (3 -> 3) alone
            assert ranked == [2], line


def test_injectivity_passes_down_only_from_a_rising_degree_below_the_bound():
    # maximal rank is injective only where h_i <= h_(i+1), and injectivity
    # passes down only from i <= d - 3 - w, w the top degree of a minimal
    # generator; with d = 8 and w = 3 the bound is 2: degree 2 falls
    # (4 -> 2), degree 3 rises but lies above it.  With the generator of
    # degree 3 cancelled, w = 0 and degree 3 passes too
    hilb = {0: 1, 1: 3, 2: 4, 3: 2, 4: 5}
    for gens, want in [((0, 3), [True, True, False, False]), ((0,), [True, True, False, True])]:
        m = SimpleNamespace(degrees=DegreeData((2, 2, 3, 4), (0, 3)), h=lambda t: hilb.get(t, 0),
                            pres=SimpleNamespace(generator_degrees=gens))
        assert [lef._injective_below(m, i) for i in range(4)] == want, gens


@pytest.mark.parametrize("a,b,seed,gens", [
    ((2, 2, 3), (0,), 1, (0,)),
    ((2, 3, 4, 4, 5), (0, 0, 2), 1, (0, 0)),  # a unit entry from a = 2 to b = 2
    ((1, 3, 4, 5), (0, 5), 1, (0,)),
    ((2, 2, 3, 3), (0, 1), 1, (0, 1)),
])
def test_generator_degrees_are_the_duals_of_the_socle(a, b, seed, gens):
    # Serre duality pairs the socle with M / mM: a minimal generator of
    # degree w is a socle element of degree d - 3 - w
    m = generic_module(DegreeData(a, b), seed)
    assert m.pres.generator_degrees == gens
    assert sorted(m.degrees.d - 3 - w for w in gens) == sorted(m.socle())


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
    gens = minor_forms(m, i_star)
    stream = rand.Stream(55)
    from lefschetz_locus.field_linalg import rank

    lines = [random_line(m.prime, stream) for _ in range(100)]
    lines += rational_points_0dim(minor_basis(m, i_star)) or []
    for coords in lines:
        all_vanish = all(evaluate(g, coords) == 0 for g in gens)
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

    def recorded(m, i, size, count=0):
        calls.append((i, size, bool(count)))
        return values(m, i, size, count)

    monkeypatch.setattr(lef, "_minor_values", recorded)
    return calls


def test_survey_rows_visit_down_to_the_first_injective_degree(monkeypatch):
    # (4,4,4): the middle degree 4, a 12 x 12 square, is certified by the
    # rank of its map at the first point of the seeded line, with no minor
    # value; degree 3 is a 12 x 10 map, 3 <= d - 3 - w = 9, whose values
    # reach rank C(12, 2) = 66, so degrees 2 down to -1, and their duals 6
    # to 9, are never evaluated.  (3,4,4), d odd: the middle 3, a 10 x 9
    # map, is certified by one elimination of its pencil on the line and a
    # Kalman rank, and degree 4, its dual, is not visited; degree 2, a 9 x 6
    # map with 84 maximal minors, comes first, and its 32 compressed columns
    # reach rank 28 = C(8, 2): no value matrix of all 84 minors is built,
    # and degrees 1 down to -1 are skipped.  No row takes a minor value or
    # a basis for the middle
    for a, want in [((4, 4, 4), [(3, 10, False)]), ((3, 4, 4), [(2, 6, True)])]:
        calls, measured = _recorded_minors(monkeypatch), []
        monkeypatch.setattr(lef, "measure", lambda gb: measured.append(gb))
        row = cli.survey_row({"a": list(a), "b": [0], "seed": 1, "prime": 65521,
                              "matrix": None, "localization": True})
        assert {"claim": "middle-localization", "ok": True} in row["claims"]
        assert calls == want and measured == [], a
        monkeypatch.undo()


def _propagated_visits(m):
    """The (degree, size, compressed?) calls that ``locus_ideal`` makes when
    no compressed rank is full: one degree of each Serre-dual pair
    (i, d - 4 - i) with i < i*, less the empty maps, down from i* - 1
    through the first degree whose all-minors values have rank C(s+2, 2),
    with h_i <= h_(i+1) and i <= the lowest socle degree (d - 3 - w, w the
    top degree of a minimal generator).  The middle pair, i* and for odd d
    its dual i* + 1, is never visited."""
    deg = m.degrees
    out = []
    for i in range(deg.middle_degree - 1, deg.b[0] - 2, -1):
        size = min(m.h(i), m.h(i + 1))
        if not size:
            continue
        points = comb(size + 2, 2)
        if comb(max(m.h(i), m.h(i + 1)), size) > points + 4:
            out.append((i, size, True))
        out.append((i, size, False))
        full = _rank(lef._lattice_minors(m.variable_maps(i), size, m.prime), m.prime) == points
        if full and m.h(i) <= m.h(i + 1) and i <= min(m.socle()):
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
    # visits are one degree of each dual pair below the middle, down to the
    # first injective one; the other degree of a pair, and the middle pair,
    # are never evaluated.  The pure-power (3,4,4), whose maps drop rank at
    # many chart points, is covered too: 3 of the grid's 18 calls and 2 of
    # its 4 are compressed
    monkeypatch.setattr(lef, "_weights", lambda n, k, count, p: np.zeros((count, n, k), np.int64))
    calls = _recorded_minors(monkeypatch)
    visits = []
    modules = [_module(a, b) for a, b in [(a, (0,)) for a in CI_GRID] + N2_GRID]
    for m in modules + [GradedModule.build(_monomial_344(65521))]:
        lef.middle_basis(m)
        del calls[:]
        assert locus_ideal(m) is True, m.degrees
        assert calls == _propagated_visits(m), m.degrees
        assert all(i < m.degrees.middle_degree for i, _, _ in calls), m.degrees
        visits += calls
    assert sum(call[2] for call in visits) == 5 and len(visits) == 22


@pytest.mark.parametrize("prime", [65521, 2**31 - 1])
def test_every_skipped_degree_has_values_of_full_rank(prime, monkeypatch):
    # below the middle, the walk down stops once a degree's values span
    # R_s; every lower degree it skips by propagation has all-minors values
    # spanning its own R_s, so its locus is empty, as the propagation
    # argument says.  The middle's dual i* + 1 (d odd) is skipped by
    # duality instead: its values span the middle's.  (1,3,4,5 | 0,5), whose
    # unit entry lowers the top generator degree from 5 to 0, is covered too
    calls = _recorded_minors(monkeypatch)
    by_duality = by_propagation = 0
    fixtures = [(a, (0,)) for a in CI_GRID] + N2_GRID + [((1, 3, 4, 5), (0, 5))]
    for seed in (1, 2):
        for a, b in fixtures:
            m = generic_module(DegreeData(a, b), seed, prime)
            lef.middle_basis(m)
            del calls[:]
            assert locus_ideal(m) is True, (a, b, seed)
            deg = m.degrees
            mid = deg.middle_degree
            visited = {i for i, _, _ in calls}
            for i in range(deg.b[0] - 1, deg.d - 3 - mid):
                size = min(m.h(i), m.h(i + 1))
                if not size or i in visited or i == mid:
                    continue
                values = lef._lattice_minors(m.variable_maps(i), size, prime)
                if i > mid:
                    assert i == deg.d - 4 - mid == mid + 1, (a, b, seed, i)
                    middle = lef._lattice_minors(m.variable_maps(mid), size, prime)
                    assert _rank(values, prime) == _rank(middle, prime) == _rank(
                        np.hstack([values, middle]), prime), (a, b, seed)
                    by_duality += 1
                    continue
                assert i < min(visited | {mid}), (a, b, seed, i)
                assert _rank(values, prime) == comb(size + 2, 2), (a, b, seed, i)
                by_propagation += 1
    assert (by_duality, by_propagation) == (12, 30)


@pytest.mark.parametrize("prime", [65521, 2**31 - 1])
def test_the_dual_of_the_middle_has_the_middle_minor_forms(prime):
    # d odd: the minor ideals of i* and of its Serre dual i* + 1 are one
    # ideal, generated in the one degree s, so their interpolated forms span
    # one space of forms and have one reduced row echelon form.  That is why
    # ``locus_ideal`` visits neither degree of the middle pair
    odd = 0
    for a, b in [(a, (0,)) for a in CI_GRID] + N2_GRID:
        m = generic_module(DegreeData(a, b), 1, prime)
        mid = m.degrees.middle_degree
        if m.degrees.d % 2 == 0:
            continue
        forms = [_rref(lef._interpolate(m, i), prime) for i in (mid, mid + 1)]
        assert forms[0][1] == forms[1][1], (a, b)
        rows = len(forms[0][1])
        assert (forms[0][0][:rows] == forms[1][0][:rows]).all(), (a, b)
        assert all(i != mid + 1 for i, _, _ in _propagated_visits(m)), (a, b)
        odd += 1
    assert odd == 6


@pytest.mark.parametrize("a,digest", [
    ((2, 2, 4), "c4daf70ee4c9b235"),  # a 4 x 4 square, kernel and subset minors of size 1
    ((2, 3, 3), "d51a03485d29c609"),  # a 5 x 5 square, kernel minors of size 2
    ((3, 3, 3), "825fa2bddaaf654d"),  # 14 seeded combinations of 3 x 3 subset minors
    ((3, 4, 4), "55d37233692ac830"),  # 32 seeded combinations of 3 x 3 kernel minors
    ((4, 4, 5), "3e10671367eb535a"),  # 70 of them
    ((5, 5, 5), "81c192ceecf59a95"),  # 140 of them, and a 19 x 18 kernel step
], ids=["2,2,4", "2,3,3", "3,3,3", "3,4,4", "4,4,5", "5,5,5"])
def test_localization_minor_values_are_pinned(a, digest, monkeypatch):
    # SHA-256 of every ``_minor_values`` array that ``middle_basis`` and
    # then ``locus_ideal`` ask for at p = 2^31 - 1, seed 1, in call order,
    # with its degree, minor size and combination count (0 for all minors).
    # Outside the middle degree a value matrix is only ranked, so an inexact
    # value that keeps its rank leaves every report unchanged; this sees it.
    # ``locus_ideal`` builds the middle basis only where a degree falls
    # short, so it is asked for first, as the walk used to
    import hashlib

    h, values = hashlib.sha256(), lef._minor_values

    def hashed(m, i, size, count=0, points=None):
        assert points is None
        out = values(m, i, size, count)
        h.update(np.array([i, size, count, *out.shape], dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(out, dtype=np.int64).tobytes())
        return out

    monkeypatch.setattr(lef, "_minor_values", hashed)
    m = generic_module(DegreeData(a, (0,)), 1, 2**31 - 1)
    lef.middle_basis(m)
    assert locus_ideal(m)
    assert h.hexdigest()[:16] == digest


def test_all_minors_above_the_cap_is_a_named_error(monkeypatch, capsys, tmp_path):
    # the middle degree 3 of (3,4,4) is a 10 x 9 map: 55 points x 10 minors.
    # The pure-power module's middle minors vanish on a curve, which meets
    # the seeded line, so its locus takes every minor at every chart point
    # and the middle basis; the seeded module's takes only the 10 x 10
    # values on the line
    grid = tmp_path / "monomial.json"
    grid.write_text(json.dumps([["x1^3", "x2^4", "x3^4"]]))
    argv = ["locus", "--a", "3,4,4", "--b", "0", "--matrix", str(grid)]
    monkeypatch.setattr(lef, "_MAX_VALUES", 549)
    assert cli.main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["type"] == "ValueError"
    assert report["error"] == ("the degree-3 minors of a 10 x 9 map take 55 points x 10 minors, "
                               "above the cap of 549 values")
    assert cli.main(["locus", "--a", "3,4,4", "--b", "0"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(lef, "_MAX_VALUES", 550)
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "generality-required"


_COORD = st.just(-1) | st.integers(0, 2**31)  # a coordinate, taken mod p; -1 is p - 1


@settings(max_examples=100, deadline=None)
@given(stack=_stacks(), points=st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=1,
                                        max_size=4))
@example(stack=(2**31 - 1, 2, (2**31 - 2) * np.array([[[1, 1]] * 3] * 2 + [[[0, 1], [1, 0], [1, 1]]])),
         points=[(-1, -1, -1), (-1, 0, -1)])
def test_lattice_minors_at_given_points_match_cofactor_determinants(stack, points):
    # the oracle ``minors_at_points``, by which the line-values decision of
    # the middle is checked, takes the chart to the default route of
    # ``_lattice_minors``, and any points to every minor at each point, in
    # Python ints.  Near 2^31 one (p - 1) * (p - 1) is about 2^62, and three
    # of them pass 2^63, so each l_v * maps[v] is reduced before the sum;
    # the example has entries of p - 1 in all three maps at only some
    # positions, so an unreduced sum would change some entries and not
    # others, and with them the minors
    p, s, maps = stack
    chart = np.array(monomial_basis(s).monomials, dtype=np.int64)
    chart[:, 0] = 1
    assert (minors_at_points(maps, s, p, chart) == lef._lattice_minors(maps, s, p)).all()
    points = [[x % p for x in point] for point in points]
    values = minors_at_points(maps, s, p, points)
    assert values.shape[0] == len(points)
    for point, row in zip(points, values):
        a = [[sum(point[v] * int(maps[v][r][c]) for v in range(3)) % p
              for c in range(maps.shape[2])] for r in range(maps.shape[1])]
        a = a if len(a) >= len(a[0]) else [list(col) for col in zip(*a)]
        want = [det_mod([a[r] for r in rows], p) for rows in combinations(range(len(a)), s)]
        assert [int(x) for x in row] == want, point


@pytest.mark.parametrize("p", [2, 13, 65521, 2**31 - 1])
def test_line_points_are_one_seeded_line(p):
    # s + 1 distinct points l + lambda Q of one line: l the module's seeded
    # line, whose sections the build records, and Q the first draw of the
    # fixed-tag stream that is not a multiple of l; cached, so read-only
    line = presentation._seeded_line(p)
    stream = rand.Stream(rand.derive(0, 0x11AE))
    while True:
        q = [stream.below(p) for _ in range(3)]
        (x1, x2, x3), (y1, y2, y3) = line, q
        if any(v % p for v in (x2 * y3 - x3 * y2, x3 * y1 - x1 * y3, x1 * y2 - x2 * y1)):
            break
    for s in range(min(p - 1, 6) + 1):
        got = lef._line_points(s, p)
        assert lef._line_points(s, p) is got and not got.flags.writeable
        assert got.tolist() == [[(x + lam * y) % p for x, y in zip(line, q)]
                                for lam in range(s + 1)]
        assert got[0].tolist() == list(line)
        assert len({tuple(point) for point in got.tolist()}) == s + 1


_MIDDLE_TWISTS = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)).map(
    lambda a: (tuple(sorted(a)), (0,))) | st.sampled_from(
    N2_GRID + [((2, 2, 3, 3), (0, 1)), ((2, 2, 2, 3), (0, 2)), ((1, 1, 1, 2, 2), (0, 0, 0)),
               ((2, 2, 2, 2, 2), (0, 1, 1)), ((2, 3, 3, 4), (0, 1)),
               ((2, 3, 4, 4, 5), (0, 0, 2))])


def _outcome(f, m):
    try:
        return f(m)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([13, 65521, 2**31 - 1]), seed=st.integers(1, 10**6),
       twist=_MIDDLE_TWISTS)
@example(p=13, seed=1, twist=((3, 4, 4), (0,)))  # s = 9 < 13
@example(p=13, seed=1, twist=((4, 4, 5), (0,)))  # s = 15: the middle's named error
def test_middle_measure_is_the_measure_of_the_middle_basis(p, seed, twist):
    # the line's certificate, or its fallback, gives the measure of the
    # middle Groebner basis, or the same named error, on seeded modules with
    # n = 1, 2 and 3 (square and corank-1 middles).  The line l + lambda Q
    # through the seeded line certifies exactly where the maximal minors'
    # values at its s + 1 points do (``line_values_measure``), and only
    # there is no basis measured
    try:
        m = generic_module(DegreeData(*twist), seed, p)
    except ValueError:  # no generic draw at a small prime
        assume(False)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lef, "measure", lambda gb: calls.append(gb) or groebner.measure(gb))
        got = _outcome(lef.middle_measure, m)
    lef.middle_basis.cache_clear()
    assert got == _outcome(lambda m: groebner.measure(lef.middle_basis(m)), m), m.degrees
    if isinstance(got, IdealMeasure):
        oracle = line_values_measure(m)
        assert (oracle is None) == bool(calls) and oracle in (None, got), m.degrees


class _Middle:
    """A stand-in certified module whose middle degree 0 maps by three given
    target x source matrices and whose Serre-dual degree 1 (d = 5) maps by
    their transposes: all that ``middle_measure`` and ``middle_basis``
    read, the map of a line and the seeded line's sections formed as the
    module's own.  Hashed by identity, as ``middle_basis`` caches."""

    multiplication_map = GradedModule.multiplication_map
    section = GradedModule.section
    certified = True

    def __init__(self, maps, p):
        self.maps, self.prime = np.array(maps, dtype=np.int64) % p, p
        self.degrees = SimpleNamespace(middle_degree=0, d=5)
        self._sections = {}

    def h(self, i):
        return {0: self.maps.shape[2], 1: self.maps.shape[1], 2: self.maps.shape[2]}.get(i, 0)

    def variable_maps(self, i):
        return self.maps if i == 0 else self.maps.transpose(0, 2, 1)


@st.composite
def _middles(draw):
    """Three (s + c) x s maps, c = 0, 1 or 2, mod p: random; a determinant
    or minors vanishing identically (a column repeated); minors sharing a
    linear factor (a first column L(l) w, so the locus holds the line
    L = 0); or minors vanishing at a point u, with the line moved through
    u, as its seeded point l, whose section then fails ("through-point"),
    or as its other point Q, where M(Q) is then singular ("singular-q").
    Returns the prime, the maps, the kind and u."""
    p = draw(st.sampled_from([13, 65521, 2**31 - 1]))
    s, c = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["random", "vanishing", "common-curve", "through-point",
                                 "singular-q"]))
    entry = st.integers(0, p - 1)
    maps = [[[draw(entry) for _ in range(s)] for _ in range(s + c)] for _ in range(3)]
    u = [draw(entry), draw(entry), 1]
    for v in range(3):
        for r in range(s + c):
            if kind == "vanishing" and s > 1:
                maps[v][r][-1] = maps[v][r][0]
            elif kind == "common-curve":
                maps[v][r][0] = u[v] * maps[0][r][-1] % p
            elif kind in ("through-point", "singular-q") and v == 2:  # column 0 vanishes at u
                maps[2][r][0] = -(u[0] * maps[0][r][0] + u[1] * maps[1][r][0]) % p
    return p, maps, kind, u


def _move_line(mp, kind, u, q, p, s):
    """Put the line through u: as its seeded point l, or as its other point
    Q, from the other point q.  False where u and q span no line, so
    nothing was moved."""
    if not any((u[j] * q[k] - u[k] * q[j]) % p for j, k in ((0, 1), (1, 2), (0, 2))):
        return False
    first, step = (u, q) if kind == "through-point" else (q, u)
    line = np.array([[(a + lam * b) % p for a, b in zip(first, step)] for lam in range(s + 1)])
    mp.setattr(lef, "_line_points", lambda size, prime: line)
    mp.setattr(presentation, "_seeded_line", lambda prime: tuple(first))
    return True


@settings(max_examples=150, deadline=None)
@given(middle=_middles(), q=st.tuples(_COORD, _COORD, _COORD))
@example(middle=(13, [[[1, 0], [0, 1], [0, 0]], [[0, 0], [1, 0], [0, 1]], [[0, 0]] * 3],
                 "random", [0, 0, 1]), q=(0, 0, 0))  # L_2^T in the first two variables
def test_middle_measure_falls_back_where_the_line_certifies_nothing(middle, q):
    # the measure equals that of the Groebner basis on every stack.  It is
    # read off the basis, by one ``measure`` call, wherever the line cannot
    # certify it: corank 2, minors vanishing identically, or corank 1 with a
    # locus that meets the line (a common curve meets every line; a line
    # through u meets its point, at l or at Q).  A square whose Q is
    # singular certifies or declines on its merits.  Whatever the line
    # certifies is the square's curve of degree s or the Hilbert-Burch
    # points.  The section and Kalman certificates, taken out of the dual
    # degree for corank 1, decide exactly as the maximal minors' values on
    # the line did (``line_values_measure``, the oracle): the line
    # certifies a middle exactly where its values do.  The seeded line's
    # section is formed once, out of one degree
    p, maps, kind, u = middle
    q = [x % p for x in q]
    m, calls = _Middle(maps, p), []
    s, n = m.h(0), m.h(1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lef, "measure", lambda gb: calls.append(gb) or groebner.measure(gb))
        if kind in ("through-point", "singular-q"):
            assume(_move_line(mp, kind, u, q, p, s))
        got = lef.middle_measure(m)
        oracle = line_values_measure(m)
    lef.middle_basis.cache_clear()
    want = groebner.measure(lef.middle_basis(m))
    assert got == want
    assert (oracle is None) == bool(calls) and oracle in (None, got)
    assert list(m._sections) == ([] if n - s == 2 else [0 if n == s else 1])
    if n - s == 2 or kind == "vanishing" and s > 1 or n > s and kind in (
            "common-curve", "through-point", "singular-q"):
        assert len(calls) == 1
    if not calls:  # certified on the line
        assert got == (IdealMeasure(1, s) if n == s else IdealMeasure(0, comb(s + 1, 2)))


@pytest.mark.parametrize("a,digest,reads", [
    ((2, 2, 4), "3926fe138e35afb4", "l"),  # a 4 x 4 square below t0 - 1: its own section
    ((2, 3, 3), "d14ff576358b8c96", ""),  # a 5 x 5 square, its section the build's
    ((3, 3, 3), "6bcf0ca75bfc7bb8", "Q"),  # 7 x 6: 7 minors at 7 points
    ((3, 4, 4), "fa9d7beee415e33a", "Q"),  # 10 x 9
    ((4, 4, 5), "29b524aa9a9ac0b9", "Q"),  # 14 x 13
    ((5, 5, 5), "b35b62070874a1a8", "Q"),  # 19 x 18
], ids=["2,2,4", "2,3,3", "3,3,3", "3,4,4", "4,4,5", "5,5,5"])
def test_middle_line_values_are_pinned(a, digest, reads, monkeypatch):
    # SHA-256 of the oracle's value array (``minors_at_points``) at
    # p = 2^31 - 1, seed 1, with its degree, minor size and shape: the
    # middle's maximal minors at the s + 1 points l + lambda Q of the line
    # through the seeded line l, which certify every one of these middles
    # (``line_values_measure``).  ``middle_measure`` certifies each with no
    # minor value and no basis, from the seeded line's section: a square
    # by l's section out of i*, onto, formed only where the build has not
    # recorded it (l, whose value, the array's first row, is nonzero), and
    # a corank-1 middle by the section out of the Serre-dual degree
    # d - 4 - i*, which the build recorded, and that degree's map at Q.
    # Where s <= 6 each value is also the cofactor oracle's
    import hashlib

    lines, forms = [], GradedModule.multiplication_map

    def recorded(m, line, t):
        lines.append((t, [int(c) for c in line]))
        return forms(m, line, t)

    m = generic_module(DegreeData(a, (0,)), 1, 2**31 - 1)
    i, d = m.degrees.middle_degree, m.degrees.d
    monkeypatch.setattr(GradedModule, "multiplication_map", recorded)
    monkeypatch.setattr(lef, "_minor_values", None)  # no minor value
    monkeypatch.setattr(lef, "measure", None)  # no fallback
    got = lef.middle_measure(m)
    s, n = sorted(m.h(t) for t in (i, i + 1))
    assert got == (IdealMeasure(1, s) if n == s else IdealMeasure(0, comb(s + 1, 2)))
    assert line_values_measure(m) == got
    points = lef._line_points(s, m.prime)
    out = minors_at_points(m.variable_maps(i), s, m.prime, points)
    h = hashlib.sha256(np.array([i, s, 0, *out.shape], dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(out, dtype=np.int64).tobytes())
    assert h.hexdigest()[:16] == digest
    line, q = points[0].tolist(), ((points[1] - points[0]) % m.prime).tolist()
    t = i if n == s else d - 4 - i
    assert m.section(t) is not None and out[0].any()  # l has rank s
    assert lines == [(t, {"l": line, "Q": q}[r]) for r in reads]
    if s <= 6:
        want = [_cofactor_minors(m, i, point) for point in points.tolist()]
        assert out.tolist() == want


@pytest.mark.parametrize("a,calls", [((4, 4, 4), []), ((3, 4, 4), ["rank", (9, 9)])])
def test_a_seeded_middle_takes_no_elimination_but_the_kalman_rank(a, calls, monkeypatch):
    # ``locus`` on (4,4,4) and (3,4,4), seed 1: the build recorded the
    # seeded line's section out of degree 4, i* of the square 12 x 12
    # middle and the Serre dual of i* = 3 of the 10 x 9 one, so the square
    # is certified with no rank and no elimination, and the corank-1
    # middle with the 9 x 9 Kalman rank alone
    m = cli.build_module({"a": list(a), "b": [0], "seed": 1, "prime": 65521, "matrix": None})
    got, rref = [], field_linalg._rref

    def counted(x, p):
        got.append(x.shape)
        return rref(x, p)

    for module in (field_linalg, presentation, lef):
        monkeypatch.setattr(module, "_rref", counted)
    monkeypatch.setattr(lef, "rank", lambda x, p: got.append("rank") or field_linalg.rank(x, p))
    monkeypatch.setattr(lef, "measure", None)  # no fallback
    lef.middle_measure(m)
    assert got == calls


_WITNESS_TWISTS = [(a, (0,)) for a in CI_GRID] + N2_GRID + [
    ((2, 2, 3, 3), (0, 1)), ((2, 3, 3, 4), (0, 1)), ((1, 1, 1, 2, 2), (0, 0, 0)),
    ((2, 2, 2, 2, 2), (0, 1, 1)), ((3, 3, 4, 4, 5), (0, 1, 1)), ((1, 1, 1, 8), (0, 0))]


@pytest.mark.parametrize("p", [13, 65521])
@pytest.mark.parametrize("a,b", _WITNESS_TWISTS)
def test_the_seeded_line_is_a_witness_only_where_it_is_lefschetz(a, b, p, monkeypatch):
    # after the middle (as in a survey row), the witness is the seeded line
    # with no rank wherever its recorded sections propagate; it is then a
    # Lefschetz element by the full scan of every degree, and else the
    # seeded stream is scanned as before.  Where the prime is not above the
    # middle minor size, the build's sections alone are recorded
    m = generic_module(DegreeData(a, b), 1, p)
    with contextlib.suppress(ValueError):
        lef.middle_measure(m)
    scans = []
    monkeypatch.setattr(lef, "is_lefschetz", lambda m, line: scans.append(line) or is_lefschetz(
        m, line))
    got = find_lefschetz_line(m, seed=1, tries=25)
    if not scans:
        assert got == presentation._seeded_line(p)
        assert full_scan_is_lefschetz(m, got)[0]
    else:
        assert got is None or got == scans[-1]
    if (a, b) in [((4, 4, 4), (0,)), ((3, 4, 4), (0,)), ((2, 2, 3, 3), (0, 1))] and p == 65521:
        assert not scans


@pytest.mark.parametrize("a,b", [((3, 4, 4), (0,)), ((4, 4, 5), (0,)), ((3, 3, 3, 3), (0, 0)),
                                 ((3, 3, 4, 4), (0, 1)), ((3, 3, 4, 4, 5), (0, 1, 1))])
@pytest.mark.parametrize("p", [13, 65521])
def test_socle_forms_no_map_below_the_first_relation(a, b, p):
    # below a_1 - 1 the pieces t and t + 1 are free, so the socle there is 0
    # and no map out of t is formed; the socle is the slices' everywhere
    m = GradedModule(random_presentation(DegreeData(a, b), 1, p), {})
    assert m.socle() == socle_by_slices(m.pres)
    assert min(m._maps, default=a[0] - 1) >= a[0] - 1
