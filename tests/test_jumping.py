import pytest

from helpers import rational_points_0dim, sample_locus_points
from lefschetz_locus import rand
from lefschetz_locus.bundle import SplittingType, classify_stability, lefschetz_oracle
from lefschetz_locus.jumping import (
    RestrictionError,
    generic_splitting_empirical,
    line_point,
    restrict,
    section_matrix,
    splitting_type,
)
from lefschetz_locus.lefschetz import is_lefschetz, random_line
from lefschetz_locus.presentation import (
    DegreeData,
    GradedModule,
    generic_module,
    presentation_from_strings,
    random_presentation,
)

PRIME = 65521


def _monomial_344():
    return presentation_from_strings(DegreeData((3, 4, 4), (0,)),
                                     [["x1^3", "x2^4", "x3^4"]])


def test_line_point_geometry():
    lp = line_point((1, 2, 3), PRIME)
    assert lp.coords == (1, 2, 3)
    for col in range(2):
        dot = sum(lp.coords[i] * lp.param[i][col] for i in range(3)) % PRIME
        assert dot == 0


def test_line_point_rejects_zero():
    with pytest.raises(ValueError):
        line_point((0, 0, 0), PRIME)


def test_restrict_monomial_row_to_coordinate_line():
    # on the line x3 = 0 the row of pure powers becomes (s^3, u^4, 0)
    rb = restrict(_monomial_344(), line_point((0, 0, 1), PRIME))
    first, second, third = rb.entries[0]
    assert first.coeffs == (1, 0, 0, 0)
    assert second.coeffs == (0, 0, 0, 0, 1)
    assert not any(third.coeffs)


def test_restrict_entry_degrees():
    pres = random_presentation(DegreeData((2, 2, 2, 3), (0, 1)), seed=1)
    rb = restrict(pres, line_point((1, 5, 9), PRIME))
    for j, row in enumerate(rb.entries):
        for i, form in enumerate(row):
            assert form.degree == pres.degrees.a[i] - pres.degrees.b[j]


def test_restrict_detects_non_surjective_grid():
    # restricted row (s^2, s*u, s^3) has the common zero s = 0
    pres = presentation_from_strings(DegreeData((2, 2, 3), (0,)),
                                     [["x1^2", "x1*x2", "x1^3"]])
    with pytest.raises(RestrictionError):
        restrict(pres, line_point((0, 0, 1), PRIME))


def test_section_matrix_shapes():
    pres = random_presentation(DegreeData((2, 2, 3), (0,)), seed=2)
    rb = restrict(pres, line_point((1, 2, 3), PRIME))
    m = section_matrix(rb, 3)
    assert (m.rows, m.cols) == (4, 2 + 2 + 1)


def test_generic_splitting_223():
    pres = random_presentation(DegreeData((2, 2, 3), (0,)), seed=1)
    st = splitting_type(restrict(pres, line_point((1, 2, 3), PRIME)))
    assert st == SplittingType(-3, -4)
    stab = classify_stability(pres.degrees)
    assert st.shifted(stab.t0) == SplittingType(0, -1)


def test_generic_splitting_unstable():
    pres = random_presentation(DegreeData((1, 1, 1, 8), (0, 0)), seed=1)
    st = splitting_type(restrict(pres, line_point((1, 2, 3), PRIME)))
    stab = classify_stability(pres.degrees)
    assert st.shifted(stab.t0) == SplittingType(2, -3)


@pytest.mark.parametrize("a,b", [((2, 2, 3), (0,)), ((2, 2, 2), (0,)),
                                 ((2, 2, 2, 3), (0, 1)), ((1, 1, 1, 8), (0, 0))])
def test_splitting_sum_is_minus_total_twist(a, b):
    deg = DegreeData(a, b)
    pres = random_presentation(deg, seed=3)
    stream = rand.Stream(321)
    for _ in range(10):
        coords = random_line(PRIME, stream)
        st = splitting_type(restrict(pres, line_point(coords, PRIME)))
        assert st.total == -deg.d


def test_empirical_generic_type_is_deterministic_and_matches_prediction():
    from lefschetz_locus.bundle import generic_splitting

    pres = random_presentation(DegreeData((2, 2, 3), (0,)), seed=1)
    st1 = generic_splitting_empirical(pres, seed=0)
    st2 = generic_splitting_empirical(pres, seed=0)
    assert st1 == st2
    stab = classify_stability(pres.degrees)
    assert st1.shifted(stab.t0) == generic_splitting(stab)


def _split(pres, coords):
    return splitting_type(restrict(pres, line_point(coords, pres.prime)))


def test_jumping_false_on_generic_line():
    pres = random_presentation(DegreeData((2, 2, 3), (0,)), seed=1)
    assert _split(pres, (1, 2, 3)) == generic_splitting_empirical(pres, seed=0)


def test_jumping_true_on_measured_locus_point():
    from lefschetz_locus.groebner import buchberger
    from lefschetz_locus.lefschetz import dual_ring, locus_ideal_at

    m = generic_module(DegreeData((1, 1, 1, 2), (0, 0)), 2)
    li = locus_ideal_at(m, m.degrees.middle_degree)
    pts = rational_points_0dim(buchberger(list(li.gens), ring=dual_ring(m)))
    assert pts
    generic = generic_splitting_empirical(m.pres, seed=0)
    for pt in pts:
        assert _split(m.pres, pt) != generic


def test_jumping_true_on_monomial_curve_points():
    from lefschetz_locus.lefschetz import locus_ideal_at

    pres = _monomial_344()
    m = GradedModule.build(pres)
    li = locus_ideal_at(m, 3)
    pts = sample_locus_points(list(li.gens), seed=1)
    assert pts
    generic = generic_splitting_empirical(pres, seed=0)
    for pt in pts[:5]:
        assert _split(pres, pt) != generic


@pytest.mark.parametrize("a,b,seed", [((2, 2, 3), (0,), 1), ((1, 1, 1, 8), (0, 0), 1)])
def test_jumping_equals_non_lefschetz_on_samples(a, b, seed):
    m = generic_module(DegreeData(a, b), seed)
    generic = generic_splitting_empirical(m.pres, seed=0)
    stream = rand.Stream(777)
    for _ in range(40):
        coords = random_line(m.prime, stream)
        assert (_split(m.pres, coords) != generic) == (not is_lefschetz(m, coords).ok)


@pytest.mark.parametrize("a,b,seed", [((2, 2, 3), (0,), 1), ((2, 2, 2), (0,), 1),
                                      ((1, 1, 1, 8), (0, 0), 1)])
def test_case_table_oracle_agrees_with_direct_ranks(a, b, seed):
    m = generic_module(DegreeData(a, b), seed)
    stab = classify_stability(m.degrees)
    stream = rand.Stream(888)
    for _ in range(40):
        coords = random_line(m.prime, stream)
        st = splitting_type(restrict(m.pres, line_point(coords, m.prime)))
        assert lefschetz_oracle(stab, st.shifted(stab.t0)) == is_lefschetz(m, coords).ok
