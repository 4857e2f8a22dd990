import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import graded_piece_matrix_loop, hilbert_series_ci, hilbert_series_presented
from lefschetz_locus.field_linalg import kernel_basis, rank
from lefschetz_locus.polyring import Polynomial, Ring, parse_poly
from lefschetz_locus.presentation import (
    DegreeData,
    GradedModule,
    NonFiniteLengthError,
    generic_hilbert_profile,
    generic_module,
    graded_piece_matrix,
    presentation_from_strings,
    random_presentation,
)

R = Ring()

FIXTURES = [
    ((2, 2, 3), (0,)),
    ((2, 2, 2), (0,)),
    ((1, 1, 1, 2), (0, 0)),
    ((2, 2, 2, 3), (0, 1)),
    ((1, 1, 1, 8), (0, 0)),
]


def _module(a, b, seed=1):
    return generic_module(DegreeData(a, b), seed)


def test_degree_data_validation():
    with pytest.raises(ValueError):
        DegreeData((2, 2, 3), ())  # n >= 1
    with pytest.raises(ValueError):
        DegreeData((2, 2), (0,))  # length mismatch
    with pytest.raises(ValueError):
        DegreeData((3, 2, 2), (0,))  # not sorted
    deg = DegreeData((2, 2, 3), (0,))
    assert (deg.n, deg.d, deg.socle_degree, deg.middle_degree) == (1, 7, 4, 1)


def test_random_presentation_shape():
    pres = random_presentation(DegreeData((2, 2, 3), (0,)), seed=9)
    assert len(pres.entries) == 1 and len(pres.entries[0]) == 3
    assert [f.degree() for f in pres.entries[0]] == [2, 2, 3]
    assert all(f.is_homogeneous() for f in pres.entries[0])


def test_random_presentation_deterministic():
    deg = DegreeData((2, 2, 3), (0,))
    assert random_presentation(deg, 11).entries == random_presentation(deg, 11).entries
    assert random_presentation(deg, 11).entries != random_presentation(deg, 12).entries


def test_random_presentation_negative_degree_entries_are_zero():
    pres = random_presentation(DegreeData((1, 2, 2, 3), (0, 2)), seed=3)
    assert pres.entries[1][0].is_zero()  # degree 1 - 2 < 0


def test_hilbert_223_matches_series_oracle():
    expected = hilbert_series_ci((2, 2, 3))
    assert expected == (1, 3, 4, 3, 1)
    m = _module((2, 2, 3), (0,))
    assert tuple(m.h(t) for t in range(5)) == expected


def test_hilbert_222():
    assert hilbert_series_ci((2, 2, 2)) == (1, 3, 3, 1)
    m = _module((2, 2, 2), (0,))
    assert tuple(m.h(t) for t in range(4)) == (1, 3, 3, 1)


def test_hilbert_1112():
    m = _module((1, 1, 1, 2), (0, 0))
    assert tuple(m.h(t) for t in range(3)) == (2, 3, 2)


def test_hilbert_2223():
    m = _module((2, 2, 2, 3), (0, 1))
    assert tuple(m.h(t) for t in range(6)) == (1, 4, 6, 6, 4, 1)


@pytest.mark.parametrize("a,b", FIXTURES)
def test_hilbert_matches_presented_series_oracle(a, b):
    m = _module(a, b)
    oracle = hilbert_series_presented(a, b)
    assert m.hilbert() == {t: v for t, v in oracle.items()}
    assert generic_hilbert_profile(DegreeData(a, b)) == m.hilbert()


@st.composite
def _twists(draw):
    """Twist data with every entry of nonnegative degree (a_1 >= b_n), so a
    general presentation has finite length, with at most 60 monomials in
    the widest slice."""
    n = draw(st.integers(1, 2))
    b = sorted(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    a = sorted(draw(st.lists(st.integers(b[-1] + 1, b[-1] + 3), min_size=n + 2, max_size=n + 2)))
    return DegreeData(tuple(a), tuple(b))


@settings(max_examples=30, deadline=None)
@given(deg=_twists(), seed=st.integers(0, 2**32), prime=st.sampled_from([7, 65521]))
def test_slices_match_loop_oracle_and_hilbert_is_generic(deg, seed, prime):
    # every slice of a random presentation equals the loop oracle's, and the
    # seeded generic module (built on those slices) has the Hilbert
    # function the twist data predict
    pres = random_presentation(deg, seed, prime)
    for t in range(deg.b[0] - 1, deg.socle_degree + 2):
        assert graded_piece_matrix(pres, t) == graded_piece_matrix_loop(pres, t), t
    m = generic_module(deg, seed, prime=65521)
    assert m.hilbert() == generic_hilbert_profile(deg)


def test_graded_piece_empty_below_targets():
    pres = random_presentation(DegreeData((2, 2, 3), (0,)), seed=1)
    m = graded_piece_matrix(pres, -1)
    assert (m.rows, m.cols) == (0, 0)


def test_graded_piece_shape_223_degree2():
    pres = random_presentation(DegreeData((2, 2, 3), (0,)), seed=1)
    m = graded_piece_matrix(pres, 2)
    assert (m.rows, m.cols) == (6, 2)


def test_graded_piece_rank_2223_degree2():
    pres = random_presentation(DegreeData((2, 2, 2, 3), (0, 1)), seed=1)
    m = graded_piece_matrix(pres, 2)
    assert (m.rows, m.cols) == (9, 3)
    assert rank(m) == 3  # so the cokernel has dimension 6 there


def test_degree5_slice_kernel_dimension_is_one():
    # matches the global section count of the kernel sheaf in that twist
    pres = random_presentation(DegreeData((2, 2, 2, 3), (0, 1)), seed=5)
    m = graded_piece_matrix(pres, 5)
    assert (m.rows, m.cols) == (36, 36)
    assert len(kernel_basis(m)) == 1
    assert m.cols - rank(m) == 1


def test_multiplication_by_zero_is_zero_matrix():
    m = _module((2, 2, 3), (0,))
    z = m.multiplication_map(Polynomial.zero(R), 1)
    assert (z.rows, z.cols) == (4, 3)
    assert not z.a.any()


def test_multiplication_generic_linear_injective_at_degree_one():
    m = _module((2, 2, 3), (0,))
    ell = parse_poly("x1 + 2*x2 + 3*x3", R)
    mat = m.multiplication_map(ell, 1)
    assert (mat.rows, mat.cols) == (4, 3)
    assert rank(mat) == 3


def test_multiplication_rejects_nonlinear():
    m = _module((2, 2, 3), (0,))
    with pytest.raises(ValueError):
        m.multiplication_map(parse_poly("x1^2", R), 1)


def test_monomial_ci_sum_of_variables_has_maximal_rank_everywhere():
    pres = presentation_from_strings(DegreeData((3, 4, 4), (0,)),
                                     [["x1^3", "x2^4", "x3^4"]])
    m = GradedModule.build(pres)
    ell = parse_poly("x1 + x2 + x3", R)
    for t in range(0, m.degrees.socle_degree + 1):
        mat = m.multiplication_map(ell, t)
        assert rank(mat) == min(m.h(t), m.h(t + 1))


def test_socle_223():
    assert _module((2, 2, 3), (0,)).socle() == (4,)


def test_socle_2223():
    assert sorted(_module((2, 2, 2, 3), (0, 1)).socle()) == [4, 5]


@pytest.mark.parametrize("a", [(2, 2, 2), (2, 2, 3), (2, 3, 4)])
def test_socle_ci_single_top_degree(a):
    m = _module(a, (0,))
    d = sum(a)
    assert m.socle() == (d - 3,)


@pytest.mark.parametrize("a,b", FIXTURES)
def test_socle_formula_from_degrees(a, b):
    m = _module(a, b)
    d = m.degrees.d
    assert sorted(m.socle()) == sorted(d - bj - 3 for bj in b)


@pytest.mark.parametrize("a", [(2, 2, 3), (2, 2, 2), (3, 4, 4), (2, 3, 4)])
def test_hilbert_symmetry_for_level_modules(a):
    m = _module(a, (0,))
    d = sum(a)
    for t in range(0, d - 2):
        assert m.h(t) == m.h(d - 3 - t)


@pytest.mark.parametrize("a,b", FIXTURES)
def test_hilbert_unimodal(a, b):
    m = _module(a, b)
    values = [m.h(t) for t in m.support]
    peak = values.index(max(values))
    assert all(values[i] <= values[i + 1] for i in range(peak))
    assert all(values[i] >= values[i + 1] for i in range(peak, len(values) - 1))


def test_non_finite_length_rejected():
    # every entry divisible by x1, so the cokernel surjects onto k[x2,x3]-many
    # classes in every degree
    pres = presentation_from_strings(DegreeData((2, 2, 3), (0,)),
                                     [["x1^2", "x1*x2", "x1^3"]])
    with pytest.raises(NonFiniteLengthError):
        GradedModule.build(pres)


def test_generic_module_audit_records_seed():
    m = _module((2, 2, 3), (0,), seed=13)
    assert m.audit["requested_seed"] == 13
    assert m.audit["seed"] == 13
    assert m.audit["rejected_seeds"] == []
    assert m.audit["hilbert_matches_generic_profile"] is True


def test_generic_module_reseeds_degenerate_draws_over_tiny_field():
    # over F_5 random draws often miss the generic profile; the audit must
    # retry deterministically and log what it threw away
    deg = DegreeData((2, 2, 3), (0,))
    profile = generic_hilbert_profile(deg)
    rejected_seen = False
    for seed in range(25):
        m = generic_module(deg, seed, prime=5)
        assert m.hilbert() == profile
        assert m.audit["requested_seed"] == seed
        if m.audit["rejected_seeds"]:
            rejected_seen = True
            assert m.audit["seed"] != seed
        again = generic_module(deg, seed, prime=5)
        assert again.audit == m.audit
    assert rejected_seen


def test_coset_basis_monomials_match_dimensions():
    m = _module((2, 2, 3), (0,))
    for t in m.support:
        monos = m.piece(t).coset_monomials
        assert len(monos) == m.h(t)
        for block, mono in monos:
            assert block == 0
            assert sum(mono) == t
