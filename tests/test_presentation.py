import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    graded_piece_matrix_loop,
    hilbert_series_ci,
    hilbert_series_presented,
    multiplication_map_loop,
    slice_maps,
)
from test_acceptance import CI_GRID, N2_GRID
from lefschetz_locus import presentation
from lefschetz_locus.field_linalg import cokernel_basis, kernel_basis, rank
from lefschetz_locus.presentation import (
    DegreeData,
    GradedModule,
    NonFiniteLengthError,
    _KoszulPiece,
    _Piece,
    _block_layout,
    generic_hilbert_profile,
    generic_module,
    graded_piece_matrix,
    presentation_from_strings,
    random_presentation,
)

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
@given(deg=_twists(), seed=st.integers(0, 2**32),
       prime=st.sampled_from([7, 65521, 2**31 - 1]))
def test_slices_match_loop_oracle_and_hilbert_is_generic(deg, seed, prime):
    # every slice of a random presentation equals the loop oracle's, and the
    # seeded generic module (built on those slices) has the Hilbert
    # function the twist data predict
    pres = random_presentation(deg, seed, prime)
    for t in range(deg.b[0] - 1, deg.socle_degree + 2):
        got = graded_piece_matrix(pres, t)
        assert np.array_equal(got, graded_piece_matrix_loop(pres, t)), t
    m = generic_module(deg, seed, prime=65521)
    assert m.hilbert() == generic_hilbert_profile(deg)


@st.composite
def _lines(draw):
    """A prime and a coefficient triple over it, p - 1 and 0 among the
    likely entries."""
    p = draw(st.sampled_from([13, 65521, 2**31 - 1]))
    entry = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
    return p, draw(st.lists(entry, min_size=3, max_size=3))


@settings(max_examples=40, deadline=None)
@given(deg=_twists(), seed=st.integers(0, 2**32), line=_lines())
@example(deg=DegreeData((2, 2, 2, 3), (0, 1)), seed=5, line=(2**31 - 1, [2**31 - 2] * 3))
def test_multiplication_maps_match_lookup_oracle(deg, seed, line):
    # positions of the lifted products by index arithmetic equal the dict
    # lookups, for every linear form, zero coefficients included, and for
    # the variables; at 2^31 - 1 a sum of three unreduced products of
    # residues would overflow int64.  The module is taken as presented, so
    # a small prime's degenerate draw is a case too.  These are the maps
    # between slice-built pieces, up to t0; the Koszul maps above are
    # checked against the slices in another basis below.
    p, coeffs = line
    m = GradedModule(random_presentation(deg, seed, p), {})
    for t in range(deg.b[0] - 1, m.slice_top):
        maps = m.variable_maps(t)
        assert maps.shape == (3, m.piece(t + 1).dim, m.piece(t).dim), t
        got = m.multiplication_map(coeffs, t)
        assert np.array_equal(got, multiplication_map_loop(m, coeffs, t)), t
        assert got.dtype == np.int64 and ((0 <= got) & (got < p)).all(), t
        for v, one in enumerate(np.eye(3, dtype=np.int64)):
            assert np.array_equal(maps[v], multiplication_map_loop(m, one, t)), (t, v)


def _assert_koszul_pieces_are_the_slice_pieces(m, top):
    """Every piece from b_1 - 1 through ``top`` against ``slice_maps``: up
    to t0 the maps are the slice maps themselves.  Above, M_(t+1) has the
    slice dimension and its maps are the slice maps in the basis P_(t+1),
    whose column j is the slice class of x_v * m_i for (v, i) the j-th
    coordinate of the Koszul coset, m_i the i-th column of P_t, P_(t0) = I."""
    p, t0 = m.prime, m.slice_top
    for t in range(m.degrees.b[0] - 1, t0):
        assert np.array_equal(m.variable_maps(t), slice_maps(m.pres, t)), t
    basis = np.eye(m.piece(t0).dim, dtype=object)
    for t in range(t0, top):
        slices = slice_maps(m.pres, t).astype(object)
        koszul = m.variable_maps(t).astype(object)
        assert isinstance(m.piece(t + 1), _KoszulPiece), t
        assert m.piece(t + 1).dim == slices.shape[1], t
        v, i = np.divmod(np.array(m.piece(t + 1).coset, dtype=np.int64), m.piece(t).dim)
        nxt = np.zeros((slices.shape[1], len(v)), dtype=object)
        for j, (vj, ij) in enumerate(zip(v, i)):
            nxt[:, j] = slices[vj].dot(basis[:, ij]) % p
        assert rank(nxt.astype(np.int64), p) == len(v), t  # a basis of M_(t+1)
        for x in range(3):
            assert np.array_equal(slices[x].dot(basis) % p, nxt.dot(koszul[x]) % p), (t, x)
        basis = nxt


@settings(max_examples=25, deadline=None)
@given(deg=_twists(), seed=st.integers(0, 2**32),
       prime=st.sampled_from([13, 65521, 2**31 - 1]))
def test_koszul_pieces_are_the_slice_pieces_in_another_basis(deg, seed, prime):
    # taken as presented, so a degenerate draw at p = 13 is a case too
    m = GradedModule(random_presentation(deg, seed, prime), {})
    _assert_koszul_pieces_are_the_slice_pieces(m, max(deg.socle_degree, deg.b[-1]) + 1)


_INFINITE_GRIDS = [
    [["x1^2", "x1*x2", "x1^3"]],
    [["x1^2 + x1*x2", "x1*x3 + x2*x3", "x1^3 + x2^3"]],  # all divisible by x1 + x2
]


@pytest.mark.parametrize("p", [13, 65521, 2**31 - 1])
@pytest.mark.parametrize("a,b,grid", [
    ((2, 3, 4, 4, 5), (0, 0, 2), None),
    ((3, 3, 4, 4, 5), (0, 1, 1), None),
    ((1, 1, 1, 8), (0, 0), None),
] + [((2, 2, 3), (0,), grid) for grid in _INFINITE_GRIDS])
def test_koszul_pieces_match_the_slices_on_fixtures(a, b, grid, p):
    # three presented modules, and the two of infinite length, whose
    # pieces beyond the socle degree are nonzero: the Koszul route assumes
    # neither finite length nor duality
    deg = DegreeData(a, b)
    pres = (random_presentation(deg, 1, p) if grid is None
            else presentation_from_strings(deg, grid, p))
    m = GradedModule(pres, {})
    _assert_koszul_pieces_are_the_slice_pieces(m, max(deg.socle_degree, deg.b[-1]) + 2)
    if grid is not None:
        assert m.first_piece_beyond_socle() == deg.socle_degree + 1


_BELOW_A1 = [(a, b, seed) for seed in (1, 2) for a, b in [(a, (0,)) for a in CI_GRID] + N2_GRID]
_BELOW_A1.append(((2, 2, 3, 3), (0, 1),
                  [["x1^2", "x2^2", "x3^3", "0"], ["0", "x1", "x2^2", "x3^2"]]))


@pytest.mark.parametrize("a,b,source", _BELOW_A1)
def test_pieces_below_a1_take_every_coordinate_with_no_slice(a, b, source, monkeypatch):
    # below a_1 the slice has no source column: the piece is the whole
    # target, equal to the cokernel_basis route in its coset, pivots, image,
    # offsets, blocks and exponents, and its maps are the slice maps, yet
    # graded_piece_matrix is never called there
    deg = DegreeData(a, b)
    pres = (random_presentation(deg, source, 65521) if isinstance(source, int)
            else presentation_from_strings(deg, source))
    sliced = []
    slice_of = presentation.graded_piece_matrix

    def counted(pres, t):
        sliced.append(t)
        return slice_of(pres, t)

    monkeypatch.setattr(presentation, "graded_piece_matrix", counted)
    below = range(deg.b[0] - 1, deg.a[0])
    pieces = {t: GradedModule._build_piece(pres, t) for t in below}
    assert sliced == []
    monkeypatch.undo()
    m = GradedModule(pres, dict(pieces))
    for t, piece in pieces.items():
        want = cokernel_basis(graded_piece_matrix(pres, t), pres.prime)
        bases, offsets, dim = _block_layout(deg.b, t)
        assert (piece.coker.coset, piece.coker.pivots) == (want.coset, want.pivots), t
        assert piece.coker.image_rref.shape == want.image_rref.shape == (0, dim), t
        assert np.array_equal(piece.offsets, offsets) and piece.target_dim == dim, t
        assert piece.coset_blocks.tolist() == [j for j, basis in enumerate(bases)
                                               for _ in basis.monomials], t
        assert piece.coset_exponents.reshape(-1, 3).tolist() == [
            list(mono) for basis in bases for mono in basis.monomials], t
        assert np.array_equal(m.variable_maps(t), slice_maps(pres, t)), t


def test_graded_piece_empty_below_targets():
    pres = random_presentation(DegreeData((2, 2, 3), (0,)), seed=1)
    assert graded_piece_matrix(pres, -1).shape == (0, 0)


def test_graded_piece_shape_223_degree2():
    pres = random_presentation(DegreeData((2, 2, 3), (0,)), seed=1)
    assert graded_piece_matrix(pres, 2).shape == (6, 2)


def test_graded_piece_rank_2223_degree2():
    pres = random_presentation(DegreeData((2, 2, 2, 3), (0, 1)), seed=1)
    m = graded_piece_matrix(pres, 2)
    assert m.shape == (9, 3)
    assert rank(m, pres.prime) == 3  # so the cokernel has dimension 6 there


def test_degree5_slice_kernel_dimension_is_one():
    # matches the global section count of the kernel sheaf in that twist
    pres = random_presentation(DegreeData((2, 2, 2, 3), (0, 1)), seed=5)
    m = graded_piece_matrix(pres, 5)
    assert m.shape == (36, 36)
    assert len(kernel_basis(m, pres.prime)) == 1
    assert m.shape[1] - rank(m, pres.prime) == 1


def test_multiplication_by_zero_is_zero_matrix():
    m = _module((2, 2, 3), (0,))
    z = m.multiplication_map((0, 0, 0), 1)
    assert z.shape == (4, 3)
    assert not z.any()


def test_multiplication_generic_linear_injective_at_degree_one():
    m = _module((2, 2, 3), (0,))
    mat = m.multiplication_map((1, 2, 3), 1)  # x1 + 2*x2 + 3*x3
    assert mat.shape == (4, 3)
    assert rank(mat, m.prime) == 3


def test_monomial_ci_sum_of_variables_has_maximal_rank_everywhere():
    pres = presentation_from_strings(DegreeData((3, 4, 4), (0,)),
                                     [["x1^3", "x2^4", "x3^4"]])
    m = GradedModule.build(pres)
    for t in range(0, m.degrees.socle_degree + 1):
        mat = m.multiplication_map((1, 1, 1), t)
        assert rank(mat, m.prime) == min(m.h(t), m.h(t + 1))


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


def test_finite_length_is_the_vanishing_beyond_the_socle_degree():
    # the predicate that build refuses on is the one the survey claim reads:
    # the x1-divisible row above is alive in degree 5 = e + 1
    pres = presentation_from_strings(DegreeData((2, 2, 3), (0,)),
                                     [["x1^2", "x1*x2", "x1^3"]])
    assert GradedModule(pres, {}).first_piece_beyond_socle() == pres.degrees.socle_degree + 1 == 5
    with pytest.raises(NonFiniteLengthError, match="degree 5 beyond socle degree 4"):
        GradedModule.build(pres)
    assert _module((2, 2, 3), (0,)).first_piece_beyond_socle() is None


def _built(m, kind):
    return sorted(t for t, piece in m._pieces.items() if isinstance(piece, kind))


@pytest.mark.parametrize("a,b,grid,built", [
    ((3, 4, 4), (0,), [["x1^3", "x2^4", "x3^4"]], (4, 9)),
    ((2, 2, 3, 3), (0, 1), [["x1^2", "x2^2", "x3^3", "0"], ["0", "x1", "x2^2", "x3^2"]],
     (3, 7)),
])
def test_build_certifies_from_the_pieces_beyond_the_socle_alone(a, b, grid, built):
    # the certificate at e + 1 rests on the Koszul chain from t0 + 1 and on
    # the two slices t0 - 1 and t0 whose maps start it
    t0, top = built
    m = GradedModule.build(presentation_from_strings(DegreeData(a, b), grid))
    assert m.certified and m.slice_top == t0 and top == m.degrees.socle_degree + 1
    assert _built(m, _Piece) == [t0 - 1, t0]
    assert _built(m, _KoszulPiece) == list(range(t0 + 1, top + 1))
    m.hilbert()  # the lower half of the support, up to (d - 3) / 2
    lower = set(range(b[0], (m.degrees.d - 3) // 2 + 1))
    assert _built(m, _Piece) == sorted(lower | {t0 - 1, t0})


@pytest.mark.parametrize("grid", _INFINITE_GRIDS)
def test_a_module_of_infinite_length_reads_its_pieces_unmirrored(grid):
    # only a module that build certified mirrors h(t) = h(d - 3 - t); these
    # Hilbert values are not symmetric, so a mirrored one would show
    pres = presentation_from_strings(DegreeData((2, 2, 3), (0,)), grid)
    with pytest.raises(NonFiniteLengthError):
        GradedModule.build(pres)
    m = GradedModule(pres, {})
    values = [m.piece(t).dim for t in m.support]
    assert not m.certified and values != values[::-1]
    assert [m.h(t) for t in m.support] == values


@pytest.mark.parametrize("p", [13, 65521, 2**31 - 1])
@pytest.mark.parametrize("a,b,grid", [(a, b, None) for a, b in FIXTURES] + [
    ((3, 4, 4), (0,), [["x1^3", "x2^4", "x3^4"]]),
    ((2, 3, 4, 4, 5), (0, 0, 2), None),
])
def test_mirrored_hilbert_function_is_every_piece_dimension(a, b, grid, p):
    deg = DegreeData(a, b)
    m = (generic_module(deg, 1, p) if grid is None
         else GradedModule.build(presentation_from_strings(deg, grid, p)))
    assert [m.h(t) for t in m.support] == [m.piece(t).dim for t in m.support]


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
    # slices carry coset monomials up to t0 = 3; above, a Koszul coset
    # coordinate names x_v times a basis class one degree down
    m = _module((2, 2, 3), (0,))
    assert m.slice_top == 3
    for t in m.support:
        piece = m.piece(t)
        if t > m.slice_top:
            assert piece.dim == m.h(t)
            assert all(0 <= c < 3 * m.h(t - 1) for c in piece.coset)
            continue
        assert len(piece.coset_blocks) == len(piece.coset_exponents) == m.h(t)
        for block, mono in zip(piece.coset_blocks, piece.coset_exponents):
            assert block == 0
            assert sum(mono) == t
