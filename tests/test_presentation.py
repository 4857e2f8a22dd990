import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    entries,
    graded_piece_matrix_loop,
    hilbert_series_ci,
    hilbert_series_presented,
    multiplication_map_loop,
    random_presentation_loop,
    slice_maps,
    socle_by_slices,
)
from test_acceptance import CI_GRID, N2_GRID
from lefschetz_locus import presentation
from lefschetz_locus.field_linalg import cokernel_basis, kernel_basis, rank
from lefschetz_locus.polyring import monomial_basis
from lefschetz_locus.presentation import (
    DegreeData,
    GradedModule,
    NonFiniteLengthError,
    PresentationMatrix,
    _Piece,
    _QuotientPiece,
    _block_layout,
    generic_hilbert_profile,
    generic_module,
    graded_piece_matrix,
    presentation_from_strings,
    random_presentation,
    record_audit,
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
    grid = entries(pres)
    assert len(grid) == 1 and len(grid[0]) == 3
    assert [f.degree() for f in grid[0]] == [2, 2, 3]
    assert all(f.is_homogeneous() for f in grid[0])


def test_random_presentation_deterministic():
    deg = DegreeData((2, 2, 3), (0,))
    assert entries(random_presentation(deg, 11)) == entries(random_presentation(deg, 11))
    assert entries(random_presentation(deg, 11)) != entries(random_presentation(deg, 12))


def test_random_presentation_negative_degree_entries_are_zero():
    pres = random_presentation(DegreeData((1, 2, 2, 3), (0, 2)), seed=3)
    assert entries(pres)[1][0].is_zero()  # degree 1 - 2 < 0


def test_presentation_names_the_first_entry_of_a_wrong_degree():
    # terms in any order: the first wrong entry in row order is named, here
    # (0,3) with a term of degree 2, before (1,0) with a constant term
    deg = DegreeData((2, 2, 3, 3), (0, 1))
    terms = (np.array([1, 0, 0]), np.array([0, 3, 2]),
             np.array([[0, 0, 0], [1, 1, 0], [3, 0, 0]]), np.array([1, 1, 1]))
    with pytest.raises(ValueError, match=r"^entry \(0,3\) must be homogeneous of degree 3$"):
        PresentationMatrix(deg, terms, 65521)
    fixed = (terms[0][2:], terms[1][2:], terms[2][2:], terms[3][2:])
    assert PresentationMatrix(deg, fixed, 65521).generator_degrees == (0, 1)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**64 - 1), p=st.sampled_from([13, 65521, 2**31 - 1]))
def test_seeded_draws_match_the_draw_by_draw_loop(data, seed, p):
    # one ``below_many`` over every entry equals one ``below`` per monomial,
    # with the zero residues dropped; entries of negative degree draw nothing
    n = data.draw(st.integers(1, 3))
    degrees = DegreeData(*(tuple(sorted(data.draw(st.lists(st.integers(-1, 4), min_size=k,
                                                            max_size=k)))) for k in (n + 2, n)))
    assert entries(random_presentation(degrees, seed, p)) == random_presentation_loop(
        degrees, seed, p)


@pytest.mark.parametrize("a,b,p,digest", [
    ((3, 4, 4), (0,), 13, "148d7391c6fe07de"),
    ((3, 4, 4), (0,), 65521, "a4fb7c8a02fa7821"),
    ((2, 2, 3, 3), (0, 1), 13, "21168f3f494c01fa"),  # two zero residues dropped
    ((2, 2, 3, 3), (0, 1), 65521, "15a346a174b50e19"),
    ((1, 1, 1, 2, 2), (0, 0, 0), 13, "b3ff157d88e1f534"),  # two dropped
    ((1, 1, 1, 2, 2), (0, 0, 0), 65521, "6f4e336dd3aa777b"),
    ((1, 1, 2, 4), (0, 3), 13, "8288c255adf2ad3c"),  # entries of negative degree
    ((1, 1, 2, 4), (0, 3), 65521, "26d468e68052af1e"),
])
def test_seeded_draws_are_pinned(a, b, p, digest):
    # SHA-256 of the term arrays (target, source, exponents, coefficients)
    # drawn at seed 7: entry by entry in row order, each in
    # ``monomial_basis`` order with its zero residues dropped
    import hashlib

    h = hashlib.sha256()
    for arr in random_presentation(DegreeData(a, b), 7, p).terms:
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    assert h.hexdigest()[:16] == digest


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
def _small_field_presentations(draw):
    """A presentation over F_p, p in {2, 3, 5, 13}, on ``_twists`` data:
    a seeded draw, or a sparse grid of polynomial strings, one to three
    terms an entry, as ``--matrix`` reads it."""
    deg, p = draw(_twists()), draw(st.sampled_from([2, 3, 5, 13]))
    if draw(st.booleans()):
        return random_presentation(deg, draw(st.integers(0, 2**32)), p)

    def form(k):
        monos = draw(st.lists(st.sampled_from(monomial_basis(k).monomials), min_size=1,
                              max_size=3, unique=True))
        return " + ".join("*".join([str(draw(st.integers(1, p - 1)))]
                                   + [f"x{v + 1}^{e}" for v, e in enumerate(mono) if e])
                          for mono in monos)

    return presentation_from_strings(deg, [[form(a - b) for a in deg.a] for b in deg.b], p)


@settings(max_examples=150, deadline=None)
@given(pres=_small_field_presentations())
@example(pres=presentation_from_strings(DegreeData((2, 2, 3), (0,)),
                                        [["x1^2", "x2^2", "x3^3"]], 2))
def test_every_accepted_presentation_has_the_generic_hilbert_function(pres):
    # a cokernel that ``build`` accepts has finite length, so its n x n
    # minors have grade 3 and the Buchsbaum-Rim complex resolves it by the
    # four twisted free modules of ``generic_hilbert_profile``: no draw
    # that ``generic_module`` keeps can miss the profile, even over F_2.
    # Each piece is read as built, not through the Serre mirror
    try:
        m = GradedModule.build(pres)
    except NonFiniteLengthError:
        assume(False)
    profile = generic_hilbert_profile(pres.degrees)
    assert {t: m.piece(t).dim for t in m.support} == m.hilbert() == profile
    assert record_audit(m, 0, 0, []).audit["hilbert_matches_generic_profile"] is True


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
    # between slice-built pieces, up to t0; the maps above are checked
    # against the slices, in another basis where a piece is a quotient,
    # below.
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


def _assert_socle_is_the_slice_socle(m):
    """The socle against ``socle_by_slices``, with no map formed into a
    quotient piece: those degrees read the kernel of the seeded line."""
    assert m.socle() == socle_by_slices(m.pres)
    assert not [t for t in m._maps if isinstance(m._pieces.get(t + 1), _QuotientPiece)]


def _assert_upper_pieces_are_the_slice_pieces(m, top):
    """Every piece from b_1 - 1 through ``top`` against ``slice_maps``: up
    to t0 the maps are the slice maps themselves.  Above, M_(t+1) has the
    slice dimension and its maps are the slice maps in the basis P_(t+1),
    P_(t0) = I: a slice piece has P_(t+1) = I, and its maps are the slice
    maps themselves; column j of a quotient piece's P_(t+1) is the slice
    class of l * m_(coset[j]), l the seeded line and m_i the i-th column
    of P_t, and its kernel rows are a basis of the kernel of l out of t.
    Returns the route of each piece above t0, S or Q, and checks that no
    slice follows a quotient."""
    p, t0 = m.prime, m.slice_top
    line = np.array(presentation._seeded_line(p), dtype=object)
    for t in range(m.degrees.b[0] - 1, t0):
        assert np.array_equal(m.variable_maps(t), slice_maps(m.pres, t)), t
    basis = np.eye(m.piece(t0).dim, dtype=object)
    routes = ""
    for t in range(t0, top):
        slices = slice_maps(m.pres, t).astype(object)
        maps = m.variable_maps(t).astype(object)
        piece = m.piece(t + 1)
        assert piece.dim == slices.shape[1], t
        if isinstance(piece, _Piece):
            routes += "S"
            assert np.array_equal(maps, slices), t
            nxt = np.eye(piece.dim, dtype=object)
        else:
            assert isinstance(piece, _QuotientPiece), t
            routes += "Q"
            coset = np.array(piece.coset, dtype=np.int64)
            l_slice = (line[:, None, None] * slices).sum(axis=0) % p
            nxt = l_slice.dot(basis[:, coset]) % p
            kernel = piece.kernel.astype(object)
            assert kernel.shape == (m.piece(t).dim - piece.dim, m.piece(t).dim), t
            assert rank(piece.kernel, p) == len(kernel), t
            assert not (l_slice.dot(basis).dot(kernel.T) % p).any(), t
        assert rank(nxt.astype(np.int64), p) == piece.dim, t  # a basis of M_(t+1)
        for x in range(3):
            assert np.array_equal(slices[x].dot(basis) % p, nxt.dot(maps[x]) % p), (t, x)
        basis = nxt
    assert "QS" not in routes
    return routes


# the seeded line; the zero form, onto no nonzero piece, so every piece above
# t0 is a slice; and x1, onto only from a higher degree than the seeded line on the
# pure powers (3,4,4)
_LINES = {"seeded": None, "never": (0, 0, 0), "x1": (1, 0, 0)}


def _set_line(mp, name):
    if _LINES[name] is not None:
        mp.setattr(presentation, "_seeded_line", lambda p: _LINES[name])


@settings(max_examples=25, deadline=None)
@given(deg=_twists(), seed=st.integers(0, 2**32),
       prime=st.sampled_from([13, 65521, 2**31 - 1]), line=st.sampled_from(sorted(_LINES)))
def test_upper_pieces_are_the_slice_pieces_in_another_basis(deg, seed, prime, line):
    # taken as presented, so a degenerate draw at p = 13 is a case too
    with pytest.MonkeyPatch.context() as mp:
        _set_line(mp, line)
        m = GradedModule(random_presentation(deg, seed, prime), {})
        routes = _assert_upper_pieces_are_the_slice_pieces(
            m, max(deg.socle_degree, deg.b[-1]) + 1)
        _assert_socle_is_the_slice_socle(GradedModule(m.pres, {}))
    if line == "never":
        assert set(routes) <= {"S"}


_INFINITE_GRIDS = [
    [["x1^2", "x1*x2", "x1^3"]],
    [["x1^2 + x1*x2", "x1*x3 + x2*x3", "x1^3 + x2^3"]],  # all divisible by x1 + x2
]


_UPPER_FIXTURES = [
    ((2, 3, 4, 4, 5), (0, 0, 2), None),
    ((3, 3, 4, 4, 5), (0, 1, 1), None),
    ((1, 1, 1, 8), (0, 0), None),
] + [((2, 2, 3), (0,), grid) for grid in _INFINITE_GRIDS] + [
    ((3, 4, 4), (0,), [["x1^3", "x2^4", "x3^4"]]),
    ((2, 2, 3, 3), (0, 1), [["x1^2 + x2*x3", "x2^2", "x3^3 + x1^3", "x1^2*x2"],
                            ["x3", "x1", "x2^2", "x3^2 + x1*x2"]]),
]

# the route of each piece above t0 on the finite grids, by line, keyed by
# the grid's first entry
_GRID_ROUTES = {
    "x1^3": {"seeded": "SQQQQQ", "never": "SSSSSS", "x1": "SSSQQQ"},
    "x1^2 + x2*x3": {"seeded": "SQQQQ", "never": "SSSSS", "x1": "SQQQQ"},
}


def _assert_upper_pieces_on_fixture(a, b, grid, p, line):
    """The oracle two degrees past the socle.  No line is onto a piece of a
    module whose support holds a curve, as every line meets it, so the
    infinite grids take every piece from its slice and are refused at
    e + 1 as before; the
    seeded line is onto from some degree on every finite fixture; x1
    maps the pure powers' M_t onto M_(t+1) only from t = 6, where the
    seeded line already does from t = 4; and the last grid's first quotient
    step needs every block of K_t, the x3 images of ker L among them."""
    deg = DegreeData(a, b)
    pres = (random_presentation(deg, 1, p) if grid is None
            else presentation_from_strings(deg, grid, p))
    m = GradedModule(pres, {})
    routes = _assert_upper_pieces_are_the_slice_pieces(m, max(deg.socle_degree, deg.b[-1]) + 2)
    if grid in _INFINITE_GRIDS:
        assert set(routes) == {"S"}
        assert m.first_piece_beyond_socle() == deg.socle_degree + 1
    elif line == "never":
        assert set(routes) == {"S"}
    elif line == "seeded":
        assert "Q" in routes
    if grid is not None and grid not in _INFINITE_GRIDS:
        assert routes == _GRID_ROUTES[grid[0][0]][line]
    _assert_socle_is_the_slice_socle(GradedModule(pres, {}))


@pytest.mark.parametrize("p", [13, 65521, 2**31 - 1])
@pytest.mark.parametrize("a,b,grid", _UPPER_FIXTURES)
def test_upper_pieces_match_the_slices_on_fixtures(a, b, grid, p):
    # three presented modules, the two of infinite length, whose pieces
    # beyond the socle degree are nonzero, the pure powers and a sparse
    # grid: neither route assumes finite length or duality
    _assert_upper_pieces_on_fixture(a, b, grid, p, "seeded")


@pytest.mark.parametrize("line", ["never", "x1"])
@pytest.mark.parametrize("p", [13, 65521, 2**31 - 1])
@pytest.mark.parametrize("a,b,grid", _UPPER_FIXTURES)
def test_upper_pieces_under_other_lines_match_the_slices_on_fixtures(a, b, grid, p, line,
                                                                     monkeypatch):
    _set_line(monkeypatch, line)
    _assert_upper_pieces_on_fixture(a, b, grid, p, line)


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


def test_block_layouts_are_cached_read_only():
    # one layout per (twists, t), shared by every slice and piece that reads it
    bases, offsets, dim = _block_layout((0, 1), 3)
    assert _block_layout((0, 1), 3)[1] is offsets and not offsets.flags.writeable
    with pytest.raises(ValueError):
        offsets[0] = 1
    assert bases == (presentation.monomial_basis(3), presentation.monomial_basis(2))
    assert offsets.tolist() == [0, 10] and dim == 16


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
    ((3, 4, 4), (0,), [["x1^3", "x2^4", "x3^4"]], (4, 5, 9)),
    ((2, 2, 3, 3), (0, 1), [["x1^2", "x2^2", "x3^3", "0"], ["0", "x1", "x2^2", "x3^2"]],
     (3, 4, 7)),
])
def test_build_certifies_from_the_pieces_beyond_the_socle_alone(a, b, grid, built):
    # the certificate at e + 1 rests on the slice at t0 + 1, where
    # h(t0) > h(t0 - 1) rules the line out, then on quotients up to e + 1,
    # and on the slices t0 - 1 and t0 whose dimensions and maps start the
    # chain
    t0, sliced, top = built
    m = GradedModule.build(presentation_from_strings(DegreeData(a, b), grid))
    assert m.certified and m.slice_top == t0 and top == m.degrees.socle_degree + 1
    assert m.piece(t0).dim > m.piece(t0 - 1).dim
    assert _built(m, _Piece) == list(range(t0 - 1, sliced + 1))
    assert _built(m, _QuotientPiece) == list(range(sliced + 1, top + 1))
    m.hilbert()  # the lower half of the support, up to (d - 3) / 2
    lower = set(range(b[0], (m.degrees.d - 3) // 2 + 1))
    assert _built(m, _Piece) == sorted(lower | set(range(t0 - 1, sliced + 1)))


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
    # over F_5 random draws are often of infinite length, which ``build``
    # refuses; the audit must retry deterministically and log what it
    # threw away
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
    # slices carry coset monomials up to t0 = 3; above, a quotient coset
    # coordinate names l times a basis class one degree down, each at most
    # once, and its kernel rows fill the rest of that piece
    m = _module((2, 2, 3), (0,))
    assert m.slice_top == 3
    for t in m.support:
        piece = m.piece(t)
        if t > m.slice_top:
            assert isinstance(piece, _QuotientPiece)
            assert piece.dim == m.h(t)
            assert list(piece.coset) == sorted(set(piece.coset))
            assert all(0 <= c < m.h(t - 1) for c in piece.coset)
            assert piece.kernel.shape == (m.h(t - 1) - m.h(t), m.h(t - 1))
            continue
        assert len(piece.coset_blocks) == len(piece.coset_exponents) == m.h(t)
        for block, mono in zip(piece.coset_blocks, piece.coset_exponents):
            assert block == 0
            assert sum(mono) == t
