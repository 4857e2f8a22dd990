import functools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    minor_basis,
    minor_forms,
    rational_points_0dim,
    restrict_loop,
    sample_locus_points,
    scan_splitting_type,
    section_matrix_loop,
    vote_generic_splitting,
)
from test_acceptance import CI_GRID, N2_GRID
from lefschetz_locus import rand
from lefschetz_locus.bundle import (
    InconsistencyError,
    SplittingType,
    classify_stability,
    generic_splitting,
    lefschetz_oracle,
)
from lefschetz_locus.field_linalg import rank
from lefschetz_locus.jumping import (
    LinePoint,
    NoGenericLineError,
    RestrictionError,
    is_jumping,
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


def _monomial_344(prime=PRIME):
    return presentation_from_strings(DegreeData((3, 4, 4), (0,)),
                                     [["x1^3", "x2^4", "x3^4"]], prime)


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
    assert rb.coefficients.tolist() == [[[1, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]]]


def _padding(rb):
    """The entries of ``rb.coefficients`` past the degree max(a_i - b_j, 0)
    of their form."""
    a, b = np.array(rb.degrees.a), np.array(rb.degrees.b)
    top = np.maximum(a - b[:, None], 0)
    return rb.coefficients[np.arange(rb.coefficients.shape[2]) > top[..., None]]


def test_restrict_entry_degrees():
    # entry (j, i) is a form of degree a_i - b_j (zero where that is
    # negative): its row reaches that degree and is zero past it
    for a, b in [((2, 2, 2, 3), (0, 1)), ((1, 2, 2, 3), (0, 2))]:
        pres = random_presentation(DegreeData(a, b), seed=1)
        rb = restrict(pres, line_point((1, 5, 9), PRIME))
        assert rb.coefficients.shape == (len(b), len(a), a[-1] - b[0] + 1)
        assert not _padding(rb).any()
        for j, bj in enumerate(b):
            for i, ai in enumerate(a):
                assert rb.coefficients[j, i, max(ai - bj, 0)] or ai < bj, (a, b, j, i)


def test_restrict_detects_non_surjective_grid():
    # restricted row (s^2, s*u, s^3) has the common zero s = 0
    pres = presentation_from_strings(DegreeData((2, 2, 3), (0,)),
                                     [["x1^2", "x1*x2", "x1^3"]])
    with pytest.raises(RestrictionError):
        restrict(pres, line_point((0, 0, 1), PRIME))


def test_section_matrix_shapes():
    pres = random_presentation(DegreeData((2, 2, 3), (0,)), seed=2)
    rb = restrict(pres, line_point((1, 2, 3), PRIME))
    assert section_matrix(rb, 3).shape == (4, 2 + 2 + 1)


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
    pres = random_presentation(DegreeData((2, 2, 3), (0,)), seed=1)
    st1 = vote_generic_splitting(pres, seed=0)
    st2 = vote_generic_splitting(pres, seed=0)
    assert st1 == st2
    stab = classify_stability(pres.degrees)
    assert st1.shifted(stab.t0) == generic_splitting(stab)


def _split(pres, coords):
    return splitting_type(restrict(pres, line_point(coords, pres.prime)))


def test_jumping_false_on_generic_line():
    pres = random_presentation(DegreeData((2, 2, 3), (0,)), seed=1)
    split = _split(pres, (1, 2, 3))
    assert split == vote_generic_splitting(pres, seed=0)
    assert not is_jumping(pres, split, classify_stability(pres.degrees), 0)


def test_jumping_true_on_measured_locus_point():
    m = generic_module(DegreeData((1, 1, 1, 2), (0, 0)), 2)
    pts = rational_points_0dim(minor_basis(m, m.degrees.middle_degree))
    assert pts
    generic = vote_generic_splitting(m.pres, seed=0)
    stab = classify_stability(m.degrees)
    for pt in pts:
        assert _split(m.pres, pt) != generic
        assert is_jumping(m.pres, _split(m.pres, pt), stab, 0)


def test_jumping_true_on_monomial_curve_points():
    pres = _monomial_344()
    m = GradedModule.build(pres)
    pts = sample_locus_points(minor_forms(m, 3), seed=1)
    assert pts
    generic = vote_generic_splitting(pres, seed=0)
    stab = classify_stability(pres.degrees)
    for pt in pts[:5]:
        assert _split(pres, pt) != generic
        assert is_jumping(pres, _split(pres, pt), stab, 0)


_F13_LINES = ([(1, u, v) for u in range(13) for v in range(13)]
              + [(0, 1, v) for v in range(13)] + [(0, 0, 1)])


@pytest.mark.parametrize("a,b,jumping", [((2, 2, 3), (0,), 0), ((2, 2, 2), (0,), 14),
                                         ((2, 2, 3, 3), (0, 1), 2), ((1, 1, 1, 8), (0, 0), 27)])
def test_is_jumping_on_every_line_of_the_plane_over_f13(a, b, jumping):
    # the generic type is the most balanced over all 183 lines; is_jumping
    # settles balanced lines without the vote and agrees with both it and
    # the Lefschetz ranks on every line (the counts pin that both occur)
    m = generic_module(DegreeData(a, b), 1, 13)
    assert len(set(_F13_LINES)) == 13**2 + 13 + 1
    splits = {c: _split(m.pres, c) for c in _F13_LINES}
    generic = min(splits.values(), key=lambda s: s.alpha - s.beta)
    stab = classify_stability(m.degrees)
    for c, split in splits.items():
        got = is_jumping(m.pres, split, stab, 1)
        assert got == (split != generic) == (not is_lefschetz(m, c).ok), c
    assert sum(split != generic for split in splits.values()) == jumping


_WITNESS_FIXTURES = [((2, 2, 3), (0,)), ((2, 2, 3, 3), (0, 1)), ((3, 4, 4), (0,)),
                     ((2, 2, 2), (0,)), ((1, 1, 1, 2), (0, 0)), ((1, 1, 1, 8), (0, 0))]


@functools.lru_cache(maxsize=None)
def _f13_plane(a, b, seed):
    """A module over F_13 (the pure-power (3,4,4) for seed None) and the
    splitting type and Lefschetz verdict of each of the 183 lines."""
    m = (GradedModule.build(_monomial_344(13)) if seed is None
         else generic_module(DegreeData(a, b), seed, 13))
    return m, {c: (_split(m.pres, c), is_lefschetz(m, c).ok) for c in _F13_LINES}


@pytest.mark.parametrize("a,b,seed,draws", [(a, b, s, s) for a, b in _WITNESS_FIXTURES
                                            for s in (1, 2, 3)]
                         + [((3, 4, 4), (0,), None, s) for s in range(1, 7)])
def test_is_jumping_is_the_least_alpha_over_the_plane(a, b, seed, draws):
    # exhaustive over P^2(F_13): a line is jumping exactly when its alpha
    # exceeds the least alpha over all 183 lines, which is the bound
    # is_jumping reads off the stability data; the pure-power (3,4,4) is
    # the module whose majority vote at seed 6 elected a jumping type
    m, lines = _f13_plane(a, b, seed)
    stab = classify_stability(m.degrees)
    least = min(split.alpha for split, _ in lines.values())
    assert least + stab.t0 == generic_splitting(stab).alpha
    for c, (split, lefschetz) in lines.items():
        assert is_jumping(m.pres, split, stab, draws) == (split.alpha > least) \
            == (not lefschetz), c


def test_is_jumping_refuses_to_guess_without_a_witness():
    m, lines = _f13_plane((3, 4, 4), (0,), None)
    stab = classify_stability(m.degrees)
    split = lines[(1, 0, 1)][0]  # jumping: a vote at seed 6 called it generic
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("lefschetz_locus.jumping._TRIES", 0)
        with pytest.raises(NoGenericLineError, match="none of 0 seeded lines"):
            is_jumping(m.pres, split, stab, 6)
    assert is_jumping(m.pres, split, stab, 6)


def test_is_jumping_refuses_a_type_below_the_bound():
    # every line of an unstable bundle has alpha >= k in the normalized
    # frame; a balanced type there contradicts the stability data
    m = generic_module(DegreeData((1, 1, 1, 8), (0, 0)), 1)
    stab = classify_stability(m.degrees)
    assert stab.unstable and stab.k > 0
    total = -m.degrees.d
    with pytest.raises(InconsistencyError, match="below the least possible"):
        is_jumping(m.pres, SplittingType(total - total // 2, total // 2), stab)


@pytest.mark.parametrize("a,b,seed", [((2, 2, 3), (0,), 1), ((1, 1, 1, 8), (0, 0), 1)])
def test_jumping_equals_non_lefschetz_on_samples(a, b, seed):
    m = generic_module(DegreeData(a, b), seed)
    generic = vote_generic_splitting(m.pres, seed=0)
    stab = classify_stability(m.degrees)
    stream = rand.Stream(777)
    for _ in range(40):
        coords = random_line(m.prime, stream)
        split = _split(m.pres, coords)
        assert (split != generic) == is_jumping(m.pres, split, stab, 0) \
            == (not is_lefschetz(m, coords).ok)


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


def test_section_count_agrees_with_scan_oracle():
    # seeded lines on every criterion-8 fixture, and the jumping lines of the
    # monomial (3,4,4) module, where the middle map drops rank
    stream = rand.Stream(4242)
    lines = []
    for a, b in [(a, (0,)) for a in CI_GRID] + N2_GRID:
        m = generic_module(DegreeData(a, b), 1)
        lines += [(m, random_line(PRIME, stream)) for _ in range(14)]
    m = GradedModule.build(_monomial_344())
    jumping = sample_locus_points(minor_forms(m, 3), seed=1)
    lines += [(m, pt) for pt in jumping]
    for m, coords in lines:
        rb = restrict(m.pres, line_point(coords, PRIME))
        assert splitting_type(rb) == scan_splitting_type(rb), (m.degrees, coords)
    assert len(jumping) >= 5
    assert sum(not is_lefschetz(m, coords).ok for m, coords in lines) >= len(jumping)


def _surjectivity_twists(deg):
    """The twist ``restrict`` checks, t* = max(d - a_1 - 1, b_n), and the
    larger one it checked before, d + 2 + max(0, b_n)."""
    return max(deg.d - deg.a[0] - 1, deg.b[-1]), deg.d + 2 + max(0, deg.b[-1])


@st.composite
def _restriction_cases(draw):
    """Twist data with n in {1, 2} (entries of negative degree allowed), a
    seed, a prime and a 3x2 parametrization of rank 2 over it."""
    p = draw(st.sampled_from([13, 65521, 2**31 - 1]))
    n = draw(st.integers(1, 2))
    b = sorted(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    a = sorted(draw(st.lists(st.integers(b[0], b[-1] + 3), min_size=n + 2, max_size=n + 2)))
    entry = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
    param = draw(st.lists(st.lists(entry, min_size=2, max_size=2), min_size=3, max_size=3))
    assume(rank(np.array(param), p) == 2)
    return DegreeData(tuple(a), tuple(b)), draw(st.integers(0, 2**32)), p, param


@settings(max_examples=60, deadline=None)
@given(case=_restriction_cases())
@example(case=(DegreeData((2, 2, 3, 3), (0, 1)), 7, 2**31 - 1,
               [[2**31 - 2, 2**31 - 3], [1, 2**31 - 2], [2**31 - 2, 0]]))
def test_restriction_and_section_matrices_match_loop_oracles(case):
    # every restricted entry equals the term-by-term convolution and is zero
    # past its degree, every section matrix from total - 2 to t* equals the
    # coefficient-by-coefficient fill, and restrict refuses exactly the
    # grids whose sections at t* fall short
    deg, seed, p, param = case
    pres = random_presentation(deg, seed, p)
    want = restrict_loop(pres, param)
    t_star, _ = _surjectivity_twists(deg)
    for t in range(-deg.d - 2, t_star + 1):
        assert np.array_equal(section_matrix(want, t), section_matrix_loop(want, t)), t
    (u1, u2, u3), (v1, v2, v3) = zip(*param)  # the line's coordinates are their cross product
    line = LinePoint(((u2 * v3 - u3 * v2) % p, (u3 * v1 - u1 * v3) % p, (u1 * v2 - u2 * v1) % p),
                     tuple(map(tuple, param)))
    m = section_matrix(want, t_star)
    if rank(m, p) < len(m):
        with pytest.raises(RestrictionError):
            restrict(pres, line)
    else:
        got = restrict(pres, line)
        assert np.array_equal(got.coefficients, want.coefficients)
        assert not _padding(got).any()


def test_surjectivity_verdict_is_the_same_at_the_smallest_safe_twist():
    # full row rank of the sections at t* agrees with full row rank at the
    # old twist, on seeded lines of the ci:1-5 and n2 fixtures at three
    # primes and on the coordinate lines of monomial grids; both verdicts occur
    cases = []
    for p in (7, 13, 65521):
        stream = rand.Stream(rand.derive(0x7A5, p))
        for a, b in [((a1, a2, a3), (0,)) for a1 in range(1, 6) for a2 in range(a1, 6)
                     for a3 in range(a2, 6)] + N2_GRID:
            pres = random_presentation(DegreeData(a, b), seed=1, prime=p)
            cases += [(pres, line_point(random_line(p, stream), p)) for _ in range(2)]
    for a, row in [((3, 4, 4), ["x1^3", "x2^4", "x3^4"]), ((2, 2, 3), ["x1^2", "x2^2", "x3^3"]),
                   ((2, 2, 3), ["x1^2", "x1*x2", "x1^3"])]:
        pres = presentation_from_strings(DegreeData(a, (0,)), [row])
        cases += [(pres, line_point(c, PRIME)) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    verdicts = []
    for pres, line in cases:
        rb = restrict_loop(pres, line.param)
        new, old = (section_matrix(rb, t) for t in _surjectivity_twists(pres.degrees))
        verdicts.append(rank(new, pres.prime) == len(new))
        assert verdicts[-1] == (rank(old, pres.prime) == len(old)), (pres.degrees, line.coords)
        if verdicts[-1]:
            assert np.array_equal(restrict(pres, line).coefficients, rb.coefficients)
        else:
            with pytest.raises(RestrictionError):
                restrict(pres, line)
    assert any(verdicts) and not all(verdicts)
