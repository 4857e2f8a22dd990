from math import comb

import pytest

from helpers import euler_characteristic, h2
from lefschetz_locus.bundle import (
    InconsistencyError,
    SplittingType,
    chern,
    classify_stability,
    generic_splitting,
    h0,
    lefschetz_oracle,
)
from lefschetz_locus.field_linalg import rank
from lefschetz_locus.presentation import (
    DegreeData,
    generic_module,
    graded_piece_matrix,
    random_presentation,
)

CI223 = DegreeData((2, 2, 3), (0,))
N1112 = DegreeData((1, 1, 1, 2), (0, 0))
UNSTABLE = DegreeData((1, 1, 1, 8), (0, 0))


def test_chern_223():
    c = chern(CI223)
    assert (c.c1, c.c2, c.d) == (-7, 16, 7)


def test_chern_twist_rule():
    c = chern(CI223)
    assert c.twisted(3).c2 == 16 - 21 + 9 == 4
    for t in range(-10, 11):
        tw = c.twisted(t)
        assert tw.c1 == c.c1 + 2 * t
        assert tw.c2 == c.c2 + c.c1 * t + t * t


def test_chern_1112():
    c = chern(N1112)
    assert (c.c1, c.c2) == (-5, 9)


def test_euler_characteristic_223_vanishes_at_zero():
    assert euler_characteristic(CI223, 0) == 0


def test_euler_difference_rule():
    for deg in (CI223, N1112, UNSTABLE):
        d = deg.d
        for t in range(-8, 9):
            diff = euler_characteristic(deg, t) - euler_characteristic(deg, t - 1)
            assert diff == 2 * t + 2 - d


def test_euler_1112_at_zero():
    assert euler_characteristic(N1112, 0) == -2


def test_euler_matches_riemann_roch_in_chern_classes():
    for deg in (CI223, N1112, UNSTABLE, DegreeData((2, 2, 2), (0,))):
        c = chern(deg)
        for t in range(-6, 7):
            tw = c.twisted(t)
            assert euler_characteristic(deg, t) == 2 + (3 * tw.c1 + tw.c1 ** 2) // 2 - tw.c2


def test_h0_vanishes_for_stable_fixture_below_half():
    for t in range(-5, 4):  # all t <= d/2 = 3.5
        assert h0(CI223, t) == 0


def test_h0_unstable_closed_form():
    # with the largest twist dominating, sections count a single line bundle
    for t in range(0, 9):
        want = comb(t - 1, 2) if t - 1 >= 2 else 0
        assert h0(UNSTABLE, t) == want


def test_h0_monotone_and_zero_far_left():
    for deg in (CI223, N1112, UNSTABLE):
        assert h0(deg, -50) == 0
        prev = 0
        for t in range(-10, 15):
            cur = h0(deg, t)
            assert cur >= prev
            prev = cur


@pytest.mark.parametrize("deg,seed", [(CI223, 1), (N1112, 2), (UNSTABLE, 1),
                                      (DegreeData((2, 2, 2, 3), (0, 1)), 1)])
def test_h0_equals_kernel_of_graded_slice(deg, seed):
    # sections of the twisted kernel sheaf are degree-t syzygies
    pres = random_presentation(deg, seed)
    for t in range(0, deg.d + 2):
        m = graded_piece_matrix(pres, t)
        assert m.cols - rank(m) == h0(deg, t)


def test_classify_223_stable():
    s = classify_stability(CI223)
    assert (s.cls, s.t0, s.c1_norm, s.k) == ("stable", 3, -1, None)
    assert s.semistable


def test_classify_1118_unstable_k2():
    s = classify_stability(UNSTABLE)
    assert (s.cls, s.t0, s.c1_norm, s.k) == ("unstable", 5, -1, 2)
    assert s.k == UNSTABLE.a[-1] - (UNSTABLE.d + 1) // 2


def test_classify_222_is_semistable():
    deg = DegreeData((2, 2, 2), (0,))
    s = classify_stability(deg)
    assert s.semistable
    assert s.c1_norm == 0 and s.t0 == 3
    assert h0(deg, s.t0 - 1) == 0  # the semistability criterion itself


def test_classify_even_unstable():
    deg = DegreeData((1, 1, 1, 9), (0, 0))
    s = classify_stability(deg)
    assert s.cls == "unstable" and s.c1_norm == 0 and s.k == 3


@pytest.mark.parametrize("a", [(1, 1, 1, 8), (2, 2, 2, 9), (1, 1, 1, 10)])
def test_instability_index_closed_form_b_zero_odd(a):
    deg = DegreeData(a, (0,) * (len(a) - 2))
    assert deg.d % 2 == 1
    s = classify_stability(deg)
    assert s.cls == "unstable"
    assert s.k == a[-1] - (deg.d + 1) // 2


def test_generic_splitting_cases():
    assert generic_splitting(classify_stability(DegreeData((2, 2, 2), (0,)))) == SplittingType(0, 0)
    assert generic_splitting(classify_stability(CI223)) == SplittingType(0, -1)
    assert generic_splitting(classify_stability(UNSTABLE)) == SplittingType(2, -3)
    assert generic_splitting(classify_stability(DegreeData((1, 1, 1, 9), (0, 0)))) == SplittingType(3, -3)


def test_oracle_semistable_cases():
    s_even = classify_stability(DegreeData((2, 2, 2), (0,)))
    assert lefschetz_oracle(s_even, SplittingType(0, 0))
    assert not lefschetz_oracle(s_even, SplittingType(1, -1))
    s_odd = classify_stability(CI223)
    assert lefschetz_oracle(s_odd, SplittingType(0, -1))
    assert not lefschetz_oracle(s_odd, SplittingType(1, -2))


def test_oracle_unstable_cases():
    s = classify_stability(DegreeData((1, 1, 1, 9), (0, 0)))  # c1_norm 0, k 3
    assert lefschetz_oracle(s, SplittingType(3, -3))
    assert not lefschetz_oracle(s, SplittingType(4, -4))
    u = classify_stability(UNSTABLE)  # c1_norm -1, k 2
    assert lefschetz_oracle(u, SplittingType(2, -3))
    assert not lefschetz_oracle(u, SplittingType(3, -4))


def test_oracle_boundary_k_zero():
    deg = DegreeData((1, 1, 1, 4), (0, 0))  # d = 7 odd, k = 4 - 4 = 0
    s = classify_stability(deg)
    assert s.cls == "unstable" and s.k == 0
    assert lefschetz_oracle(s, SplittingType(0, -1))
    assert not lefschetz_oracle(s, SplittingType(1, -2))


def test_oracle_rejects_inconsistent_total():
    s = classify_stability(CI223)
    with pytest.raises(InconsistencyError):
        lefschetz_oracle(s, SplittingType(1, -1))  # sums to 0, class says -1


def test_oracle_total_on_normalized_splittings():
    # every sorted splitting with the right total gets a verdict, no gaps
    reports = [
        classify_stability(DegreeData((2, 2, 2), (0,))),
        classify_stability(CI223),
        classify_stability(UNSTABLE),
        classify_stability(DegreeData((1, 1, 1, 9), (0, 0))),
    ]
    for s in reports:
        for alpha in range(0, 7):
            beta = s.c1_norm - alpha
            if alpha < beta:
                continue
            assert lefschetz_oracle(s, SplittingType(alpha, beta)) in (True, False)


def test_splitting_type_validation():
    with pytest.raises(ValueError):
        SplittingType(-1, 0)
    st = SplittingType(2, -3)
    assert (st.total, st.gap) == (-1, 5)
    assert st.shifted(3) == SplittingType(5, 0)


@pytest.mark.parametrize("a,b,seed", [((2, 2, 3), (0,), 1), ((3, 3, 3), (0,), 1),
                                      ((1, 1, 1, 8), (0, 0), 1)])
def test_chi_identity_with_module_cohomology(a, b, seed):
    # chi = h0 - h1 + h2, with h1 the Hilbert function of the module and h2
    # through duality; valid on these all-zero-target odd-twist fixtures
    deg = DegreeData(a, b)
    assert deg.d % 2 == 1 and all(x == 0 for x in b)
    m = generic_module(deg, seed)
    for t in range(-10, 11):
        chi = euler_characteristic(deg, t)
        assert chi == h0(deg, t) - m.h(t) + h2(deg, t)
