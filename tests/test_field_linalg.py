import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import rank_rational, random_matrix, rref_loop
from lefschetz_locus.field_linalg import (
    DEFAULT_PRIME,
    _matmul,
    _room,
    _rref,
    cokernel_basis,
    is_prime,
    kernel_basis,
    rank,
)


@st.composite
def _integer_matrices(draw):
    """Up to 14 x 14 integer matrices with a prime: random, low-rank
    products or with zeroed columns, each entry shifted by a multiple of p
    so that some lie outside [0, p)."""
    p = draw(st.sampled_from([2, 13, 65521, 2**31 - 1]))
    rows, cols = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    kind = draw(st.sampled_from(["random", "low-rank", "zero-columns"]))

    def block(r, c):
        return [draw(st.lists(st.integers(0, p - 1), min_size=c, max_size=c)) for _ in range(r)]

    a = block(rows, cols)
    if kind == "low-rank":
        k = draw(st.integers(0, min(rows, cols)))
        left, right = block(rows, k), block(k, cols)
        a = [[sum(left[i][t] * right[t][j] for t in range(k)) % p for j in range(cols)]
             for i in range(rows)]
    elif kind == "zero-columns":
        zero = draw(st.sets(st.integers(0, cols - 1)))
        a = [[0 if j in zero else x for j, x in enumerate(row)] for row in a]
    shift = draw(st.lists(st.integers(-3, 3), min_size=rows * cols, max_size=rows * cols))
    return p, [[x + p * shift[i * cols + j] for j, x in enumerate(row)] for i, row in enumerate(a)]


@settings(max_examples=200, deadline=None)
@given(case=_integer_matrices())
@example(case=(2**31 - 1, random_matrix(9, 12, seed=515, p=2**31 - 1).tolist()))
def test_rref_matches_the_python_int_loop(case):
    # same matrix and pivots as Gauss-Jordan over Python ints; at 2^31 - 1
    # the int64 headroom is 2 updates, so 3 or more pivots cross it (the
    # explicit example has 9)
    p, rows = case
    a = np.array(rows, dtype=np.int64)
    before = a.copy()
    red, pivots = _rref(a, p)
    want, want_pivots = rref_loop(rows, p)
    assert pivots == want_pivots
    assert red.dtype == np.int64 and red.tolist() == want
    assert np.array_equal(a, before)


P = DEFAULT_PRIME


def _zero(rows, cols):
    return np.zeros((rows, cols), dtype=np.int64)


def test_rank_identity():
    assert rank(np.eye(3, dtype=np.int64), P) == 3


def test_kernel_and_cokernel_of_empty_shapes():
    # no special case: the elimination itself handles a side of length 0
    assert [v.tolist() for v in kernel_basis(_zero(0, 3), P)] == np.eye(3).tolist()
    assert kernel_basis(_zero(2, 0), P) == []
    ck = cokernel_basis(_zero(3, 0), P)
    assert (ck.pivots, ck.coset, ck.image_rref.shape) == ((), (0, 1, 2), (0, 3))
    assert ck.reduce(np.array([[4], [-1], [7]])).tolist() == [[4], [DEFAULT_PRIME - 1], [7]]
    ck = cokernel_basis(_zero(0, 2), P)
    assert (ck.coset, ck.reduce(np.zeros((0, 2), dtype=np.int64)).shape) == ((), (0, 2))
    ck = cokernel_basis(np.eye(2, dtype=np.int64), P)
    assert ck.reduce(np.array([[3], [5]])).shape == (0, 1)


def test_rank_zero():
    assert rank(_zero(2, 5), P) == 0


def test_rank_empty_shapes():
    assert rank(_zero(0, 4), P) == 0
    assert rank(_zero(4, 0), P) == 0


def test_rank_seeded_matches_rational_oracle():
    m = random_matrix(4, 6, seed=20240)
    assert rank(m, P) == rank_rational(m.tolist())


@pytest.mark.parametrize("seed", range(12))
def test_rank_rational_agreement_loop(seed):
    rows = 2 + seed % 5
    cols = 2 + (seed * 7) % 6
    m = random_matrix(rows, cols, seed=seed)
    assert rank(m, P) == rank_rational(m.tolist())


@pytest.mark.parametrize("seed", range(10))
def test_rank_transpose_invariant(seed):
    m = random_matrix(3 + seed % 4, 2 + seed % 5, seed=1000 + seed)
    assert rank(m, P) == rank(m.T, P)


@pytest.mark.parametrize("seed", range(10))
def test_kernel_dimension_plus_rank_is_cols(seed):
    m = random_matrix(3 + seed % 3, 2 + seed % 6, seed=2000 + seed)
    assert len(kernel_basis(m, P)) + rank(m, P) == m.shape[1]


def test_kernel_identity_empty():
    assert kernel_basis(np.eye(3, dtype=np.int64), P) == []


def test_kernel_zero_1x2():
    vecs = kernel_basis(_zero(1, 2), P)
    assert len(vecs) == 2


@pytest.mark.parametrize("seed", range(8))
def test_kernel_vectors_are_annihilated_and_independent(seed):
    m = random_matrix(4, 7, seed=3000 + seed)
    vecs = kernel_basis(m, P)
    for v in vecs:
        assert not np.any(m @ v % P)
    if vecs:
        assert rank(np.array(vecs), P) == len(vecs)


def test_cokernel_zero_map_keeps_all_targets():
    ck = cokernel_basis(_zero(3, 2), P)
    assert ck.coset == (0, 1, 2)
    assert ck.pivots == ()


def test_cokernel_surjective_map_empty_coset():
    ck = cokernel_basis(np.eye(4, dtype=np.int64), P)
    assert ck.coset == ()
    assert ck.dim == 0


def test_cokernel_reduce_kills_image_and_fixes_coset():
    m = random_matrix(5, 3, seed=77)
    ck = cokernel_basis(m, P)
    assert len(ck.coset) == 5 - rank(m, P)
    reduced = ck.reduce(m)
    assert not np.any(reduced)
    eye = np.eye(5, dtype=np.int64)
    projected = ck.reduce(eye[:, list(ck.coset)])
    assert np.array_equal(projected, np.eye(len(ck.coset), dtype=np.int64))


def test_cokernel_coset_is_pivot_complement():
    m = random_matrix(6, 4, seed=78)
    ck = cokernel_basis(m, P)
    assert sorted(ck.pivots + ck.coset) == list(range(6))


def test_rank_rational_known_values():
    assert rank_rational([[1, 2], [2, 4]]) == 1
    assert rank_rational([[1, 0], [0, 1]]) == 2
    assert rank_rational([[0, 0], [0, 0]]) == 0
    # entries large enough to overflow naive floating point paths
    big = 10**30
    assert rank_rational([[big, 2 * big], [big + 1, 2 * big + 2]]) == 1
    assert rank_rational([[big, 2 * big], [big + 1, 2 * big + 3]]) == 2


def test_default_prime():
    assert DEFAULT_PRIME == 65521


def test_is_prime_matches_a_sieve_and_the_largest_prime():
    # the check is cached; a repeated call gives the same answer
    sieve = [False, False] + [True] * 1999
    for k in range(2, 2001):
        if sieve[k]:
            sieve[k * k::k] = [False] * len(sieve[k * k::k])
    for _ in range(2):
        assert [is_prime(n) for n in range(-3, 2001)] == [False] * 3 + sieve
        assert is_prime(2**31 - 1) and not is_prime(2**31 - 3)


def test_cokernel_reduce_is_exact_at_the_largest_prime():
    # at p = 2^31 - 1 a single int64 dot product over the pivots overflows;
    # the reduction must match exact integer arithmetic
    p = 2**31 - 1
    ck = cokernel_basis(random_matrix(12, 7, seed=5, p=p), p)
    v = random_matrix(12, 3, seed=6, p=p)
    r_free = ck.image_rref[:, list(ck.coset)].astype(object)
    exact = (v[list(ck.coset), :].astype(object)
             - r_free.T.dot(v[list(ck.pivots), :].astype(object))) % p
    assert len(ck.pivots) == 7
    assert ck.reduce(v).tolist() == exact.tolist()


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([13, 65521, 2**31 - 1]), data=st.data())
def test_matmul_is_the_python_int_product_on_both_sides_of_the_room(p, data):
    # one product where the inner sum fits _room(p), chunks where it does
    # not: at 2^31 - 1 the room is 2, so inner sizes 1 to 5 take both,
    # and entries of p - 1 make every unreduced sum of three products wrap
    inner = data.draw(st.integers(0, 5))
    stack, rows, cols = (data.draw(st.integers(1, 3)) for _ in range(3))
    entry = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
    a = np.array(data.draw(st.lists(entry, min_size=stack * rows * inner,
                                    max_size=stack * rows * inner)),
                 dtype=np.int64).reshape(stack, rows, inner)
    b = np.array(data.draw(st.lists(entry, min_size=inner * cols, max_size=inner * cols)),
                 dtype=np.int64).reshape(inner, cols)
    got = _matmul(a, b, p)
    want = [[[sum(int(a[k, i, j]) * int(b[j, c]) for j in range(inner)) % p
              for c in range(cols)] for i in range(rows)] for k in range(stack)]
    assert got.dtype == np.int64 and got.tolist() == want
    assert (inner <= _room(p)) == (p != 2**31 - 1 or inner <= 2)
