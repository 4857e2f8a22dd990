import numpy as np
import pytest

from helpers import rank_rational, random_matrix
from lefschetz_locus.field_linalg import DEFAULT_PRIME, Matrix, cokernel_basis, kernel_basis, rank


def test_rank_identity():
    assert rank(Matrix(np.eye(3))) == 3


def test_rank_zero():
    assert rank(Matrix.zero(2, 5)) == 0


def test_rank_empty_shapes():
    assert rank(Matrix.zero(0, 4)) == 0
    assert rank(Matrix.zero(4, 0)) == 0


def test_rank_seeded_matches_rational_oracle():
    m = random_matrix(4, 6, seed=20240)
    assert rank(m) == rank_rational(m.a.tolist())


@pytest.mark.parametrize("seed", range(12))
def test_rank_rational_agreement_loop(seed):
    rows = 2 + seed % 5
    cols = 2 + (seed * 7) % 6
    m = random_matrix(rows, cols, seed=seed)
    assert rank(m) == rank_rational(m.a.tolist())


@pytest.mark.parametrize("seed", range(10))
def test_rank_transpose_invariant(seed):
    m = random_matrix(3 + seed % 4, 2 + seed % 5, seed=1000 + seed)
    assert rank(m) == rank(Matrix(m.a.T, m.p))


@pytest.mark.parametrize("seed", range(10))
def test_kernel_dimension_plus_rank_is_cols(seed):
    m = random_matrix(3 + seed % 3, 2 + seed % 6, seed=2000 + seed)
    assert len(kernel_basis(m)) + rank(m) == m.cols


def test_kernel_identity_empty():
    assert kernel_basis(Matrix(np.eye(3))) == []


def test_kernel_zero_1x2():
    vecs = kernel_basis(Matrix.zero(1, 2))
    assert len(vecs) == 2


@pytest.mark.parametrize("seed", range(8))
def test_kernel_vectors_are_annihilated_and_independent(seed):
    m = random_matrix(4, 7, seed=3000 + seed)
    vecs = kernel_basis(m)
    for v in vecs:
        assert not np.any(m.a @ v % m.p)
    if vecs:
        stacked = Matrix(np.array(vecs), m.p)
        assert rank(stacked) == len(vecs)


def test_cokernel_zero_map_keeps_all_targets():
    ck = cokernel_basis(Matrix.zero(3, 2))
    assert ck.coset == (0, 1, 2)
    assert ck.pivots == ()


def test_cokernel_surjective_map_empty_coset():
    ck = cokernel_basis(Matrix(np.eye(4)))
    assert ck.coset == ()
    assert ck.dim == 0


def test_cokernel_reduce_kills_image_and_fixes_coset():
    m = random_matrix(5, 3, seed=77)
    ck = cokernel_basis(m)
    assert len(ck.coset) == 5 - rank(m)
    reduced = ck.reduce(m.a)
    assert not np.any(reduced)
    eye = np.eye(5, dtype=np.int64)
    projected = ck.reduce(eye[:, list(ck.coset)])
    assert np.array_equal(projected, np.eye(len(ck.coset), dtype=np.int64))


def test_cokernel_coset_is_pivot_complement():
    m = random_matrix(6, 4, seed=78)
    ck = cokernel_basis(m)
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
    assert Matrix(np.eye(2)).p == 65521


def test_cokernel_reduce_is_exact_at_the_largest_prime():
    # at p = 2^31 - 1 a single int64 dot product over the pivots overflows;
    # the reduction must match exact integer arithmetic
    p = 2**31 - 1
    ck = cokernel_basis(random_matrix(12, 7, seed=5, p=p))
    v = random_matrix(12, 3, seed=6, p=p).a
    r_free = ck.image_rref[:, list(ck.coset)].astype(object)
    exact = (v[list(ck.coset), :].astype(object)
             - r_free.T.dot(v[list(ck.pivots), :].astype(object))) % p
    assert len(ck.pivots) == 7
    assert ck.reduce(v).tolist() == exact.tolist()
