"""Exact dense linear algebra over a prime field.

Matrices hold int64 residues in [0, p); all arithmetic is modular and
exact.  Row reduction processes columns left to right, so pivot columns
are always the lexicographically earliest independent set -- the
downstream cokernel bases depend on that.  A fraction-free rational
elimination on the integer lifts is provided as an independent audit
route for ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rand import Stream

DEFAULT_PRIME = 65521


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Matrix:
    """Dense matrix over F_p."""

    __slots__ = ("a", "p")

    def __init__(self, a: np.ndarray, p: int = DEFAULT_PRIME):
        arr = np.asarray(a, dtype=np.int64) % p
        if arr.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional")
        self.a = arr
        self.p = p

    @classmethod
    def from_rows(cls, rows, p: int = DEFAULT_PRIME, cols: int | None = None) -> "Matrix":
        if len(rows) == 0:
            return cls(np.zeros((0, cols or 0), dtype=np.int64), p)
        return cls(np.array(rows, dtype=np.int64), p)

    @classmethod
    def zero(cls, rows: int, cols: int, p: int = DEFAULT_PRIME) -> "Matrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), p)

    @classmethod
    def identity(cls, n: int, p: int = DEFAULT_PRIME) -> "Matrix":
        return cls(np.eye(n, dtype=np.int64), p)

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def transpose(self) -> "Matrix":
        return Matrix(self.a.T.copy(), self.p)

    def mul_vec(self, v: np.ndarray) -> np.ndarray:
        if self.cols == 0:
            return np.zeros(self.rows, dtype=np.int64)
        return (self.a @ (np.asarray(v, dtype=np.int64) % self.p)) % self.p

    def to_lists(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self.a]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.p == other.p
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} mod {self.p})"


def _rref(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form mod p; returns (rref, pivot column indices)."""
    a = (np.array(a, dtype=np.int64) % p).copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        factors = a[:, c].copy()
        factors[r] = 0
        if np.any(factors):
            a = (a - np.outer(factors, a[r])) % p
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def rank(m: Matrix) -> int:
    """Rank over F_p."""
    if m.rows == 0 or m.cols == 0:
        return 0
    _, pivots = _rref(m.a, m.p)
    return len(pivots)


def kernel_basis(m: Matrix) -> list[np.ndarray]:
    """Vectors spanning the null space; always cols - rank of them."""
    if m.cols == 0:
        return []
    if m.rows == 0:
        return [np.eye(m.cols, dtype=np.int64)[i] for i in range(m.cols)]
    red, pivots = _rref(m.a, m.p)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(m.cols, dtype=np.int64)
        v[f] = 1
        for j, pc in enumerate(pivots):
            v[pc] = (-int(red[j, f])) % m.p
        basis.append(v)
    return basis


@dataclass(frozen=True)
class CokernelBasis:
    """Coset basis of target/image for a map given by a matrix.

    ``pivots`` are the target coordinates spanned by the image (earliest
    independent set), ``coset`` the complementary coordinates whose classes
    form a basis of the quotient.  ``image_rref`` holds the reduced row
    echelon generators of the image, used to reduce vectors to coset
    coordinates.
    """

    pivots: tuple[int, ...]
    coset: tuple[int, ...]
    image_rref: np.ndarray
    p: int

    @property
    def dim(self) -> int:
        return len(self.coset)

    def reduce(self, vectors: np.ndarray) -> np.ndarray:
        """Map columns of ``vectors`` (target coords) to coset coordinates."""
        v = np.asarray(vectors, dtype=np.int64) % self.p
        if v.ndim == 1:
            v = v[:, None]
        if len(self.coset) == 0:
            return np.zeros((0, v.shape[1]), dtype=np.int64)
        free_part = v[list(self.coset), :]
        if len(self.pivots) == 0:
            return free_part % self.p
        r_free = self.image_rref[:, list(self.coset)]
        pivot_part, out = v[list(self.pivots), :], free_part
        step = (np.iinfo(np.int64).max - self.p) // (self.p - 1) ** 2  # terms per int64 sum
        for lo in range(0, len(self.pivots), step):
            out = (out - r_free[lo:lo + step].T @ pivot_part[lo:lo + step]) % self.p
        return out


def cokernel_basis(m: Matrix) -> CokernelBasis:
    """Coset basis of coker(m) = target / column span of m."""
    target_dim = m.rows
    if target_dim == 0 or m.cols == 0:
        return CokernelBasis((), tuple(range(target_dim)),
                             np.zeros((0, target_dim), dtype=np.int64), m.p)
    red, pivots = _rref(m.a.T, m.p)
    coset = tuple(c for c in range(target_dim) if c not in pivots)
    return CokernelBasis(tuple(pivots), coset, red[: len(pivots)], m.p)


def rank_rational(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free
    (Bareiss) elimination with exact big-int arithmetic.  Audit oracle for
    the modular rank."""
    a = [[int(x) for x in row] for row in rows]
    if not a or not a[0]:
        return 0
    nr, nc = len(a), len(a[0])
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pivot_row = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                a[i][j] = (a[i][j] * a[r][c] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
    return r


def random_matrix(rows: int, cols: int, seed: int, p: int = DEFAULT_PRIME) -> Matrix:
    stream = Stream(seed)
    data = [[stream.below(p) for _ in range(cols)] for _ in range(rows)]
    return Matrix.from_rows(data, p, cols=cols)
