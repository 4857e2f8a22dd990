"""Exact dense linear algebra over a prime field.

Matrices hold int64 residues in [0, p); all arithmetic is modular and
exact.  Row reduction processes columns left to right, so pivot columns
are always the lexicographically earliest independent set -- the
downstream cokernel bases depend on that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

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
    a = np.asarray(a, dtype=np.int64) % p  # a fresh array: the caller's is never touched
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


def _matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residue matrices, or stacks of them (broadcast as by
    ``@``), exact in int64: the inner sums are taken a chunk of terms at a
    time and reduced in between."""
    step = (np.iinfo(np.int64).max - p) // (p - 1) ** 2  # terms per int64 sum
    out = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1]),
                   dtype=np.int64)
    for lo in range(0, a.shape[-1], step):
        out = (out + a[..., lo:lo + step] @ b[..., lo:lo + step, :]) % p
    return out


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
        return (free_part - _matmul(r_free.T, v[list(self.pivots), :], self.p)) % self.p


def cokernel_basis(m: Matrix) -> CokernelBasis:
    """Coset basis of coker(m) = target / column span of m."""
    target_dim = m.rows
    if target_dim == 0 or m.cols == 0:
        return CokernelBasis((), tuple(range(target_dim)),
                             np.zeros((0, target_dim), dtype=np.int64), m.p)
    red, pivots = _rref(m.a.T, m.p)
    coset = tuple(c for c in range(target_dim) if c not in pivots)
    return CokernelBasis(tuple(pivots), coset, red[: len(pivots)], m.p)
