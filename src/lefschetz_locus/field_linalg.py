"""Exact dense linear algebra over a prime field.

A matrix is a 2-D int64 array of residues, with the prime p passed beside
it; all arithmetic is modular and exact.  Inside ``_rref`` and ``_matmul``
entries leave [0, p) between reductions: each is a residue plus at most
``_room(p)`` products of two residues, which int64 holds exactly (p < 2^31
keeps room >= 2), and is reduced mod p before more accumulate.  Row
reduction processes columns left to right, so pivot columns are always the
lexicographically earliest independent set -- the downstream cokernel bases
depend on that.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

DEFAULT_PRIME = 65521


@functools.lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Trial division, cached: every ``Ring`` checks its prime."""
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


def _room(p: int) -> int:
    """How many products of two residues an int64 holds on top of a residue."""
    return ((1 << 63) - 1 - p) // (p - 1) ** 2  # int64 max, in Python ints


def _rref(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form mod p; returns (rref, pivot column indices).

    Gauss-Jordan with delayed reduction.  Pivot c subtracts col (x) piv from
    the block a[:, c:] only, in place, where piv is the pivot row made monic
    and col the pivot column reduced, less 1 in the pivot row, so that the
    one update also scales the pivot row.  Rows not yet pivoted are = 0 mod p
    left of c, so nothing is lost left of c.  Each update subtracts residue
    products in [0, (p-1)^2] from entries that start in [0, p), so the block
    is only reduced mod p after ``_room(p)`` updates, and all of it at the
    end."""
    a = np.asarray(a, dtype=np.int64) % p  # a fresh array: the caller's is never touched
    rows, cols = a.shape
    room = _room(p)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = a[:, c] % p
        if not col[r]:
            nz = np.flatnonzero(col[r:])
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            top = a[r, c:].copy()
            a[r, c:] = a[i, c:]
            a[i, c:] = top
            col[r], col[i] = col[i], 0
        piv = a[r, c:] % p * pow(int(col[r]), -1, p) % p
        col[r] -= 1
        a[:, c:] -= col[:, None] * piv
        pivots.append(c)
        r += 1
        if r % room == 0:
            a[:, c:] %= p
    a %= p
    return a, tuple(pivots)


def _matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residue matrices, or stacks of them (broadcast as by
    ``@``), exact in int64: the inner sums are taken a chunk of terms at a
    time and reduced in between, in one chunk when they fit."""
    step = _room(p)  # terms per int64 sum
    if a.shape[-1] <= step:
        return a @ b % p
    out = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1]),
                   dtype=np.int64)
    for lo in range(0, a.shape[-1], step):
        out = (out + a[..., lo:lo + step] @ b[..., lo:lo + step, :]) % p
    return out


def rank(a: np.ndarray, p: int) -> int:
    """Rank over F_p."""
    return len(_rref(a, p)[1])


def kernel_basis(a: np.ndarray, p: int) -> list[np.ndarray]:
    """Vectors spanning the null space; always cols - rank of them."""
    red, pivots = _rref(a, p)
    basis = []
    for f in (c for c in range(red.shape[1]) if c not in pivots):
        v = np.zeros(red.shape[1], dtype=np.int64)
        v[f] = 1
        for j, pc in enumerate(pivots):
            v[pc] = (-int(red[j, f])) % p
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
        free_part = v[list(self.coset), :]
        r_free = self.image_rref[:, list(self.coset)]
        return (free_part - _matmul(r_free.T, v[list(self.pivots), :], self.p)) % self.p


def cokernel_basis(a: np.ndarray, p: int) -> CokernelBasis:
    """Coset basis of coker(a) = target / column span of a."""
    red, pivots = _rref(a.T, p)
    coset = tuple(sorted(set(range(a.shape[0])).difference(pivots)))
    return CokernelBasis(tuple(pivots), coset, red[: len(pivots)], p)
