"""Finite-length graded modules presented as cokernels.

A module is given by degree data (a_1 <= ... <= a_{n+2}), (b_1 <= ... <= b_n)
and an n x (n+2) matrix of homogeneous forms, entry (j, i) of degree
a_i - b_j, mapping a sum of twists of the ring onto the module.  The
engine slices the map degree by degree, picks deterministic coset bases
for each graded piece of the cokernel, and exposes the multiplication
maps between consecutive pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rand
from .field_linalg import DEFAULT_PRIME, CokernelBasis, Matrix, cokernel_basis, kernel_basis
from .polyring import GradedPieceBasis, Polynomial, Ring, monomial_basis


class NonFiniteLengthError(ValueError):
    """The cokernel fails to vanish past its nominal socle degree."""


class NonGenericPresentationError(ValueError):
    """No seeded draw produced a presentation passing the genericity audit."""


def _dim_r(k: int) -> int:
    """Dimension of the degree-k piece of k[x1,x2,x3]."""
    return (k + 2) * (k + 1) // 2 if k >= 0 else 0


@dataclass(frozen=True)
class DegreeData:
    """Twist data for the presentation; len(a) == len(b) + 2."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        a, b = tuple(self.a), tuple(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(b) < 1:
            raise ValueError("need at least one target twist (n >= 1)")
        if len(a) != len(b) + 2:
            raise ValueError("need exactly two more source twists than target twists")
        if list(a) != sorted(a) or list(b) != sorted(b):
            raise ValueError("twist lists must be non-decreasing")

    @property
    def n(self) -> int:
        return len(self.b)

    @property
    def d(self) -> int:
        return sum(self.a) - sum(self.b)

    @property
    def socle_degree(self) -> int:
        return self.d - 3 - self.b[0]

    @property
    def middle_degree(self) -> int:
        """Degree index whose minor ideal carries the whole locus."""
        return (self.d - 4) // 2


@dataclass(frozen=True)
class PresentationMatrix:
    degrees: DegreeData
    entries: tuple[tuple[Polynomial, ...], ...]
    ring: Ring

    def __post_init__(self):
        deg = self.degrees
        if len(self.entries) != deg.n:
            raise ValueError("entry grid must have one row per target twist")
        for j, row in enumerate(self.entries):
            if len(row) != deg.n + 2:
                raise ValueError("entry grid must have one column per source twist")
            for i, f in enumerate(row):
                if f.ring != self.ring:
                    raise ValueError("entry ring mismatch")
                want = deg.a[i] - deg.b[j]
                if f.is_zero():
                    continue
                if not f.is_homogeneous() or f.degree() != want:
                    raise ValueError(
                        f"entry ({j},{i}) must be homogeneous of degree {want}"
                    )

    @property
    def prime(self) -> int:
        return self.ring.prime


def random_presentation(degrees: DegreeData, seed: int,
                        prime: int = DEFAULT_PRIME) -> PresentationMatrix:
    """Dense presentation with seeded uniform coefficients; entries whose
    required degree is negative stay zero."""
    ring = Ring(prime=prime, dual=False)
    stream = rand.Stream(seed)
    rows = []
    for j in range(degrees.n):
        row = []
        for i in range(degrees.n + 2):
            e = degrees.a[i] - degrees.b[j]
            if e < 0:
                row.append(Polynomial.zero(ring))
                continue
            terms = {m: stream.below(prime) for m in monomial_basis(e).monomials}
            row.append(Polynomial(ring, terms))
        rows.append(tuple(row))
    return PresentationMatrix(degrees, tuple(rows), ring)


def presentation_from_strings(degrees: DegreeData, grid: list[list[str]],
                              prime: int = DEFAULT_PRIME) -> PresentationMatrix:
    from .polyring import parse_poly

    if not (isinstance(grid, list) and all(
            isinstance(row, list) and all(isinstance(s, str) for s in row) for row in grid)):
        raise ValueError(f"the matrix must be a list of {degrees.n} rows, each a list of "
                         f"{degrees.n + 2} polynomial strings")
    ring = Ring(prime=prime, dual=False)
    rows = tuple(tuple(parse_poly(s, ring) for s in row) for row in grid)
    return PresentationMatrix(degrees, rows, ring)


def _block_layout(twists: tuple[int, ...], t: int) -> tuple[list[GradedPieceBasis], list[int], int]:
    bases = [monomial_basis(t - w) for w in twists]
    offsets = []
    total = 0
    for basis in bases:
        offsets.append(total)
        total += len(basis)
    return bases, offsets, total


def graded_piece_matrix(pres: PresentationMatrix, t: int) -> Matrix:
    """The degree-t slice of the presentation map, in monomial bases.  Term
    c * x^e of entry (j, i) sends the source monomial u to c * x^(e + u),
    and (e1, e2, e3) sits at r(r+1)/2 + r - e2, r = t - b_j - e1, in
    ``monomial_basis(t - b_j)``; every term of every block is added at once."""
    deg = pres.degrees
    _, tgt_off, tgt_dim = _block_layout(deg.b, t)
    src_bases, src_off, src_dim = _block_layout(deg.a, t)
    rows, cols, vals = [], [], []
    for j in range(deg.n):
        for i in range(deg.n + 2):
            f = pres.entries[j][i]
            if f.is_zero() or len(src_bases[i]) == 0:
                continue
            expo = np.array(list(f.terms), dtype=np.int64)[:, None] + np.array(
                src_bases[i].monomials, dtype=np.int64)  # term x source monomial
            r = t - deg.b[j] - expo[..., 0]
            rows.append((tgt_off[j] + r * (r + 1) // 2 + r - expo[..., 1]).ravel())
            cols.append(np.tile(src_off[i] + np.arange(len(src_bases[i])), len(f.terms)))
            vals.append(np.repeat(list(f.terms.values()), len(src_bases[i])))
    a = np.zeros((tgt_dim, src_dim), dtype=np.int64)
    if rows:
        np.add.at(a, (np.concatenate(rows), np.concatenate(cols)), np.concatenate(vals))
    return Matrix(a, pres.prime)


@dataclass(frozen=True)
class _Piece:
    degree: int
    target_bases: tuple[GradedPieceBasis, ...]
    offsets: tuple[int, ...]
    target_dim: int
    coker: CokernelBasis
    coset_monomials: tuple[tuple[int, tuple[int, int, int]], ...]

    @property
    def dim(self) -> int:
        return self.coker.dim


class GradedModule:
    """Cokernel of a presentation with per-degree coset bases."""

    def __init__(self, pres: PresentationMatrix, pieces: dict[int, _Piece]):
        self.pres = pres
        self.degrees = pres.degrees
        self.prime = pres.prime
        self.ring = pres.ring
        self._pieces = pieces
        self._var_maps: dict[int, tuple[Matrix, Matrix, Matrix]] = {}
        self.audit: dict = {}

    @classmethod
    def build(cls, pres: PresentationMatrix) -> "GradedModule":
        """Pieces from b_1 through max(e + 1, b_n).  The module is generated
        in degrees <= b_n, so it has finite length with socle degree <= e
        exactly when every piece from e + 1 on to there vanishes."""
        deg = pres.degrees
        lo = deg.b[0]
        e = deg.socle_degree
        hi = max(e + 1, deg.b[-1])
        pieces: dict[int, _Piece] = {}
        for t in range(lo, hi + 1):
            pieces[t] = cls._build_piece(pres, t)
        for t in range(max(e + 1, lo), hi + 1):
            if pieces[t].dim != 0:
                raise NonFiniteLengthError(
                    f"nonzero graded piece in degree {t} beyond socle degree {e}"
                )
        return cls(pres, pieces)

    @staticmethod
    def _build_piece(pres: PresentationMatrix, t: int) -> _Piece:
        deg = pres.degrees
        tgt_bases, tgt_off, tgt_dim = _block_layout(deg.b, t)
        phi_t = graded_piece_matrix(pres, t)
        coker = cokernel_basis(phi_t)
        coset_monos = []
        for coord in coker.coset:
            for j in range(deg.n):
                if coord < tgt_off[j] + len(tgt_bases[j]):
                    coset_monos.append((j, tgt_bases[j].monomials[coord - tgt_off[j]]))
                    break
        return _Piece(t, tuple(tgt_bases), tuple(tgt_off), tgt_dim, coker,
                      tuple(coset_monos))

    def piece(self, t: int) -> _Piece:
        if t in self._pieces:
            return self._pieces[t]
        piece = self._build_piece(self.pres, t)
        self._pieces[t] = piece
        return piece

    @cached_property
    def support(self) -> tuple[int, ...]:
        lo, e = self.degrees.b[0], self.degrees.socle_degree
        return tuple(t for t in range(lo, e + 1))

    def h(self, t: int) -> int:
        lo, e = self.degrees.b[0], self.degrees.socle_degree
        if t < lo or t > e:
            return 0
        return self.piece(t).dim

    def hilbert(self) -> dict[int, int]:
        return {t: self.h(t) for t in self.support}

    def multiplication_map(self, ell: Polynomial, t: int) -> Matrix:
        """Matrix of multiplication by the linear form ell from the degree-t
        coset basis to the degree-(t+1) one: lift, multiply, reduce mod the
        image of the next slice."""
        if ell.ring != self.ring:
            raise ValueError("linear form lives in the wrong ring")
        if not ell.is_zero() and (not ell.is_homogeneous() or ell.degree() != 1):
            raise ValueError("multiplication map needs a linear form")
        src = self.piece(t)
        dst = self.piece(t + 1)
        out_shape = (dst.dim, src.dim)
        if src.dim == 0 or dst.dim == 0 or ell.is_zero():
            return Matrix.zero(*out_shape, self.prime)
        lifted = np.zeros((dst.target_dim, src.dim), dtype=np.int64)
        dst_index = [basis.index() for basis in dst.target_bases]
        for c, (j, mono) in enumerate(src.coset_monomials):
            for mv, cv in ell.terms.items():
                target = (mono[0] + mv[0], mono[1] + mv[1], mono[2] + mv[2])
                r = dst.offsets[j] + dst_index[j][target]
                lifted[r, c] = (lifted[r, c] + cv) % self.prime
        return Matrix(dst.coker.reduce(lifted), self.prime)

    def variable_maps(self, t: int) -> tuple[Matrix, Matrix, Matrix]:
        """Cached multiplication maps by x1, x2, x3 out of degree t."""
        if t not in self._var_maps:
            self._var_maps[t] = tuple(
                self.multiplication_map(Polynomial.variable(self.ring, v), t)
                for v in range(3)
            )
        return self._var_maps[t]

    def socle(self) -> tuple[int, ...]:
        """Degrees (with multiplicity) annihilated by all three variables."""
        out: list[int] = []
        for t in self.support:
            maps = self.variable_maps(t)
            stacked = np.vstack([m.a for m in maps])
            dim = len(kernel_basis(Matrix(stacked, self.prime)))
            out.extend([t] * dim)
        return tuple(out)


# -- genericity ----------------------------------------------------------


def generic_hilbert_profile(degrees: DegreeData) -> dict[int, int]:
    """Hilbert function forced by the degree data when the presentation is
    generic (alternating sum of the four twisted free modules)."""
    d = degrees.d
    lo, e = degrees.b[0], degrees.socle_degree
    profile = {}
    for t in range(lo, max(e, lo) + 1):
        value = (
            sum(_dim_r(t - bj) for bj in degrees.b)
            - sum(_dim_r(t - ai) for ai in degrees.a)
            + sum(_dim_r(t - d + ai) for ai in degrees.a)
            - sum(_dim_r(t - d + bj) for bj in degrees.b)
        )
        profile[t] = value
    return profile


def generic_module(degrees: DegreeData, seed: int, prime: int = DEFAULT_PRIME,
                   max_attempts: int = 8) -> GradedModule:
    """Seeded generic module with a post-hoc audit: finite length and the
    generic Hilbert profile.  Rejected draws are re-seeded deterministically
    and recorded in ``module.audit``."""
    profile = generic_hilbert_profile(degrees)
    rejected: list[int] = []
    attempt_seed = seed
    for attempt in range(max_attempts):
        pres = random_presentation(degrees, attempt_seed, prime)
        try:
            mod = GradedModule.build(pres)
        except NonFiniteLengthError:
            rejected.append(attempt_seed)
            attempt_seed = rand.derive(seed, attempt + 1)
            continue
        if mod.hilbert() == profile:
            mod.audit = {
                "requested_seed": seed,
                "seed": attempt_seed,
                "rejected_seeds": list(rejected),
                "hilbert_matches_generic_profile": True,
            }
            return mod
        rejected.append(attempt_seed)
        attempt_seed = rand.derive(seed, attempt + 1)
    raise NonGenericPresentationError(
        f"no generic presentation found for degrees {degrees} after "
        f"{max_attempts} seeded attempts (rejected: {rejected})"
    )
