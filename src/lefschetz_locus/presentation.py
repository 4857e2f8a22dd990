"""Finite-length graded modules presented as cokernels.

A module is given by degree data (a_1 <= ... <= a_{n+2}), (b_1 <= ... <= b_n)
and an n x (n+2) matrix of homogeneous forms, entry (j, i) of degree
a_i - b_j, mapping a sum of twists of the ring onto the module.  Each
graded piece of the cokernel gets a deterministic coset basis when it is
first read, and the engine exposes the multiplication maps between
consecutive pieces.  A piece has one of two routes.  Up to degree
t0 = max(a_(n+2), b_n, i* + 1), where generators and relations are still
born and every command reads, it is the cokernel of the degree-t slice of
the map.  Above t0 it is R_1 (x) M_(t-1) modulo the Koszul relations out
of M_(t-2), a 3h(t-1) x 3h(t-2) elimination that gives the maps into it at
once (``GradedModule.piece``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rand
from .field_linalg import DEFAULT_PRIME, CokernelBasis, cokernel_basis, rank
from .polyring import GradedPieceBasis, Polynomial, Ring, monomial_basis, position


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

    @cached_property
    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every term of every entry, entry by entry in row order, as arrays:
        target j, source i, exponent triples and coefficients."""
        forms = [f for row in self.entries for f in row]
        j, i = np.divmod(np.repeat(np.arange(len(forms)), [len(f.terms) for f in forms]),
                         self.degrees.n + 2)
        exps = np.array([m for f in forms for m in f.terms], dtype=np.int64).reshape(-1, 3)
        coefs = np.array([c for f in forms for c in f.terms.values()], dtype=np.int64)
        return j, i, exps, coefs

    @cached_property
    def generator_degrees(self) -> tuple[int, ...]:
        """Degrees of a minimal generating set of the cokernel, ascending,
        with multiplicity.  The generators of degree w are the b_j = w less
        the rank of the constant block of entries from the a_i = w to the
        b_j = w, read from the entries themselves: a unit entry cancels a
        generator."""
        deg, out = self.degrees, []
        for w in sorted(set(deg.b)):
            rows = [j for j, bj in enumerate(deg.b) if bj == w]
            cols = [i for i, ai in enumerate(deg.a) if ai == w]
            block = np.array([[self.entries[j][i].terms.get((0, 0, 0), 0) for i in cols]
                              for j in rows], dtype=np.int64).reshape(len(rows), len(cols))
            out += [w] * (len(rows) - (rank(block, self.prime) if cols else 0))
        return tuple(out)


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


def _block_layout(twists: tuple[int, ...], t: int) -> tuple[list[GradedPieceBasis], np.ndarray, int]:
    """Monomial bases of the blocks R_{t - w}, their offsets and total size."""
    bases = [monomial_basis(t - w) for w in twists]
    sizes = np.array([len(basis) for basis in bases], dtype=np.int64)
    return bases, np.cumsum(sizes) - sizes, int(sizes.sum())


def graded_piece_matrix(pres: PresentationMatrix, t: int) -> np.ndarray:
    """The degree-t slice of the presentation map, in monomial bases.  Term
    c * x^e of entry (j, i) sends the source monomial u to c * x^(e + u), at
    its ``position`` in ``monomial_basis(t - b_j)``.  All terms with one
    source twist expand at once; no two land on one position, as an entry's
    monomials are distinct."""
    deg = pres.degrees
    _, tgt_off, tgt_dim = _block_layout(deg.b, t)
    src_bases, src_off, src_dim = _block_layout(deg.a, t)
    tj, ti, exps, coefs = pres.terms
    b, twist = np.array(deg.b), np.array(deg.a)[ti]
    a = np.zeros((tgt_dim, src_dim), dtype=np.int64)
    for w in sorted(set(deg.a)):
        sel = np.flatnonzero(twist == w)
        src = np.array(src_bases[deg.a.index(w)].monomials, dtype=np.int64).reshape(-1, 3)
        expo = exps[sel, None] + src  # term x source monomial
        j = tj[sel, None]
        a[tgt_off[j] + position(t - b[j], expo),
          src_off[ti[sel], None] + np.arange(len(src))] = coefs[sel, None]
    return a


@dataclass(frozen=True)
class _Piece:
    offsets: np.ndarray
    target_dim: int
    coker: CokernelBasis
    coset_blocks: np.ndarray  # target block j of each coset coordinate
    coset_exponents: np.ndarray  # and its monomial, one exponent triple per row

    @property
    def dim(self) -> int:
        return self.coker.dim


@dataclass(frozen=True)
class _KoszulPiece:
    """A piece above t0: coset coordinate v * h(t-1) + i is the class of
    x_v * m_i, for the i-th basis class m_i of the piece below."""

    coset: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.coset)


class GradedModule:
    """Cokernel of a presentation with per-degree coset bases."""

    def __init__(self, pres: PresentationMatrix, pieces: dict[int, _Piece | _KoszulPiece]):
        self.pres = pres
        self.degrees = pres.degrees
        self.prime = pres.prime
        self.ring = pres.ring
        self._pieces = pieces
        self._maps: dict[int, np.ndarray] = {}  # x1, x2, x3 maps out of degree t
        self.audit: dict = {}
        self.certified = False  # finite length checked by ``build``

    @classmethod
    def build(cls, pres: PresentationMatrix) -> "GradedModule":
        """The module, certified of finite length: only the pieces from
        e + 1 through max(e + 1, b_n), and those they rest on, are built
        here, and a nonzero one is refused (``first_piece_beyond_socle``).
        Above t0 that is the Koszul chain from t0 + 1 up, each step a small
        elimination, not the largest slice of all.  Every other piece is
        built when ``piece`` first asks for it.  An accepted module is
        M = H^1_*(E) for the rank-2 bundle E, the kernel of the presentation,
        with c_1(E) = -d, so E^dual = E(d) and Serre duality pairs M_t
        perfectly with M_(d-3-t), compatibly with multiplication; ``h`` and
        ``lefschetz.is_lefschetz`` read only the lower half of each pair."""
        mod = cls(pres, {})
        t = mod.first_piece_beyond_socle()
        if t is not None:
            raise NonFiniteLengthError(
                f"nonzero graded piece in degree {t} beyond socle degree "
                f"{pres.degrees.socle_degree}")
        mod.certified = True
        return mod

    def first_piece_beyond_socle(self) -> int | None:
        """The first degree from e + 1 through max(e + 1, b_n) with a nonzero
        piece, or None.  The module is generated in degrees <= b_n, so it
        has finite length with socle degree <= e exactly when there is none."""
        deg = self.degrees
        e = deg.socle_degree
        return next((t for t in range(max(e + 1, deg.b[0]), max(e + 1, deg.b[-1]) + 1)
                     if self.piece(t).dim), None)

    @staticmethod
    def _build_piece(pres: PresentationMatrix, t: int) -> _Piece:
        """The cokernel of the degree-t slice.  Below a_1 the slice has no
        source column, so every target coordinate is a coset coordinate and
        neither the slice nor an elimination is built."""
        tgt_bases, tgt_off, tgt_dim = _block_layout(pres.degrees.b, t)
        if t < pres.degrees.a[0]:
            coker = CokernelBasis((), tuple(range(tgt_dim)),
                                  np.zeros((0, tgt_dim), dtype=np.int64), pres.prime)
        else:
            coker = cokernel_basis(graded_piece_matrix(pres, t), pres.prime)
        coset = np.array(coker.coset, dtype=np.int64)
        monos = np.array([m for basis in tgt_bases for m in basis.monomials],
                         dtype=np.int64).reshape(-1, 3)
        return _Piece(tgt_off, tgt_dim, coker,
                      np.searchsorted(tgt_off, coset, side="right") - 1, monos[coset])

    @cached_property
    def slice_top(self) -> int:
        """t0 = max(a_(n+2), b_n, i* + 1), the last degree built from its
        slice: generators and relations are born up to max(a_(n+2), b_n),
        and every command reads the pieces up to the middle map, i* + 1."""
        deg = self.degrees
        return max(deg.a[-1], deg.b[-1], deg.middle_degree + 1)

    def piece(self, t: int) -> _Piece | _KoszulPiece:
        """M_t with its coset basis, built on first read: from its slice up
        to t0 (``slice_top``), by the Koszul complex above it, lowest
        degree first.

        Let t > t0, so t > a_(n+2) and t > b_n.  No generator or relation
        is born in degree t: G_t = R_1 G_(t-1) for the free module
        G = sum R(-b_j), and N_t = R_1 N_(t-1) for the image N of the
        presentation.  The Koszul complex of x1, x2, x3 is exact in positive
        degree, so the kernel of R_1 (x) G_(t-1) -> G_t is spanned by the
        x_u (x) x_v g - x_v (x) x_u g with g in G_(t-2).  Hence
        M_t = (R_1 (x) M_(t-1)) / <x_u (x) X_v m - x_v (x) X_u m : u < v,
        m in M_(t-2)>, where X_v are the maps out of degree t - 2.  That is
        the cokernel of a 3h(t-1) x 3h(t-2) matrix, and reducing each
        x_v (x) m_i to coset coordinates is the map of x_v out of degree
        t - 1, cached with the piece.  Nothing assumes finite length or
        duality, so ``first_piece_beyond_socle`` stays exact on any input."""
        if t not in self._pieces:
            if t <= self.slice_top:
                self._pieces[t] = self._build_piece(self.pres, t)
            else:
                for s in range(self.slice_top + 1, t + 1):
                    if s not in self._pieces:
                        self._pieces[s] = self._koszul_piece(s)
        return self._pieces[t]

    def _koszul_piece(self, t: int) -> _KoszulPiece:
        """Piece t > t0 as in ``piece``; it stores the maps out of t - 1.
        Coordinate v * h(t-1) + i of R_1 (x) M_(t-1) is x_v (x) m_i, and
        the relation of (u, v) and m_k is a column of the matrix."""
        p, x = self.prime, self.variable_maps(t - 2)
        _, h, k = x.shape
        rel = np.zeros((3, h, 3, k), dtype=np.int64)
        for col, (u, v) in enumerate(((0, 1), (0, 2), (1, 2))):
            rel[u, :, col] = x[v]
            rel[v, :, col] = -x[u] % p
        coker = cokernel_basis(rel.reshape(3 * h, 3 * k), p)
        coset, pivots = list(coker.coset), list(coker.pivots)
        maps = np.zeros((coker.dim, 3 * h), dtype=np.int64)
        maps[:, coset] = np.eye(coker.dim, dtype=np.int64)
        maps[:, pivots] = -coker.image_rref[:, coset].T % p
        maps = maps.reshape(coker.dim, 3, h).transpose(1, 0, 2)
        maps.flags.writeable = False  # shared by every caller
        self._maps[t - 1] = maps
        return _KoszulPiece(coker.coset)

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(range(self.degrees.b[0], self.degrees.socle_degree + 1))

    def h(self, t: int) -> int:
        """dim M_t, zero outside b_1 through e.  On a module that ``build``
        certified it is read from degree min(t, d - 3 - t), as Serre duality
        gives h(t) = h(d - 3 - t).  The pieces above the middle are then
        built only when asked for, as by ``socle`` or a map out of them,
        by the Koszul route of ``piece`` above t0."""
        deg = self.degrees
        if not deg.b[0] <= t <= deg.socle_degree:
            return 0
        return self.piece(min(t, deg.d - 3 - t) if self.certified else t).dim

    def hilbert(self) -> dict[int, int]:
        return {t: self.h(t) for t in self.support}

    def variable_maps(self, t: int) -> np.ndarray:
        """The maps of x1, x2, x3 from the degree-t coset basis to the
        degree-(t+1) one, as one (3, h(t+1), h(t)) stack, cached.  Below t0
        each coset monomial times each variable is placed at its
        ``position`` in the next slice and reduced mod the image of that
        slice; from t0 on the maps come with the Koszul piece t + 1."""
        if t not in self._maps and t >= self.slice_top:
            self.piece(t + 1)
        if t not in self._maps:
            src, dst = self.piece(t), self.piece(t + 1)
            expo = src.coset_exponents + np.eye(3, dtype=np.int64)[:, None]  # variable x coset
            j = src.coset_blocks
            rows = dst.offsets[j] + position(t + 1 - np.array(self.degrees.b)[j], expo)
            lifted = np.zeros((dst.target_dim, 3 * src.dim), dtype=np.int64)
            lifted[rows.ravel(), np.arange(3 * src.dim)] = 1
            maps = dst.coker.reduce(lifted).reshape(dst.dim, 3, src.dim).transpose(1, 0, 2)
            maps.flags.writeable = False  # shared by every caller
            self._maps[t] = maps
        return self._maps[t]

    def multiplication_map(self, line, t: int) -> np.ndarray:
        """Map of l1*x1 + l2*x2 + l3*x3 out of degree t, for the coefficient
        triple ``line`` = (l1, l2, l3): each product l_v * (map of x_v) is
        reduced mod p before the sum, which keeps it inside int64."""
        p = self.prime
        coeffs = np.array([int(c) % p for c in line], dtype=np.int64)
        return (coeffs[:, None, None] * self.variable_maps(t) % p).sum(axis=0) % p

    def socle(self) -> tuple[int, ...]:
        """Degrees (with multiplicity) annihilated by all three variables."""
        out: list[int] = []
        for t in self.support:
            maps = self.variable_maps(t)
            dim = maps.shape[2]
            out.extend([t] * (dim - rank(maps.reshape(-1, dim), self.prime)))
        return tuple(out)


# -- genericity ----------------------------------------------------------


def generic_hilbert_profile(degrees: DegreeData) -> dict[int, int]:
    """Hilbert function forced by the degree data when the presentation is
    generic (alternating sum of the four twisted free modules)."""
    d = degrees.d
    lo, e = degrees.b[0], degrees.socle_degree
    profile = {}
    for t in range(lo, e + 1):
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
