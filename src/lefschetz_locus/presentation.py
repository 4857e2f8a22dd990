"""Finite-length graded modules presented as cokernels.

A module is given by degree data (a_1 <= ... <= a_{n+2}), (b_1 <= ... <= b_n)
and an n x (n+2) matrix of homogeneous forms, entry (j, i) of degree
a_i - b_j, mapping a sum of twists of the ring onto the module.  Each
graded piece of the cokernel gets a deterministic coset basis when it is
first read, and the engine exposes the multiplication maps between
consecutive pieces.  A piece has one of three routes.  Up to degree
t0 = max(a_(n+2), b_n, i* + 1), where generators and relations are still
born and every command reads, it is the cokernel of the degree-t slice of
the map.  Above t0 it is R_1 (x) M_(t-1) modulo the Koszul relations out
of M_(t-2), a 3h(t-1) x 3h(t-2) elimination that gives the maps into it at
once, until a seeded line maps one piece onto the next.  From there on
each piece is the one below modulo a small kernel, an elimination with
h(t-1) - h(t) pivots (``GradedModule.piece``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import rand
from .field_linalg import DEFAULT_PRIME, CokernelBasis, _matmul, _rref, cokernel_basis, rank
from .polyring import GradedPieceBasis, Ring, monomial_basis, parse_poly, position


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


@dataclass(frozen=True, eq=False)
class PresentationMatrix:
    """The presentation held as its terms, entry by entry in row order:
    target j, source i, exponent triples and nonzero coefficients, as
    arrays.  Entry (j, i) is homogeneous of degree a_i - b_j."""

    degrees: DegreeData
    terms: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    prime: int

    def __post_init__(self):
        deg, (j, i, exps, _) = self.degrees, self.terms
        wrong = exps.sum(1) != np.array(deg.a)[i] - np.array(deg.b)[j]
        if wrong.any():  # name the first such entry in row order
            j, i = divmod(int((j * (deg.n + 2) + i)[wrong].min()), deg.n + 2)
            raise ValueError(
                f"entry ({j},{i}) must be homogeneous of degree {deg.a[i] - deg.b[j]}")

    @cached_property
    def generator_degrees(self) -> tuple[int, ...]:
        """Degrees of a minimal generating set of the cokernel, ascending,
        with multiplicity.  The generators of degree w are the b_j = w less
        the rank of the constant block of entries from the a_i = w to the
        b_j = w, read from the constant terms: a unit entry cancels a
        generator."""
        deg, (j, i, exps, coefs) = self.degrees, self.terms
        constant = np.zeros((deg.n, deg.n + 2), dtype=np.int64)
        unit = ~exps.any(1)
        constant[j[unit], i[unit]] = coefs[unit]
        out = []
        for w in sorted(set(deg.b)):
            block = constant[np.equal(deg.b, w)][:, np.equal(deg.a, w)]
            out += [w] * (len(block) - (rank(block, self.prime) if block.size else 0))
        return tuple(out)


def random_presentation(degrees: DegreeData, seed: int,
                        prime: int = DEFAULT_PRIME) -> PresentationMatrix:
    """Dense presentation with seeded uniform coefficients, drawn entry by
    entry in row order over ``monomial_basis(a_i - b_j)``: entries whose
    required degree is negative stay zero, and zero residues are dropped."""
    Ring(prime=prime)  # refuses a number that is not a usable prime
    n = degrees.n
    j, i = np.divmod(np.arange(n * (n + 2)), n + 2)
    bases = [monomial_basis(degrees.a[c] - degrees.b[r]).monomials
             for r, c in zip(j.tolist(), i.tolist())]
    sizes = [len(basis) for basis in bases]
    coefs = rand.Stream(seed).below_many(prime, sum(sizes))
    exps = np.array([m for basis in bases for m in basis], dtype=np.int64).reshape(-1, 3)
    drawn = coefs != 0
    return PresentationMatrix(degrees, (np.repeat(j, sizes)[drawn], np.repeat(i, sizes)[drawn],
                                        exps[drawn], coefs[drawn]), prime)


def presentation_from_strings(degrees: DegreeData, grid: list[list[str]],
                              prime: int = DEFAULT_PRIME) -> PresentationMatrix:
    """The presentation of a grid of polynomial strings.  Rows are checked
    in order: a row of the wrong width is reported after the degree errors
    of the rows above it."""
    if not (isinstance(grid, list) and all(
            isinstance(row, list) and all(isinstance(s, str) for s in row) for row in grid)):
        raise ValueError(f"the matrix must be a list of {degrees.n} rows, each a list of "
                         f"{degrees.n + 2} polynomial strings")
    ring = Ring(prime=prime, dual=False)
    entries = [[parse_poly(s, ring) for s in row] for row in grid]
    if len(entries) != degrees.n:
        raise ValueError("entry grid must have one row per target twist")
    short = next((j for j, row in enumerate(entries) if len(row) != degrees.n + 2), degrees.n)
    # an exponent above every entry degree is capped there: its term stays of
    # a wrong degree, and no sum leaves int64
    top = max(degrees.a[-1] - degrees.b[0], 0) + 1
    flat = [(j, i, [min(e, top) for e in mono], c) for j, row in enumerate(entries[:short])
            for i, f in enumerate(row) for mono, c in f.items()]
    j, i, exps, coefs = (np.array(col, dtype=np.int64) for col in list(zip(*flat)) or [()] * 4)
    pres = PresentationMatrix(degrees, (j, i, exps.reshape(-1, 3), coefs), prime)
    if short < degrees.n:
        raise ValueError("entry grid must have one column per source twist")
    return pres


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


@dataclass(frozen=True)
class _QuotientPiece:
    """A piece M_t = M_(t-1)/K_t above the first degree where the seeded
    line is onto: coset coordinate j is the class of l * m_(coset[j]), and
    the rows of ``kernel`` (reduced, one per pivot) span K_t, the kernel
    of the map of l out of t - 1."""

    coset: tuple[int, ...]
    kernel: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.coset)


@lru_cache(maxsize=8)
def _seeded_line(p: int) -> tuple[int, int, int]:
    """The coefficients (c1, c2, c3) of the line of the quotient route,
    c1 != 0, drawn from a fixed-tag stream: the same in every run and
    worker."""
    stream = rand.Stream(rand.derive(0, 0x1170))
    c = stream.below_many(p, 3)
    while not c[0]:
        c = stream.below_many(p, 3)
    return tuple(int(v) for v in c)


def _section(l: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(sigma, N) with l sigma = I and the rows of N a basis of ker l, or
    None where l is not onto, from one elimination of [l^T | I]: its
    reduced form is [E l^T | E], and l is onto exactly when its first
    h = rows(l) pivots are the first h columns.  Then E l^T = [I; 0], so
    sigma is the transpose of E's first h rows and N is E's other rows."""
    h, k = l.shape
    red, pivots = _rref(np.hstack([l.T, np.eye(k, dtype=np.int64)]), p)
    if pivots[h - 1] != h - 1:
        return None
    return red[:h, h:].T, red[h:, h:]


def _projection(coker: CokernelBasis, n: int) -> np.ndarray:
    """The map from target coordinates to coset coordinates, as a matrix:
    the identity on the coset, the reduced image rows on the pivots."""
    out = np.zeros((coker.dim, n), dtype=np.int64)
    out[:, list(coker.coset)] = np.eye(coker.dim, dtype=np.int64)
    out[:, list(coker.pivots)] = -coker.image_rref[:, list(coker.coset)].T % coker.p
    return out


class GradedModule:
    """Cokernel of a presentation with per-degree coset bases."""

    def __init__(self, pres: PresentationMatrix,
                 pieces: dict[int, _Piece | _KoszulPiece | _QuotientPiece]):
        self.pres = pres
        self.degrees = pres.degrees
        self.prime = pres.prime
        self._pieces = pieces
        self._maps: dict[int, np.ndarray] = {}  # x1, x2, x3 maps out of degree t
        self.audit: dict = {}
        self.certified = False  # finite length checked by ``build``

    @classmethod
    def build(cls, pres: PresentationMatrix) -> "GradedModule":
        """The module, certified of finite length: only the pieces from
        e + 1 through max(e + 1, b_n), and those they rest on, are built
        here, and a nonzero one is refused (``first_piece_beyond_socle``).
        Above t0 that is the chain of Koszul steps and quotients from t0 + 1
        up, each step a small elimination, not the largest slice of all.  Every other piece is
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

    def piece(self, t: int) -> _Piece | _KoszulPiece | _QuotientPiece:
        """M_t with its coset basis, built on first read: from its slice up
        to t0 (``slice_top``), above it from the pieces below, by the
        Koszul complex and then as quotients, lowest degree first.

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
        t - 1, cached with the piece.

        The same complex in the coordinates (l, x2, x3) of R_1, for the
        seeded line l = c1 x1 + c2 x2 + c3 x3 with c1 != 0
        (``_seeded_line``), has the relations l (x) Y m - x2 (x) L m,
        l (x) Z m - x3 (x) L m and x2 (x) Z m - x3 (x) Y m, where L, Y, Z
        are the maps of l, x2, x3 out of degree t - 2.  Let L be onto
        M_(t-1), with a section sigma (L sigma = I).  Then
        phi(l (x) a + x2 (x) b + x3 (x) c) = a + Y sigma b + Z sigma c maps
        R_1 (x) M_(t-1) onto M_(t-1), and its kernel, spanned by the
        x2 (x) n - l (x) Y sigma n and x3 (x) n - l (x) Z sigma n, consists of
        relations (those of m = sigma n).  So M_t = M_(t-1)/K_t, where the
        class of l (x) n is that of n and K_t is the image of the relations
        under phi: Y(m - sigma L m) and Z(m - sigma L m), where m - sigma L m
        runs over ker L, and (Y sigma Z - Z sigma Y) m, so
        K_t = Y(ker L) + Z(ker L) + (Y sigma Z - Z sigma Y)(M_(t-2)).
        One elimination of those generators, with
        h(t-1) - h(t) pivots, gives the coset: coordinate j is the class of
        l m_(coset[j]).  The maps out of t - 1 are the projection pi for l,
        pi Y sigma for x2, pi Z sigma for x3, and
        c1^-1 (pi - c2 pi Y sigma - c3 pi Z sigma) for x1.  As pi is onto,
        with the coset coordinates as a section and K_t as its kernel,
        every later piece takes the same step with no further elimination
        for them: from the first piece M_j that the line is onto, the
        quotient steps spend h(j) pivots in all.  The first step needs one
        elimination of [L^T | I] for sigma and ker L (``_section``), tried
        only where 0 < h(t-1) <= h(t-2) (M_t = 0 when h(t-1) = 0); the
        Koszul step stays for every degree where it fails.  Nothing assumes
        finite length or duality, so
        ``first_piece_beyond_socle`` stays exact on any input."""
        if t not in self._pieces:
            if t <= self.slice_top:
                self._pieces[t] = self._build_piece(self.pres, t)
            else:
                for s in range(self.slice_top + 1, t + 1):
                    if s not in self._pieces:
                        self._pieces[s] = self._upper_piece(s)
        return self._pieces[t]

    def _upper_piece(self, t: int) -> _KoszulPiece | _QuotientPiece:
        """Piece t > t0 as in ``piece``: a quotient where the seeded line
        maps M_(t-2) onto M_(t-1), else by the Koszul complex."""
        below = self.piece(t - 1)
        if isinstance(below, _QuotientPiece):  # l is onto it, by pi
            _, y, z = self.variable_maps(t - 2)
            return self._quotient_piece(t, y[:, below.coset], z[:, below.coset], below.kernel)
        if 0 < below.dim <= self.piece(t - 2).dim:
            onto = _section(self.multiplication_map(_seeded_line(self.prime), t - 2), self.prime)
            if onto is not None:
                (section, kernel), (_, y, z) = onto, self.variable_maps(t - 2)
                return self._quotient_piece(t, _matmul(y, section, self.prime),
                                            _matmul(z, section, self.prime), kernel)
        return self._koszul_piece(t)

    def _quotient_piece(self, t: int, ysec: np.ndarray, zsec: np.ndarray,
                        kernel: np.ndarray) -> _QuotientPiece:
        """Piece t = M_(t-1)/K_t as in ``piece``, from Y sigma, Z sigma and
        the rows of a basis of ker L out of t - 2; it stores the maps out
        of t - 1."""
        p, (c1, c2, c3) = self.prime, _seeded_line(self.prime)
        _, y, z = self.variable_maps(t - 2)
        coker = cokernel_basis(np.hstack([
            _matmul(y, kernel.T, p), _matmul(z, kernel.T, p),
            (_matmul(ysec, z, p) - _matmul(zsec, y, p)) % p]), p)
        pi = _projection(coker, len(ysec))
        ymap, zmap = _matmul(pi, ysec, p), _matmul(pi, zsec, p)
        xmap = (pi - c2 * ymap % p - c3 * zmap % p) % p * pow(c1, -1, p) % p
        maps = np.stack([xmap, ymap, zmap])
        maps.flags.writeable = False  # shared by every caller
        self._maps[t - 1] = maps
        return _QuotientPiece(coker.coset, coker.image_rref)

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
        maps = _projection(coker, 3 * h).reshape(coker.dim, 3, h).transpose(1, 0, 2)
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
        by the Koszul or quotient route of ``piece`` above t0."""
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
        slice; from t0 on the maps come with the piece t + 1."""
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
