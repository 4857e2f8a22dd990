"""Finite-length graded modules presented as cokernels.

A module is given by degree data (a_1 <= ... <= a_{n+2}), (b_1 <= ... <= b_n)
and an n x (n+2) matrix of homogeneous forms, entry (j, i) of degree
a_i - b_j, mapping a sum of twists of the ring onto the module.  Each
graded piece of the cokernel gets a deterministic coset basis when it is
first read, and the engine exposes the multiplication maps between
consecutive pieces.  A piece has one of two routes.  It is the cokernel
of the degree-t slice of the map up to t0 = max(a_(n+2), b_n), the last
degree where a generator or relation is born, and above t0 until a seeded
line maps one piece V onto the next.  From there on each piece is V/W_t
in V's own coordinates, W_t grown from W_(t-1) by the images of the rows
that the step before added, one elimination with h(t-1) - h(t) pivots,
and the maps out of those degrees are formed only when read
(``GradedModule.piece``).
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
    """Dimension of the degree-k piece of k[x1,x2,x3], h^0 of O(k) on the plane."""
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

    @cached_property  # computed once: every stage reads these
    def d(self) -> int:
        return sum(self.a) - sum(self.b)

    @cached_property
    def socle_degree(self) -> int:
        return self.d - 3 - self.b[0]

    @cached_property
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


@lru_cache(maxsize=256)
def _block_layout(twists: tuple[int, ...], t: int) -> tuple[tuple[GradedPieceBasis, ...],
                                                          np.ndarray, int]:
    """Monomial bases of the blocks R_{t - w}, their offsets and total size.
    Read-only, as they are cached."""
    bases = tuple(monomial_basis(t - w) for w in twists)
    sizes = np.array([len(basis) for basis in bases], dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    offsets.flags.writeable = False
    return bases, offsets, int(sizes.sum())


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
class _QuotientPiece:
    """A piece M_t = V/W_t above the first degree where the seeded line is
    onto, V = M_j the first piece that it maps onto its successor: coset
    coordinate k is the class of l * m_(coset[k]), for the basis classes
    m_i of the piece below, and the rows of ``kernel`` (reduced, one per
    pivot) span K_t = W_t/W_(t-1), the kernel of the map of l out of
    t - 1, in their coordinates.  ``span`` is W_t in V's coordinates, whose
    coset is that of M_t, and ``ab`` holds the maps A, B of V into itself
    that give x2 and x3, the same for every piece from M_(j+1) up
    (``piece``)."""

    coset: tuple[int, ...]
    kernel: np.ndarray
    span: CokernelBasis
    ab: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.coset)

    @cached_property
    def images(self) -> np.ndarray:
        """A v and B v for the kernel rows v, read in V's coordinates (the
        last rows of ``span``), reduced mod W_t to the coset coordinates of
        M_t: one (h(t), 2k) matrix, column u * k + i for the i-th row and
        A (u = 0) or B (u = 1).  Computed once, for the step above and the
        socle."""
        k, span = len(self.kernel), self.span
        rows = span.image_rref[len(span.pivots) - k:]
        out = _matmul(self.ab, rows.T, span.p).transpose(1, 0, 2)
        return span.reduce(out.reshape(len(out), 2 * k))


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
    if pivots[:h] != tuple(range(h)):
        return None
    return red[:h, h:].T, red[h:, h:]


class GradedModule:
    """Cokernel of a presentation with per-degree coset bases."""

    def __init__(self, pres: PresentationMatrix,
                 pieces: dict[int, _Piece | _QuotientPiece]):
        self.pres = pres
        self.degrees = pres.degrees
        self.prime = pres.prime
        self._pieces = pieces
        self._maps: dict[int, np.ndarray] = {}  # x1, x2, x3 maps out of degree t
        self._sections: dict[int, tuple[np.ndarray, np.ndarray] | None] = {}  # ``section``
        self.audit: dict = {}
        self.certified = False  # finite length checked by ``build``

    @classmethod
    def build(cls, pres: PresentationMatrix) -> "GradedModule":
        """The module, certified of finite length: only the pieces from
        e + 1 through max(e + 1, b_n), and those they rest on, are built
        here, and a nonzero one is refused (``first_piece_beyond_socle``).
        Above t0 that is the chain from t0 + 1 up: slices until the seeded
        line is onto, then quotients, each a small elimination, not the
        largest slice of all; where the line is never onto, as on a module
        of infinite length, piece e + 1 is its slice.  Every other piece is
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
        """t0 = max(a_(n+2), b_n), the last degree where a generator or
        relation is born, and so the last that is always built from its
        slice: above it ``piece`` can take the quotient route."""
        return max(self.degrees.a[-1], self.degrees.b[-1])

    def piece(self, t: int) -> _Piece | _QuotientPiece:
        """M_t with its coset basis, built on first read: from its slice up
        to t0 (``slice_top``) and above it until the seeded line is onto,
        from there on as quotients, lowest degree first above t0.

        Let t > t0, so t > a_(n+2) and t > b_n.  No generator or relation
        is born in degree t: G_t = R_1 G_(t-1) for the free module
        G = sum R(-b_j), and N_t = R_1 N_(t-1) for the image N of the
        presentation.  The Koszul complex of x1, x2, x3 is exact in positive
        degree, so the kernel of R_1 (x) G_(t-1) -> G_t is spanned by the
        x_u (x) x_v g - x_v (x) x_u g with g in G_(t-2).  Hence
        M_t = (R_1 (x) M_(t-1)) / <x_u (x) X_v m - x_v (x) X_u m : u < v,
        m in M_(t-2)>, where X_v are the maps out of degree t - 2.

        The same complex in the coordinates (l, x2, x3) of R_1, for the
        seeded line l = c1 x1 + c2 x2 + c3 x3 with c1 != 0
        (``_seeded_line``), has the relations l (x) Y m - x2 (x) L m,
        l (x) Z m - x3 (x) L m and x2 (x) Z m - x3 (x) Y m, where L, Y, Z
        are the maps of l, x2, x3 out of degree t - 2.  Let L be onto
        V = M_(t-1), with a section sigma (L sigma = I).  Then
        phi(l (x) a + x2 (x) b + x3 (x) c) = a + Y sigma b + Z sigma c maps
        R_1 (x) M_(t-1) onto M_(t-1), and its kernel, spanned by the
        x2 (x) n - l (x) Y sigma n and x3 (x) n - l (x) Z sigma n, consists of
        relations (those of m = sigma n).  So M_t = V/W_t, where the class
        of l (x) v is that of v and W_t is the image of the relations under
        phi: Y(m - sigma L m) and Z(m - sigma L m), where m - sigma L m runs
        over ker L, and (Y sigma Z - Z sigma Y) m, so
        W_t = Y(ker L) + Z(ker L) + (Y sigma Z - Z sigma Y)(M_(t-2)).

        With A = Y sigma and B = Z sigma, x2 v = x2 L sigma v = l A v, so x2
        maps the class of v to that of A v, and x3 to that of B v.  As l is
        onto from there on, M_s = V/W_s for every s >= t - 1 (W_(t-1) = 0),
        the class of v in M_s standing for l^(s-t+1) v: l maps it to the
        class of v in M_(s+1), x2 and x3 to those of A v and B v, and x1 to
        that of c1^-1 (I - c2 A - c3 B) v.  W_(s+1) is the kernel of
        V -> M_(s+1), and the same step taken from M_s gives
        W_(s+1) = W_s + A W_s + B W_s: its relation block,
        (A sigma' B - B sigma' A)(M_(s-1)) for a lift sigma', lies in
        [A, B] V + A W_s + B W_s, and [A, B] = (Y sigma Z - Z sigma Y) sigma
        maps V into W_t.  As A W_(s-1) and B W_(s-1) lie in W_s,
        W_(s+1) = W_s + A D + B D, D the rows that W_s added to W_(s-1):
        one elimination of their images, reduced mod W_s, with
        h(s) - h(s+1) pivots (``_quotient_step``).  The pivots of W_(s+1)
        extend those of W_s, so its coset is the coset of that elimination
        within that of W_s, and coordinate j of M_(s+1) is the class of
        l m_(coset[j]), the basis of a quotient taken step by step.  The
        maps out of s are not formed with the piece; ``variable_maps``
        reduces [I | A | B] at the coset of W_s mod W_(s+1) when they are
        first read.  The first step needs one elimination of [L^T | I] for
        sigma and ker L (``section``, recorded by degree), tried only where
        0 < h(t-1) <= h(t-2); every other degree above t0 takes its slice
        until one succeeds.  Nothing assumes finite length or duality, so
        ``first_piece_beyond_socle`` stays exact on any input: where no
        seeded line is onto, as on a module of infinite length, piece e + 1
        is its slice."""
        if t not in self._pieces:
            if t <= self.slice_top:
                self._pieces[t] = self._build_piece(self.pres, t)
            else:
                for s in range(self.slice_top + 1, t + 1):
                    if s not in self._pieces:
                        self._pieces[s] = self._upper_piece(s)
        return self._pieces[t]

    def _upper_piece(self, t: int) -> _Piece | _QuotientPiece:
        """Piece t > t0 as in ``piece``: a quotient where the seeded line
        maps M_(t-2) onto M_(t-1), else its slice."""
        below = self.piece(t - 1)
        if isinstance(below, _QuotientPiece):  # l is onto it
            return self._quotient_step(below)
        if 0 < below.dim <= self.piece(t - 2).dim:
            onto = self.section(t - 2)
            if onto is not None:
                return self._first_quotient(t, *onto)
        return self._build_piece(self.pres, t)

    def section(self, t: int) -> tuple[np.ndarray, np.ndarray] | None:
        """``_section`` of the seeded line's map out of degree t: (sigma, N)
        where the line maps M_t onto M_(t+1), else None.  Computed once and
        recorded by degree, failures included, as the quotient chain, the
        middle certificate and the Lefschetz witness all read it
        (``onto_degrees``)."""
        if t not in self._sections:
            self._sections[t] = _section(
                self.multiplication_map(_seeded_line(self.prime), t), self.prime)
        return self._sections[t]

    def onto_degrees(self) -> tuple[int, ...]:
        """The degrees, ascending, whose recorded ``section`` shows the seeded
        line onto."""
        return tuple(sorted(t for t, onto in self._sections.items() if onto is not None))

    def _first_quotient(self, t: int, section: np.ndarray,
                        kernel: np.ndarray) -> _QuotientPiece:
        """Piece t = V/W_t, V = M_(t-1), as in ``piece``, from the section
        sigma and the rows of a basis of ker L out of t - 2."""
        p, (_, y, z) = self.prime, self.variable_maps(t - 2)
        ab = _matmul(np.stack([y, z]), section, p)
        ab.flags.writeable = False  # shared by the chain
        span = cokernel_basis(np.hstack([_matmul(y, kernel.T, p), _matmul(z, kernel.T, p),
                                         (_matmul(ab[0], z, p) - _matmul(ab[1], y, p)) % p]), p)
        return _QuotientPiece(span.coset, span.image_rref, span, ab)

    def _quotient_step(self, below: _QuotientPiece) -> _QuotientPiece:
        """The piece above ``below`` = V/W, as in ``piece``: the images of
        its kernel rows under A and B, reduced mod W, give the kernel, and
        W gains those rows, each lifted by zeros on W's pivots, with W's
        rows reduced on their pivots."""
        w = below.span
        coker = cokernel_basis(below.images, w.p)
        free = np.array(w.coset, dtype=np.intp)
        new = np.zeros((len(coker.pivots), below.ab.shape[1]), dtype=np.int64)
        new[:, free] = coker.image_rref
        grown = free[list(coker.pivots)]
        old = (w.image_rref - _matmul(w.image_rref[:, grown], new, w.p)) % w.p
        span = CokernelBasis(w.pivots + tuple(grown.tolist()),
                             tuple(free[list(coker.coset)].tolist()), np.vstack([old, new]), w.p)
        return _QuotientPiece(coker.coset, coker.image_rref, span, below.ab)

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(range(self.degrees.b[0], self.degrees.socle_degree + 1))

    def h(self, t: int) -> int:
        """dim M_t, zero outside b_1 through e.  On a module that ``build``
        certified it is read from degree min(t, d - 3 - t), as Serre duality
        gives h(t) = h(d - 3 - t).  The pieces above the middle are then
        built only when asked for, as by ``socle`` or a map out of them,
        by the slice or quotient route of ``piece``."""
        deg = self.degrees
        if not deg.b[0] <= t <= deg.socle_degree:
            return 0
        return self.piece(min(t, deg.d - 3 - t) if self.certified else t).dim

    def hilbert(self) -> dict[int, int]:
        return {t: self.h(t) for t in self.support}

    def variable_maps(self, t: int) -> np.ndarray:
        """The maps of x1, x2, x3 from the degree-t coset basis to the
        degree-(t+1) one, as one (3, h(t+1), h(t)) stack, cached.  Into a
        slice piece, each coset monomial times each variable is placed at
        its ``position`` in that slice and reduced mod its image.  A
        quotient piece V/W stores none, and they are formed when first read:
        the seeded line l = c1 x1 + c2 x2 + c3 x3 maps the class of v in M_t
        to that of v in M_(t+1), and x2, x3 map it to those of A v, B v, so
        one reduction mod W of the columns of [I | A | B] at the coset of
        M_t in V gives the maps of l, x2, x3, and x1 is
        c1^-1 (l - c2 x2 - c3 x3)."""
        if t not in self._maps:
            src, dst = self.piece(t), self.piece(t + 1)
            if isinstance(dst, _QuotientPiece):
                p, (c1, c2, c3) = self.prime, _seeded_line(self.prime)
                cols = list(src.span.coset if isinstance(src, _QuotientPiece)
                            else range(src.dim))
                stack = np.concatenate([np.eye(len(dst.ab[0]), dtype=np.int64)[None],
                                        dst.ab])[:, :, cols].transpose(1, 0, 2)
                maps = dst.span.reduce(stack.reshape(len(stack), 3 * len(cols)))
                maps = maps.reshape(dst.dim, 3, len(cols)).transpose(1, 0, 2)
                maps[0] = (maps[0] - c2 * maps[1] % p - c3 * maps[2] % p) % p * pow(c1, -1, p) % p
            else:
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
        """Degrees (with multiplicity) annihilated by all three variables:
        in degree t, dim M_t less the rank of the three maps out of it,
        stacked.  Below a_1 - 1 there is none and nothing is formed: for
        t <= a_1 - 2 no relation is born up to t + 1, so M_t and M_(t+1)
        are the free module sum R(-b_j) in those degrees, and a nonzero
        element of a free module times x1 is nonzero.  Where M_(t+1) = V/W
        is a quotient piece, the socle lies in the kernel of l out of t,
        whose basis is that piece's kernel rows v; as
        x1 = c1^-1 (l - c2 x2 - c3 x3), it is the part that x2 and x3 kill
        too, the kernel of v -> (A v, B v) mod W (``images``), and no map
        out of t is formed."""
        out: list[int] = []
        deg = self.degrees
        for t in range(max(deg.b[0], deg.a[0] - 1), deg.socle_degree + 1):
            above = self.piece(t + 1)
            if isinstance(above, _QuotientPiece):
                k, images = len(above.kernel), above.images
                out.extend([t] * (k - rank(np.vstack([images[:, :k], images[:, k:]]), self.prime)))
                continue
            maps = self.variable_maps(t)
            dim = maps.shape[2]
            out.extend([t] * (dim - rank(maps.reshape(-1, dim), self.prime)))
        return tuple(out)


# -- genericity ----------------------------------------------------------


def generic_hilbert_profile(degrees: DegreeData) -> dict[int, int]:
    """Hilbert function of every finite-length cokernel with this degree
    data: the alternating sum of the four twisted free modules of its
    Buchsbaum-Rim resolution (``generic_module``)."""
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


_MAX_ATTEMPTS = 8  # seeded draws that ``generic_module`` tries


def record_audit(mod: GradedModule, requested_seed: int, seed: int,
                 rejected: list[int]) -> GradedModule:
    """Write ``mod.audit``: the seeds asked for, drawn and rejected, and
    whether ``mod.hilbert()`` is ``generic_hilbert_profile``, computed."""
    mod.audit = {
        "requested_seed": requested_seed,
        "seed": seed,
        "rejected_seeds": rejected,
        "hilbert_matches_generic_profile": mod.hilbert() == generic_hilbert_profile(mod.degrees),
    }
    return mod


def generic_module(degrees: DegreeData, seed: int, prime: int = DEFAULT_PRIME) -> GradedModule:
    """Seeded module of finite length, audited (``record_audit``): a draw
    that ``GradedModule.build`` refuses is re-seeded deterministically, up
    to ``_MAX_ATTEMPTS`` draws.  An accepted draw has the generic profile:
    the n x n minors of a presentation of finite length have grade 3, so
    the Buchsbaum-Rim complex (Trans. AMS 111, 1964) resolves its cokernel
    by the four twisted free modules that ``generic_hilbert_profile`` sums."""
    rejected: list[int] = []
    for attempt in range(_MAX_ATTEMPTS):
        attempt_seed = rand.derive(seed, attempt) if attempt else seed
        try:
            mod = GradedModule.build(random_presentation(degrees, attempt_seed, prime))
        except NonFiniteLengthError:
            rejected.append(attempt_seed)
            continue
        return record_audit(mod, seed, attempt_seed, rejected)
    raise NonGenericPresentationError(
        f"no generic presentation found for degrees {degrees} after "
        f"{_MAX_ATTEMPTS} seeded attempts (rejected: {rejected})"
    )
