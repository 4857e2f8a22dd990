"""Independent test oracles: small, self-contained implementations used to
cross-check the engine.  Nothing here imports engine internals beyond the
public Matrix container."""

from __future__ import annotations

from lefschetz_locus.field_linalg import Matrix


# -- integer power series / Hilbert series -------------------------------


def poly_mul_z(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_div_one_minus_z(coeffs: list[int]) -> list[int]:
    """Exact division by (1 - z); input must vanish at z = 1."""
    assert sum(coeffs) == 0, "not divisible by 1 - z"
    out = []
    acc = 0
    for c in coeffs[:-1]:
        acc += c
        out.append(acc)
    return out


def hilbert_series_ci(a: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of prod(1 - z^a_i) / (1 - z)^3 for a complete
    intersection quotient with three forms."""
    assert len(a) == 3
    num = [1]
    for ai in a:
        factor = [1] + [0] * (ai - 1) + [-1]
        num = poly_mul_z(num, factor)
    for _ in range(3):
        num = poly_div_one_minus_z(num)
    while num and num[-1] == 0:
        num.pop()
    return tuple(num)


def hilbert_series_presented(a: tuple[int, ...], b: tuple[int, ...]) -> dict[int, int]:
    """Hilbert function of a generic finite-length cokernel from the
    alternating numerator sum(z^b) - sum(z^a) + sum(z^(d-a)) - sum(z^(d-b)),
    divided exactly by (1 - z)^3."""
    d = sum(a) - sum(b)
    shift = -min(min(b), 0)
    top = max(max(d - bj for bj in b), max(a)) + shift + 1
    num = [0] * (top + 1)
    for bj in b:
        num[bj + shift] += 1
    for ai in a:
        num[ai + shift] -= 1
    for ai in a:
        num[d - ai + shift] += 1
    for bj in b:
        num[d - bj + shift] -= 1
    for _ in range(3):
        num = poly_div_one_minus_z(num)
    return {t - shift: c for t, c in enumerate(num) if c}


# -- binary form arithmetic ----------------------------------------------


def binary_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def binary_add(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    assert len(a) == len(b)
    return tuple((x + y) % p for x, y in zip(a, b))


# -- exact determinant over F_p ------------------------------------------


def det_mod(rows: list[list[int]], p: int) -> int:
    """Recursive cofactor determinant of a square integer matrix mod p."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0] % p
    total = 0
    for i in range(n):
        if rows[i][0] % p == 0:
            continue
        minor = [r[1:] for k, r in enumerate(rows) if k != i]
        sign = -1 if i % 2 else 1
        total += sign * rows[i][0] * det_mod(minor, p)
    return total % p


def specialize(m, i: int, coords) -> Matrix:
    """The degree-i dual matrix at a line: sum_v c_v * (multiplication by
    x_v out of degree i) mod p, each product reduced before the sum."""
    p = m.prime
    maps = m.variable_maps(i)
    return Matrix(sum(int(c) % p * mv.a % p for c, mv in zip(coords, maps)) % p, p)


# -- criteria-free Buchberger oracle --------------------------------------

RawPoly = dict


def _key(m):
    """Graded reverse-lex."""
    return (sum(m), tuple(-e for e in reversed(m)))


def _lead(f):
    return max(f, key=_key)


def naive_reduce(f: RawPoly, gens: list[RawPoly], p: int) -> RawPoly:
    f = dict(f)
    while True:
        hit = None
        for m in sorted(f, key=_key, reverse=True):
            for g in gens:
                lm = _lead(g)
                if all(x >= y for x, y in zip(m, lm)):
                    hit = (m, g, lm)
                    break
            if hit:
                break
        if hit is None:
            return f
        m, g, lm = hit
        shift = tuple(x - y for x, y in zip(m, lm))
        c = f[m] * pow(g[lm], p - 2, p) % p
        for gm, gc in g.items():
            tm = tuple(x + y for x, y in zip(gm, shift))
            v = (f.get(tm, 0) - c * gc) % p
            if v:
                f[tm] = v
            else:
                f.pop(tm, None)


def naive_spoly(f: RawPoly, g: RawPoly, p: int) -> RawPoly:
    lf, lg = _lead(f), _lead(g)
    lcm = tuple(max(x, y) for x, y in zip(lf, lg))
    out: RawPoly = {}
    cf = pow(f[lf], p - 2, p)
    cg = pow(g[lg], p - 2, p)
    for m, c in f.items():
        tm = tuple(x + y - z for x, y, z in zip(m, lcm, lf))
        out[tm] = (out.get(tm, 0) + c * cf) % p
    for m, c in g.items():
        tm = tuple(x + y - z for x, y, z in zip(m, lcm, lg))
        out[tm] = (out.get(tm, 0) - c * cg) % p
    return {m: c for m, c in out.items() if c}


def naive_groebner_leading_terms(gens: list[RawPoly], p: int) -> set[tuple]:
    """Minimal leading-term set of a Groebner basis computed with no pair
    criteria at all: every S-polynomial is reduced until closure."""
    basis = [dict(g) for g in gens if g]
    done = False
    while not done:
        done = True
        n = len(basis)
        for i in range(n):
            for j in range(i + 1, n):
                r = naive_reduce(naive_spoly(basis[i], basis[j], p), basis, p)
                if r:
                    basis.append(r)
                    done = False
        if not done:
            continue
    leads = {_lead(g) for g in basis}
    minimal = set()
    for m in sorted(leads, key=_key):
        if not any(all(x >= y for x, y in zip(m, g)) for g in minimal):
            minimal.add(m)
    return minimal
