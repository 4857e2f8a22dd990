import numpy as np
import pytest

from helpers import (
    Polynomial,
    binary_add,
    binary_mul,
    evaluate,
    format_poly,
    multiply,
    parse,
    variable,
)
from lefschetz_locus import rand
from lefschetz_locus.polyring import (
    DegenerateLineError,
    Ring,
    line_power_table,
    monomial_basis,
    parse_poly,
    position,
)

R = Ring()
S = Ring(dual=True)


def _random_poly(ring, degree, stream):
    return Polynomial(ring, {m: stream.below(ring.prime)
                             for m in monomial_basis(degree).monomials})


def test_monomial_basis_sizes():
    assert len(monomial_basis(0)) == 1
    assert monomial_basis(0).monomials == ((0, 0, 0),)
    assert len(monomial_basis(-1)) == 0
    assert len(monomial_basis(3)) == 10
    for t in range(8):
        assert len(monomial_basis(t)) == (t + 2) * (t + 1) // 2


def test_monomial_basis_is_deglex_descending():
    mons = monomial_basis(2).monomials
    assert mons[0] == (2, 0, 0)
    assert mons[-1] == (0, 0, 2)
    assert list(mons) == sorted(mons, reverse=True)


def test_position_is_the_index_in_the_monomial_basis():
    for t in range(13):
        monos = np.array(monomial_basis(t).monomials, dtype=np.int64).reshape(-1, 3)
        assert position(t, monos).tolist() == list(range(len(monos))), t
        for k, mono in enumerate(monomial_basis(t).monomials):
            assert position(t, np.array(mono)) == k, (t, mono)


def test_multiply_by_one():
    f = parse("3*x1^2*x2 - x3^3", R)
    assert multiply(f, Polynomial.constant(R, 1)) == f


def test_multiply_variables():
    x1, x2 = variable(R, 0), variable(R, 1)
    assert multiply(x1, x2) == parse("x1*x2", R)


def test_multiply_difference_of_squares():
    f = parse("x1 + x2", R)
    g = parse("x1 - x2", R)
    assert multiply(f, g) == parse("x1^2 - x2^2", R)


def test_multiply_requires_same_ring():
    with pytest.raises(ValueError):
        multiply(variable(R, 0), variable(S, 0))


def _substitute(f, param) -> tuple[int, ...]:
    """Restriction of a homogeneous form: its terms times the rows of its
    monomials in the power table, found by a dict of the degree's basis."""
    e, p = f.degree(), f.ring.prime
    rows = line_power_table(param, e, p)[e * (e + 1) * (e + 2) // 6:, :e + 1]
    index = {m: k for k, m in enumerate(monomial_basis(e).monomials)}
    acc = sum(c * rows[index[m]] for m, c in f.terms.items()) % p
    return tuple(int(c) for c in acc)


def test_substitute_line_kills_vanishing_coordinate():
    # the line x1 = 0, parametrized by x2 = s, x3 = u
    param = [[0, 0], [1, 0], [0, 1]]
    assert _substitute(variable(R, 0), param) == (0, 0)


def test_substitute_line_coordinate_passthrough():
    param = [[0, 0], [1, 0], [0, 1]]
    assert _substitute(variable(R, 1), param) == (1, 0)  # exactly s


def test_substitute_line_quadric_matches_direct_expansion():
    stream = rand.Stream(31)
    p = R.prime
    param = [[stream.below(p), stream.below(p)] for _ in range(3)]
    a, b = param[0]
    assert _substitute(parse("x1^2", R), param) == ((a * a) % p, (2 * a * b) % p, (b * b) % p)


@pytest.mark.parametrize("seed", range(5))
def test_substitute_line_is_a_ring_map(seed):
    stream = rand.Stream(400 + seed)
    p = R.prime
    param = [[stream.below(p), stream.below(p)] for _ in range(3)]
    deg = 1 + seed % 2
    f = _random_poly(R, deg, stream)
    g = _random_poly(R, deg, stream)
    sf, sg = _substitute(f, param), _substitute(g, param)
    assert _substitute(f + g, param) == binary_add(sf, sg, p)
    assert _substitute(multiply(f, g), param) == binary_mul(sf, sg, p)


def test_substitute_line_rejects_degenerate_parametrization():
    with pytest.raises(DegenerateLineError):
        line_power_table([[1, 2], [2, 4], [0, 0]], 1, R.prime)


def test_format_documented_example():
    f = parse("3*x1^2*x2 - x3^3", R)
    assert format_poly(f) == "3*x1^2*x2 - x3^3"


def test_format_dual_ring_tokens():
    f = parse("l1*l2 - 2*l3^2", S)
    assert format_poly(f) == "l1*l2 - 2*l3^2"
    with pytest.raises(ValueError):
        parse_poly("x1 + x2", S)


def test_format_zero_and_constants():
    assert format_poly(Polynomial.zero(R)) == "0"
    assert format_poly(Polynomial.constant(R, 7)) == "7"
    assert format_poly(Polynomial.constant(R, -1)) == "-1"


@pytest.mark.parametrize("seed", range(8))
def test_parse_format_roundtrip(seed):
    stream = rand.Stream(600 + seed)
    f = _random_poly(R, seed % 4, stream)
    assert parse_poly(format_poly(f), R) == f.terms


def test_parse_returns_nonzero_residues():
    # terms are summed and reduced mod p, and the ones that cancel dropped
    assert parse_poly("x1 - x1 + 65521*x2 + 3*x3 - 5*x3^2", R) == {(0, 0, 1): 3,
                                                                    (0, 0, 2): 65516}
    assert parse_poly("x1^2 - x1*x1", R) == {}


def test_parse_accepts_whitespace_and_signs():
    assert parse(" -x1  + 2*x2 ", R) == parse("2*x2 - x1", R)


def test_homogeneity_queries():
    f = parse("x1^2 + x2*x3", R)
    assert f.is_homogeneous() and f.degree() == 2
    g = parse("x1 + 1", R)
    assert not g.is_homogeneous()


def test_evaluate():
    f = parse("x1^2*x2 - x3", R)
    assert evaluate(f, (2, 3, 5)) == (4 * 3 - 5) % R.prime
