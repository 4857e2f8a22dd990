"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime against the stated budget (run pytest with -s to see them)."""

import time
from math import comb

from helpers import (
    euler_characteristic,
    minor_basis,
    minor_forms,
    rational_points_0dim,
    sample_locus_points,
    vote_generic_splitting,
)
from lefschetz_locus import rand
from lefschetz_locus.bundle import chern, classify_stability, lefschetz_oracle
from lefschetz_locus.cli import analyze_locus, build_module, survey_row
from lefschetz_locus.groebner import measure
from lefschetz_locus.jumping import is_jumping, line_point, restrict, splitting_type
from lefschetz_locus.lefschetz import is_lefschetz, random_line
from lefschetz_locus.presentation import DegreeData, generic_module

MONOMIAL_GRID = [["x1^3", "x2^4", "x3^4"]]

# fixtures 1-5; seeds chosen so the finite loci contribute base-field points
FIXTURES = {
    1: {"a": [2, 2, 3], "b": [0], "matrix": None, "seeds": (8, 12, 15)},
    2: {"a": [2, 2, 2], "b": [0], "matrix": None, "seeds": (1,)},
    3: {"a": [3, 4, 4], "b": [0], "matrix": MONOMIAL_GRID, "seeds": (1,)},
    4: {"a": [1, 1, 1, 2], "b": [0, 0], "matrix": None, "seeds": (2,)},
    5: {"a": [2, 2, 2, 3], "b": [0, 1], "matrix": None, "seeds": (1,)},
}

CI_GRID = [(a1, a2, a3)
           for a1 in range(2, 5) for a2 in range(a1, 5) for a3 in range(a2, 5)]
N2_GRID = [((1, 1, 1, 2), (0, 0)), ((1, 1, 2, 2), (0, 0)), ((2, 2, 2, 2), (0, 0)),
           ((2, 2, 2, 3), (0, 1)), ((2, 2, 3, 3), (0, 1))]


def _job(num, seed):
    fx = FIXTURES[num]
    return {"a": fx["a"], "b": fx["b"], "seed": seed, "prime": 65521,
            "matrix": fx["matrix"]}


def _stamp(number, name, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} overran its {budget}s budget"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s / {budget}s)")


def test_criterion_1_generic_ci_223_points():
    started = time.perf_counter()
    for seed in (1, 2, 3, 4, 5):
        seed_started = time.perf_counter()
        report = analyze_locus(_job(1, seed))
        assert report["hilbert"]["values"] == [1, 3, 4, 3, 1]
        assert report["middle_degree"] == 1
        assert report["dim_projective"] == 0
        assert report["degree"] == 6
        assert report["verdict"] == "match"
        h1, h2 = 3, 4
        c2_norm = chern(DegreeData((2, 2, 3), (0,))).twisted(3).c2
        assert comb(h2, h1 - 1) == comb(c2_norm, 2) == 6
        assert time.perf_counter() - seed_started < 10
    _stamp(1, "generic (2,2,3) locus is 6 points", started, 50)


def test_criterion_2_generic_ci_222_cubic_curve():
    started = time.perf_counter()
    report = analyze_locus(_job(2, 1))
    assert report["codim"] == 1
    assert report["dim_projective"] == 1
    assert report["degree"] == 3 == report["hilbert"]["values"][1]
    assert report["verdict"] == "match"
    _stamp(2, "generic (2,2,2) locus is a cubic curve", started, 10)


def test_criterion_3_monomial_ci_needs_generality():
    started = time.perf_counter()
    report = analyze_locus(_job(3, 1))
    assert report["expected"] == 2
    assert report["codim"] == 1
    assert report["verdict"] == "generality-required"
    _stamp(3, "monomial (3,4,4) breaks the expected codimension", started, 30)


def test_criterion_4_n2_fixture_points():
    started = time.perf_counter()
    report = analyze_locus(_job(4, 2))
    assert report["hilbert"]["values"] == [2, 3, 2]
    assert report["hilbert"]["d"] == 5
    assert report["stability"]["class"] == "stable"
    assert report["dim_projective"] == 0
    assert report["degree"] == 3 == comb(3, 1)
    c2_norm = chern(DegreeData((1, 1, 1, 2), (0, 0))).twisted(2).c2
    assert comb(c2_norm, 2) == 3
    assert report["verdict"] == "match"
    _stamp(4, "generic (1,1,1,2 | 0,0) locus is 3 points", started, 10)


def test_criterion_5_n2_fixture_sextic_curve():
    started = time.perf_counter()
    report = analyze_locus(_job(5, 1))
    assert report["hilbert"]["values"] == [1, 4, 6, 6, 4, 1]
    assert report["hilbert"]["d"] == 8
    assert report["codim"] == 1
    assert report["degree"] == 6 == report["hilbert"]["values"][2]
    assert report["verdict"] == "match"
    _stamp(5, "generic (2,2,2,3 | 0,1) locus is a sextic curve", started, 60)


def test_criterion_6_jumping_equals_non_lefschetz():
    started = time.perf_counter()
    checked_locus_points = 0
    for num, fx in FIXTURES.items():
        for seed in fx["seeds"]:
            job = _job(num, seed)
            mod = build_module(job)
            stab = classify_stability(mod.degrees)
            generic = vote_generic_splitting(mod.pres, seed=seed)

            def agree(coords):
                direct = is_lefschetz(mod, coords).ok
                split = splitting_type(restrict(mod.pres, line_point(coords, mod.prime)))
                jump = is_jumping(mod.pres, split, stab, seed)
                return jump == (split != generic) == (not direct)

            stream = rand.Stream(rand.derive(seed, num))
            for _ in range(150):
                assert agree(random_line(mod.prime, stream))

            gb = minor_basis(mod, mod.degrees.middle_degree)
            if measure(gb).dim_projective == 0:
                points = rational_points_0dim(gb) or []
            else:
                points = sample_locus_points(minor_forms(mod, mod.degrees.middle_degree),
                                             seed=seed, pencils=25)
            for pt in points:
                assert agree(pt)
                assert not is_lefschetz(mod, pt).ok
            checked_locus_points += len(points)
    assert checked_locus_points >= 10, "suite never exercised measured locus points"
    _stamp(6, f"jumping == non-Lefschetz (incl. {checked_locus_points} locus points)",
           started, 300)


def test_criterion_7_case_table_oracle_vs_direct_ranks():
    started = time.perf_counter()
    fixtures = [((1, 1, 1, 8), (0, 0)), ((2, 2, 3), (0,)), ((2, 2, 2), (0,)),
                ((2, 2, 4), (0,))]
    for a, b in fixtures:
        mod = generic_module(DegreeData(a, b), 1)
        stab = classify_stability(mod.degrees)
        stream = rand.Stream(rand.derive(1, sum(a)))
        for _ in range(100):
            coords = random_line(mod.prime, stream)
            split = splitting_type(restrict(mod.pres, line_point(coords, mod.prime)))
            assert lefschetz_oracle(stab, split.shifted(stab.t0)) == is_lefschetz(mod, coords).ok
    _stamp(7, "splitting case table matches direct rank checks", started, 120)


def test_criterion_8_structural_suite_on_grid():
    started = time.perf_counter()
    jobs = [{"a": list(a), "b": [0], "seed": 1, "prime": 65521, "matrix": None,
             "localization": True} for a in CI_GRID]
    jobs += [{"a": list(a), "b": list(b), "seed": 1, "prime": 65521, "matrix": None,
              "localization": True} for a, b in N2_GRID]
    for job in jobs:
        row = survey_row(job)
        claims = {c["claim"]: c["ok"] for c in row["claims"]}
        assert claims["finite-length"], job
        assert claims["unimodal"], job
        assert claims["socle-formula"], job
        assert claims["wlp-witness"], job
        assert claims["middle-localization"], job
        if "expected-codim-one" in claims:
            assert claims["expected-codim-one"], job
        assert row["verdict"] == "match", job
    _stamp(8, f"structural suite over {len(jobs)} fixtures", started, 600)


def test_criterion_9_numerical_identities():
    started = time.perf_counter()
    degree_data = [DegreeData(tuple(a), (0,)) for a in CI_GRID]
    degree_data += [DegreeData(a, b) for a, b in N2_GRID]
    degree_data.append(DegreeData((1, 1, 1, 8), (0, 0)))
    for deg in degree_data:
        d = deg.d
        sq = sum(x * x for x in deg.a) - sum(x * x for x in deg.b)
        c = chern(deg)
        for t in range(-10, 11):
            chi = euler_characteristic(deg, t)  # the line-bundle sum
            assert 2 * chi == 2 * t * t + 6 * t + 4 - 2 * d * t - 3 * d + sq
            tw = c.twisted(t)
            assert tw.c2 == c.c2 + c.c1 * t + t * t
        stab = classify_stability(deg)
        if d % 2 == 1 and stab.cls == "stable":
            mod = generic_module(deg, 1)
            i_star = deg.middle_degree
            c2_norm = c.twisted(stab.t0).c2
            assert comb(mod.h(i_star + 1), mod.h(i_star) - 1) == comb(c2_norm, 2)
    _stamp(9, "Euler, Chern-shift and point-count identities", started, 120)
