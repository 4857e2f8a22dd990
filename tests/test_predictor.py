from math import comb

import pytest

from lefschetz_locus.bundle import chern, classify_stability
from lefschetz_locus.groebner import IdealMeasure
from lefschetz_locus.predictor import (
    compare,
    expected_codimension,
    predict,
    predicted_codimension,
    predicted_degree,
)
from lefschetz_locus.presentation import DegreeData, GradedModule, generic_module, presentation_from_strings


def _module(a, b, seed=1):
    return generic_module(DegreeData(a, b), seed)


def test_expected_codimension_values():
    assert expected_codimension(_module((2, 2, 3), (0,))) == 2
    assert expected_codimension(_module((2, 2, 2), (0,))) == 1
    pres = presentation_from_strings(DegreeData((3, 4, 4), (0,)),
                                     [["x1^3", "x2^4", "x3^4"]])
    assert expected_codimension(GradedModule.build(pres)) == 2


def test_predicted_codimension_cases():
    assert predicted_codimension(classify_stability(DegreeData((2, 2, 3), (0,)))) == 2
    assert predicted_codimension(classify_stability(DegreeData((2, 2, 2), (0,)))) == 1
    assert predicted_codimension(classify_stability(DegreeData((1, 1, 1, 8), (0, 0)))) == 1


def test_predicted_degree_points_223():
    m = _module((2, 2, 3), (0,))
    deg = m.degrees
    value = predicted_degree(m, classify_stability(deg), chern(deg))
    assert value == 6 == comb(4, 2)


def test_predicted_degree_curve_222():
    m = _module((2, 2, 2), (0,))
    assert predicted_degree(m, classify_stability(m.degrees), chern(m.degrees)) == 3


def test_predicted_degree_points_1112_with_cross_identity():
    m = _module((1, 1, 1, 2), (0, 0))
    deg = m.degrees
    stab = classify_stability(deg)
    c = chern(deg)
    assert predicted_degree(m, stab, c) == 3 == comb(3, 1)
    assert c.twisted(stab.t0).c2 == 3  # the pair count identity C(3, 2) = 3


@pytest.mark.parametrize("a,b", [((2, 2, 3), (0,)), ((3, 3, 3), (0,)), ((2, 3, 4), (0,)),
                                 ((1, 1, 1, 2), (0, 0)), ((2, 2, 3, 3), (0, 1))])
def test_cross_identity_on_odd_stable_fixtures(a, b):
    m = _module(a, b)
    deg = m.degrees
    stab = classify_stability(deg)
    assert deg.d % 2 == 1 and stab.cls == "stable"
    i_star = deg.middle_degree
    c2_norm = chern(deg).twisted(stab.t0).c2
    assert comb(m.h(i_star + 1), m.h(i_star) - 1) == comb(c2_norm, 2)
    assert m.h(i_star + 1) == c2_norm


def test_prediction_bundle():
    m = _module((2, 2, 3), (0,))
    p = predict(m, classify_stability(m.degrees), chern(m.degrees))
    assert (p.middle_degree, p.expected_codim, p.predicted_codim, p.predicted_degree) == (1, 2, 2, 6)
    assert p.stability_class == "stable"


def test_compare_match():
    m = _module((2, 2, 3), (0,))
    comp = compare(m, classify_stability(m.degrees), chern(m.degrees),
                   IdealMeasure(0, 6))
    assert comp.verdict == "match"
    claims = dict(comp.claims)
    assert claims["codim-floor"] and claims["degree-match"]


def test_compare_generality_required():
    pres = presentation_from_strings(DegreeData((3, 4, 4), (0,)),
                                     [["x1^3", "x2^4", "x3^4"]])
    m = GradedModule.build(pres)
    comp = compare(m, classify_stability(m.degrees), chern(m.degrees),
                   IdealMeasure(1, 5))
    assert comp.verdict == "generality-required"
    claims = dict(comp.claims)
    assert claims["codim-floor"]
    assert not claims["expected-codim-match"]


def test_compare_mismatch_on_wrong_degree():
    m = _module((2, 2, 3), (0,))
    comp = compare(m, classify_stability(m.degrees), chern(m.degrees),
                   IdealMeasure(0, 7))
    assert comp.verdict == "mismatch"


def test_compare_mismatch_on_whole_plane():
    m = _module((2, 2, 3), (0,))
    comp = compare(m, classify_stability(m.degrees), chern(m.degrees),
                   IdealMeasure(2, 1))
    assert comp.verdict == "mismatch"
    assert not dict(comp.claims)["codim-floor"]
