"""Closed-form predictions for the locus and the comparison verdict.

The expected codimension comes straight from the Hilbert function at the
middle degree; the predicted codimension from the stability class and
the parity of the total twist; the predicted degree is the middle
Hilbert value for curve loci and a binomial point count for finite loci,
with its Chern-class cross identity enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .bundle import ChernData, InconsistencyError, StabilityReport
from .groebner import IdealMeasure
from .presentation import GradedModule


@dataclass(frozen=True)
class Prediction:
    middle_degree: int
    expected_codim: int
    predicted_codim: int
    predicted_degree: int
    stability_class: str


def expected_codimension(m: GradedModule) -> int:
    """h_{i*+1} - h_{i*} + 1 at the middle degree i*."""
    i_star = m.degrees.middle_degree
    return m.h(i_star + 1) - m.h(i_star) + 1


def predicted_codimension(stability: StabilityReport) -> int:
    """1 for unstable bundles and even total twist, 2 for odd and stable."""
    if stability.unstable or stability.c1_norm == 0:
        return 1
    return 2


def _binomial(n: int, k: int) -> int:
    """C(n, k), taken as 0 for k < 0."""
    return comb(n, k) if k >= 0 else 0


def predicted_degree(m: GradedModule, stability: StabilityReport,
                     chern_data: ChernData) -> int:
    """Curve case: the middle Hilbert value.  Finite case: the binomial
    count from the middle matrix shape, which must agree with the pair
    count of the normalized second Chern class."""
    i_star = m.degrees.middle_degree
    if predicted_codimension(stability) == 1:
        return m.h(i_star)
    value = _binomial(m.h(i_star + 1), m.h(i_star) - 1)
    c2_norm = chern_data.twisted(stability.t0).c2
    cross = comb(c2_norm, 2) if c2_norm >= 0 else -1
    if cross != value:
        raise InconsistencyError(
            f"point-count cross identity failed: C({m.h(i_star + 1)}, "
            f"{m.h(i_star) - 1}) = {value} but C({c2_norm}, 2) = {cross}"
        )
    return value


def predict(m: GradedModule, stability: StabilityReport,
            chern_data: ChernData) -> Prediction:
    """A predicted degree of 0 (no points, or h(i*) = 0 so the middle map
    has no columns) means an empty locus: the unit ideal, codimension 3."""
    degree = predicted_degree(m, stability, chern_data)
    empty = degree == 0
    return Prediction(
        middle_degree=m.degrees.middle_degree,
        expected_codim=3 if empty else expected_codimension(m),
        predicted_codim=3 if empty else predicted_codimension(stability),
        predicted_degree=degree,
        stability_class=stability.cls,
    )


@dataclass(frozen=True)
class ComparisonReport:
    prediction: Prediction
    measured_codim: int
    measured_degree: int
    claims: tuple[tuple[str, bool], ...]
    verdict: str  # "match" | "generality-required" | "mismatch"


def compare(m: GradedModule, stability: StabilityReport, chern_data: ChernData,
            measured: IdealMeasure) -> ComparisonReport:
    """Verdict of measured locus data against the closed-form predictions.

    A proper locus that is nonetheless bigger than expected is flagged
    ``generality-required``: the genericity hypothesis genuinely matters
    for that input.
    """
    pred = predict(m, stability, chern_data)
    measured_codim = measured.codim
    floor_ok = measured_codim >= 1
    expected_ok = measured_codim == pred.expected_codim
    predicted_ok = measured_codim == pred.predicted_codim
    claims: list[tuple[str, bool]] = [
        ("codim-floor", floor_ok),
        ("expected-codim-match", expected_ok),
        ("predicted-codim-match", predicted_ok),
    ]
    degree_ok = predicted_ok and measured.degree == pred.predicted_degree
    if predicted_ok:
        claims.append(("degree-match", degree_ok))
    if expected_ok and predicted_ok and degree_ok:
        verdict = "match"
    elif floor_ok and measured_codim < pred.expected_codim:
        verdict = "generality-required"
    else:
        verdict = "mismatch"
    return ComparisonReport(pred, measured_codim, measured.degree,
                            tuple(claims), verdict)
