"""Exact engine for non-Lefschetz loci of finite graded modules over
a three-variable polynomial ring, and for the jumping-line geometry of
the associated rank-2 kernel bundle on the projective plane."""

__version__ = "0.1.0"

from .field_linalg import DEFAULT_PRIME, cokernel_basis, kernel_basis, rank
from .polyring import Polynomial, Ring, line_power_table, monomial_basis
from .presentation import (
    DegreeData,
    GradedModule,
    PresentationMatrix,
    generic_hilbert_profile,
    generic_module,
    graded_piece_matrix,
    random_presentation,
)
from .groebner import GroebnerBasis, IdealMeasure, buchberger, measure
from .lefschetz import is_lefschetz, locus_ideal, locus_ideal_at
from .bundle import (
    ChernData,
    SplittingType,
    StabilityReport,
    chern,
    classify_stability,
    h0,
    lefschetz_oracle,
)
from .jumping import LinePoint, line_point, restrict, splitting_type
from .predictor import (
    compare,
    expected_codimension,
    predict,
    predicted_codimension,
    predicted_degree,
)

__all__ = [
    "DEFAULT_PRIME",
    "ChernData",
    "DegreeData",
    "GradedModule",
    "GroebnerBasis",
    "IdealMeasure",
    "LinePoint",
    "Polynomial",
    "PresentationMatrix",
    "Ring",
    "SplittingType",
    "StabilityReport",
    "buchberger",
    "chern",
    "classify_stability",
    "cokernel_basis",
    "compare",
    "expected_codimension",
    "generic_hilbert_profile",
    "generic_module",
    "graded_piece_matrix",
    "h0",
    "is_lefschetz",
    "kernel_basis",
    "lefschetz_oracle",
    "line_point",
    "line_power_table",
    "locus_ideal",
    "locus_ideal_at",
    "measure",
    "monomial_basis",
    "predict",
    "predicted_codimension",
    "predicted_degree",
    "random_presentation",
    "rank",
    "restrict",
    "splitting_type",
]
