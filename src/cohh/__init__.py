"""Exact coHochschild homology of graded coalgebras over a field.

Builds the cosimplicial coproduct complex of a presented coalgebra, computes
its bigraded cohomology exactly, extracts primitives and indecomposables, and
certifies spectral-sequence collapse by exhaustive bidegree analysis.
"""

__version__ = "0.1.0"

from .coalg import CoalgebraPresentation, Cogenerator
from .cochain import BidegreeWindow, build_complex
from .cohomology import cohh_table, identify_presentation, kunneth_table
from .collapse import E2Presentation, analyze, feasible_differentials
from .exactfield import Field, SparseMatrix, rank
from .hopfstruct import AlgebraPresentation, indecomposables, primitives
from .torpipe import hz_e2_pipeline

__all__ = [
    "__version__",
    "AlgebraPresentation",
    "BidegreeWindow",
    "CoalgebraPresentation",
    "Cogenerator",
    "E2Presentation",
    "Field",
    "SparseMatrix",
    "analyze",
    "build_complex",
    "cohh_table",
    "feasible_differentials",
    "hz_e2_pipeline",
    "identify_presentation",
    "indecomposables",
    "kunneth_table",
    "primitives",
    "rank",
]
