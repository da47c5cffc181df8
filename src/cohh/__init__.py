"""Exact coHochschild homology of graded coalgebras over a field.

Computes the bigraded coHochschild table of a presented coalgebra exactly,
as a product of closed-form factor series (d.d = 0 is checked on the one
kind of factor that needs a complex), extracts primitives and
indecomposables, and certifies spectral-sequence collapse by exhaustive
bidegree analysis.

The public names below load their module on first access (PEP 562), so
importing the package, as every CLI process does, loads no engine module.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "AlgebraPresentation": "hopfstruct",
    "BidegreeWindow": "coalg",
    "CoalgebraPresentation": "coalg",
    "Cogenerator": "coalg",
    "E2Presentation": "collapse",
    "Field": "coalg",
    "SparseMatrix": "exactfield",
    "analyze": "collapse",
    "build_complex": "cochain",
    "cohh_table": "cohomology",
    "feasible_differentials": "collapse",
    "hz_e2_pipeline": "torpipe",
    "identify_presentation": "cohomology",
    "indecomposables": "hopfstruct",
    "kunneth_table": "cohomology",
    "primitives": "hopfstruct",
    "rank": "exactfield",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
