"""The hz pipeline: the coHH table of Tor over the integers of F_p with F_p.

Tor^Z(F_p, F_p) = Λ(τ_1) is cited, not computed: the free resolution
0 -> Z --(x p)--> Z -> F_p has one differential, which vanishes mod p, so
Tor is F_p in degrees 0 and 1 and zero above.  Its coalgebra structure, an
exterior generator in degree 1, is cited too.  The pipeline computes the coHH
table of that exterior coalgebra and identifies it as the page Λ(τ)⊗F_p[ω].
"""

from __future__ import annotations

from collections import namedtuple

from .coalg import (
    EXTERIOR,
    LAMBDA_POLY,
    BidegreeWindow,
    CoalgebraPresentation,
    Cogenerator,
    Field,
    WindowTooSmall,
    standard_page,
)
from .cohomology import check_window, identify_presentation, kunneth_table
from .errors import InvalidInput, InvariantFailure

# Tor^Z(F_p, F_p) = Λ(τ_1) in degrees 0..4, as the report lists it (cited).
TOR_DIMS = [1, 1, 0, 0, 0]


HZPipelineResult = namedtuple("HZPipelineResult", "table description")


def hz_e2_pipeline(p: int, window: BidegreeWindow) -> HZPipelineResult:
    """coHH table of the degree-(0,1)/(1,1) exterior-polynomial page at the prime p.

    The input is Λ(τ_1), the exterior coalgebra on one degree-1 class that
    Tor^Z(F_p, F_p) is (cited).  The window is refused, as by `kunneth_table`,
    before a composite characteristic or 0.  A table that does not identify
    as the page Λ(y1)⊗k[w1] on degree 1 is an invariant failure."""
    if window.max_s < 3 or window.max_t < 6:
        raise WindowTooSmall(f"pipeline needs a window of at least (3, 6), got {window}")
    check_window(window)
    fld = Field(p)
    if p == 0:
        raise InvalidInput("characteristic must be a prime here")
    table = kunneth_table(CoalgebraPresentation(fld, [Cogenerator("τ", EXTERIOR, 1)]), window)
    page = identify_presentation(table)
    if page != standard_page(LAMBDA_POLY, p, [1]):
        raise InvariantFailure(
            f"pipeline table did not identify as expected: {page and page.describe()}"
        )
    description = standard_page(LAMBDA_POLY, p, [1], ["τ", "ω"]).describe(f"F_{p}")
    return HZPipelineResult(table, description)
