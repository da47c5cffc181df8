"""Tor of F_p against F_p over the integers, fed into the coHH engine.

The free resolution 0 -> Z --(x p)--> Z -> F_p has one differential.
Tensored with F_p it is the 1x1 matrix (p mod p), and Tor is the homology of
that one matrix: 1 - rank in degrees 0 and 1, zero above.  The resulting
classes in degrees 0 and 1 carry the coalgebra structure of an exterior
generator in degree 1, which is asserted after a dimension check; the coHH
table of that exterior coalgebra is then computed and identified.
"""

from __future__ import annotations

from typing import NamedTuple

from .coalg import (
    EXTERIOR,
    BidegreeWindow,
    CoalgebraPresentation,
    Cogenerator,
    Field,
    WindowTooSmall,
)
from .cohomology import (
    EXTERIOR_POLYNOMIAL,
    BigradedTable,
    Identification,
    check_window,
    identify_presentation,
    kunneth_table,
)
from .errors import InvalidInput, InvariantFailure
from .exactfield import SparseMatrix, rank

# Tor is computed, checked and reported in degrees 0..TOR_MAX_DEGREE only.
TOR_MAX_DEGREE = 4


def tor_fp(p: int, max_degree: int) -> list:
    """Graded dimensions of Tor over Z of F_p with F_p, degrees 0..max_degree."""
    fld = Field(p)
    if p == 0:
        raise InvalidInput("characteristic must be a prime here")
    r = rank(SparseMatrix.from_triples(fld, 1, 1, [(0, 0, p)]))
    return ([1 - r, 1 - r] + [0] * max_degree)[: max_degree + 1]


class HZPipelineResult(NamedTuple):
    characteristic: int
    tor_dims: list
    table: BigradedTable
    identification: Identification
    description: str


def hz_e2_pipeline(p: int, window: BidegreeWindow) -> HZPipelineResult:
    """coHH table of the degree-(0,1)/(1,1) exterior-polynomial page at the prime p.

    The input coalgebra is the exterior coalgebra on one degree-1 class, which
    is what the Tor computation produces (dimension-checked here; the coalgebra
    structure on Tor is asserted, not derived from a coproduct computation).
    The window is refused, as by `kunneth_table`, before Tor is computed.
    """
    if window.max_s < 3 or window.max_t < 6:
        raise WindowTooSmall(f"pipeline needs a window of at least (3, 6), got {window}")
    check_window(window)
    dims = tor_fp(p, TOR_MAX_DEGREE)
    if dims[0] != 1 or dims[1] != 1 or any(d != 0 for d in dims[2:]):
        raise InvariantFailure(f"unexpected Tor dimensions {dims}")
    fld = Field(p)
    C = CoalgebraPresentation(fld, [Cogenerator("τ", EXTERIOR, 1)])
    table = kunneth_table(C, window)
    ident = identify_presentation(table)
    if ident is None or ident.shape != EXTERIOR_POLYNOMIAL or ident.degrees != [1]:
        raise InvariantFailure(f"pipeline table did not identify as expected: {ident}")
    description = ident.describe(
        base_names=["τ"], column_names=["ω"], coefficients=f"F_{p}"
    )
    return HZPipelineResult(p, dims, table, ident, description)
