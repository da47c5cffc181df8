"""Tor of F_p against F_p over the integers, fed into the coHH engine.

The two-term free resolution of F_p over Z (multiplication by p, then the
quotient) is tensored with F_p, where the multiplication map becomes zero, and
homology is taken exactly.  The resulting classes in degrees 0 and 1 carry the
coalgebra structure of an exterior generator in degree 1, which is asserted
after a dimension check; the coHH table of that exterior coalgebra is then
computed and identified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coalg import EXTERIOR, CoalgebraPresentation, Cogenerator
from .cochain import BidegreeWindow, WindowTooSmall, build_complex
from .cohomology import (
    EXTERIOR_POLYNOMIAL,
    BigradedTable,
    Identification,
    cohh_table,
    expected_grid,
    identify_presentation,
)
from .exactfield import Field, InvalidInput, SparseMatrix, rank


@dataclass
class FreeResolution:
    """Free chain complex over the integers: ranks[i] in homological degree i,
    differentials[i] the integer matrix F_{i+1} -> F_i."""

    ranks: list
    differentials: list

    def __post_init__(self):
        for i, mat in enumerate(self.differentials):
            if len(mat) != self.ranks[i]:
                raise ValueError(f"differential {i} has {len(mat)} rows, want {self.ranks[i]}")
            for row in mat:
                if len(row) != self.ranks[i + 1]:
                    raise ValueError(f"differential {i} has a row of wrong length")
        # successive differentials must compose to zero over Z
        for i in range(len(self.differentials) - 1):
            a, b = self.differentials[i], self.differentials[i + 1]
            for r in range(len(a)):
                for c in range(len(b[0]) if b else 0):
                    if sum(a[r][k] * b[k][c] for k in range(len(b))) != 0:
                        raise ValueError(f"differentials {i},{i + 1} do not compose to zero")


def fp_resolution(p: int) -> FreeResolution:
    """Z --(x p)--> Z, resolving the prime field as a Z-module."""
    return FreeResolution(ranks=[1, 1], differentials=[[[p]]])


def tor_fp(p: int, max_degree: int) -> list:
    """Graded dimensions of Tor over Z of F_p with F_p, degrees 0..max_degree."""
    fld = Field(p)
    if p == 0:
        raise InvalidInput("characteristic must be a prime here")
    res = fp_resolution(p)
    reduced = []
    for i, mat in enumerate(res.differentials):
        reduced.append(
            SparseMatrix.from_triples(
                fld, res.ranks[i], res.ranks[i + 1],
                [
                    (r, c, mat[r][c])
                    for r in range(res.ranks[i])
                    for c in range(res.ranks[i + 1])
                ],
            )
        )
    dims = []
    n = len(res.ranks)
    for i in range(n):
        out_rank = rank(reduced[i - 1]) if i >= 1 else 0
        in_rank = rank(reduced[i]) if i < n - 1 else 0
        dims.append(res.ranks[i] - out_rank - in_rank)
    dims += [0] * (max_degree + 1 - len(dims))
    return dims[: max_degree + 1]


@dataclass
class HZPipelineResult:
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
    """
    if window.max_s < 3 or window.max_t < 6:
        raise WindowTooSmall(f"pipeline needs a window of at least (3, 6), got {window}")
    dims = tor_fp(p, max_degree=max(4, window.max_t))
    if dims[0] != 1 or dims[1] != 1 or any(d != 0 for d in dims[2:]):
        raise AssertionError(f"unexpected Tor dimensions {dims}")
    fld = Field(p)
    C = CoalgebraPresentation(fld, [Cogenerator("τ", EXTERIOR, 1)])
    cx = build_complex(C, window)
    table = cohh_table(cx)
    ident = identify_presentation(table)
    if ident is None or ident.shape != EXTERIOR_POLYNOMIAL or ident.degrees != [1]:
        raise AssertionError(f"pipeline table did not identify as expected: {ident}")
    if expected_grid(EXTERIOR_POLYNOMIAL, [1], window) != table.entries:
        raise AssertionError("pipeline table deviates from the closed-form grid")
    description = ident.describe(
        base_names=["τ"], column_names=["ω"], coefficients=f"F_{p}"
    )
    return HZPipelineResult(p, dims, table, ident, description)
