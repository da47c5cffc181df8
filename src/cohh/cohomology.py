"""Bigraded cohomology tables of the cochain complex, and grid identification.

Over a field each entry is fixed by ranks alone:

    dim H^{s,t} = n_{s,t} - rank d_{s,t} - rank d_{s-1,t},

where n_{s,t} is the spot dimension.  The differential preserves internal
degree and the window starts at s = 0, so every incoming differential lies
inside the window and every entry is exact.  The formula counts cohomology
only when d.d = 0, which `build_complex` checks exactly (with its default
check=True) before any table is computed from the complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cochain import BidegreeWindow, CochainComplex
from .exactfield import rank

FORMAT_VERSION = 2


@dataclass
class BigradedTable:
    """Exact dimensions per (s, t) in the window."""

    window: BidegreeWindow
    entries: dict                     # (s, t) -> dimension

    def dim(self, s: int, t: int) -> int:
        return self.entries.get((s, t), 0)

    def nonzero(self) -> dict:
        return {k: v for k, v in sorted(self.entries.items()) if v}


def cohh_table(cx: CochainComplex) -> BigradedTable:
    """Cohomology dimensions at every window spot of a built complex.

    One sparse `rank` per differential: rank d_{s,t} serves spot (s, t)
    and, as the incoming rank, spot (s+1, t).  Precondition: d.d = 0 on cx, as
    established by build_complex(..., check=True) or first_square_failure;
    on a complex that fails it the numbers are not cohomology.
    """
    entries = {}
    for t in range(cx.window.max_t + 1):
        incoming = 0  # rank d_{s-1,t}; nothing comes in below s = 0
        for s in range(cx.window.max_s + 1):
            r = rank(cx.differentials[(s, t)])
            entries[(s, t)] = cx.spot_dim(s, t) - r - incoming
            incoming = r
    return BigradedTable(cx.window, entries)


@dataclass
class EulerReport:
    """Alternating-sum comparison of spot dims vs table dims, per internal degree."""

    passed: bool
    checked_degrees: list
    skipped_degrees: list
    first_violation: Optional[int] = None

    def describe(self) -> str:
        if self.passed:
            return (
                f"pass ({len(self.checked_degrees)} degrees checked, "
                f"{len(self.skipped_degrees)} beyond the window)"
            )
        return f"FAIL at internal degree t={self.first_violation}"


def euler_check(cx: CochainComplex, table: BigradedTable) -> EulerReport:
    """Basis-independence of the Euler characteristic in each complete degree.

    For a table from `cohh_table` this is an identity: the rank formula makes
    the alternating sum telescope to the spot dimensions, so a wrong rank
    moves two neighbouring entries in opposite directions and cancels.  It
    guards tables built otherwise; ranks themselves are checked against the
    dense elimination by the rank oracle tests in tests/test_exactfield.py.
    """
    checked, skipped = [], []
    for t in range(cx.window.max_t + 1):
        bound = cx.max_contributing_s(t)
        if bound is None or bound > cx.window.max_s:
            skipped.append(t)
            continue
        spot_sum = sum(
            (-1) ** s * cx.spot_dim(s, t) for s in range(bound + 1)
        )
        table_sum = sum((-1) ** s * table.dim(s, t) for s in range(bound + 1))
        if spot_sum != table_sum:
            return EulerReport(False, checked, skipped, first_violation=t)
        checked.append(t)
    return EulerReport(True, checked, skipped)


# -- symbolic identification ---------------------------------------------------

EXTERIOR_POLYNOMIAL = "exterior_polynomial"
DIVIDED_EXTERIOR = "divided_exterior"
TRIVIAL = "trivial"


@dataclass
class Identification:
    """Matched grid shape with the internal degrees of its column-0 generators."""

    shape: str
    degrees: list

    def describe(self, base_names=None, column_names=None, coefficients="k") -> str:
        if self.shape == TRIVIAL:
            return "k (trivial)"
        n = len(self.degrees)
        if self.shape == EXTERIOR_POLYNOMIAL:
            base_names = base_names or [f"y{i + 1}" for i in range(n)]
            column_names = column_names or [f"w{i + 1}" for i in range(n)]
            head = (
                f"Λ({','.join(base_names)})⊗"
                f"{coefficients}[{','.join(column_names)}]"
            )
        else:
            base_names = base_names or [f"x{i + 1}" for i in range(n)]
            column_names = column_names or [f"z{i + 1}" for i in range(n)]
            head = f"Γ[{','.join(base_names)}]⊗Λ({','.join(column_names)})"
        degs = ", ".join(
            f"||{b}||=(0,{d}), ||{c}||=(1,{d})"
            for b, c, d in zip(base_names, column_names, self.degrees)
        )
        return f"{head}, {degs}"


def _push_factor(coeffs: list, degree: int, geometric: bool) -> list:
    """Multiply a coefficient series by (1 + q^d) or by 1/(1 - q^d)."""
    out = list(coeffs)
    if geometric:
        for t in range(degree, len(out)):
            out[t] += out[t - degree]
    else:
        for t in range(len(out) - 1, degree - 1, -1):
            out[t] += out[t - degree]
    return out


def _recover_degrees(row0, max_t: int, geometric: bool) -> Optional[list]:
    """Greedy generator-degree recovery from the s=0 row of a table."""
    degrees: list = []
    coeffs = [0] * (max_t + 1)
    coeffs[0] = 1
    for t in range(1, max_t + 1):
        have = row0.get(t, 0)
        if have < coeffs[t]:
            return None
        for _ in range(have - coeffs[t]):
            degrees.append(t)
            coeffs = _push_factor(coeffs, t, geometric)
    return degrees


def _column_series(degrees, max_s: int, max_t: int, geometric: bool) -> list:
    """cols[s][t] = number of column-s monomials on the column-1 generators.

    geometric=True counts multisets (polynomial generators), else subsets
    (exterior generators); s counts the total exponent."""
    cols = [[0] * (max_t + 1) for _ in range(max_s + 1)]
    cols[0][0] = 1
    for d in degrees:
        if geometric:
            for s in range(1, max_s + 1):
                for t in range(d, max_t + 1):
                    cols[s][t] += cols[s - 1][t - d]
        else:
            for s in range(max_s, 0, -1):
                for t in range(max_t, d - 1, -1):
                    cols[s][t] += cols[s - 1][t - d]
    return cols


def expected_grid(shape: str, degrees, window: BidegreeWindow) -> dict:
    """Dimension grid of the closed-form answer over the window.

    exterior_polynomial: exterior base at (0, d_i) times polynomial column
    generators at (1, d_i); divided_exterior: divided-power base at (0, d_i)
    times exterior column generators at (1, d_i)."""
    max_s, max_t = window.max_s, window.max_t
    base = [0] * (max_t + 1)
    base[0] = 1
    for d in degrees:
        base = _push_factor(base, d, geometric=(shape == DIVIDED_EXTERIOR))
    cols = _column_series(
        degrees, max_s, max_t, geometric=(shape == EXTERIOR_POLYNOMIAL)
    )
    grid = {}
    for s in range(max_s + 1):
        for t in range(max_t + 1):
            grid[(s, t)] = sum(base[t1] * cols[s][t - t1] for t1 in range(t + 1))
    return grid


def identify_presentation(table: BigradedTable) -> Optional[Identification]:
    """Match the table against the two closed-form grid shapes, or return None.

    Only entries inside the window are compared; no claim is made beyond it."""
    window = table.window
    if table.dim(0, 0) != 1:
        return None
    if all(v == 0 for k, v in table.entries.items() if k != (0, 0)):
        return Identification(TRIVIAL, [])
    row0 = {t: table.dim(0, t) for t in range(window.max_t + 1)}
    for shape in (EXTERIOR_POLYNOMIAL, DIVIDED_EXTERIOR):
        degrees = _recover_degrees(
            row0, window.max_t, geometric=(shape == DIVIDED_EXTERIOR)
        )
        if not degrees:
            continue
        if expected_grid(shape, degrees, window) == table.entries:
            return Identification(shape, degrees)
    return None


# -- export -----------------------------------------------------------------


def table_to_csv(table: BigradedTable) -> str:
    lines = ["s,t,dim"]
    for (s, t) in sorted(table.entries):
        lines.append(f"{s},{t},{table.entries[(s, t)]}")
    return "\n".join(lines) + "\n"


def table_to_json_dict(table: BigradedTable) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "window": {"max_s": table.window.max_s, "max_t": table.window.max_t},
        "entries": [
            {"s": s, "t": t, "dim": table.entries[(s, t)]}
            for (s, t) in sorted(table.entries)
        ],
    }
