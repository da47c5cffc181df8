"""Bigraded cohomology tables of the cochain complex, and grid identification.

Over a field each entry is fixed by ranks alone:

    dim H^{s,t} = n_{s,t} - rank d_{s,t} - rank d_{s-1,t},

where n_{s,t} is the spot dimension.  The differential preserves internal
degree and the window starts at s = 0, so every incoming differential lies
inside the window and every entry is exact.  The formula counts cohomology
only when d.d = 0, which `build_complex` checks exactly
(`cochain.first_square_failure`) before any table is computed from a complex.
A table and its `EulerReport` are data; `cli` lays out their report bytes.

The table of a presentation is computed by the factor route, `kunneth_table`:
the coalgebra is the tensor product of its one-cogenerator factors, and over
a field the coHH table of C (x) D is the (s, t)-convolution of the tables of C
and D (Künneth for Cotor; Bohmann, Gerhardt, Høgenhaven, Shipley and
Ziegenhagen, "Computational tools for topological coHochschild homology",
2018).  Over F_p a polynomial cogenerator splits further into truncated
factors by Lucas's theorem (`kunneth_factors`).  A table is thus a product
of power series in x (marking s) and q (marking t), and both series
multiplied out here, the tables and the grid of an E2 page (`page_grid`,
one series per generator), go through one kernel, `_times`: a numerator
times 1/(1 - x^a q^b) per denominator, cut to the window, passing only over
the rows it can reach.  The checks on a table compare it with closed forms
instead: the Euler check with delta_{t,0}, and identification with the
grid of the page whose degrees it reads off rows 0 and 1; it returns that
page, which `collapse.analyze` takes as it is.

Each factor's series comes in closed form (`factor_series`).  For a
finite-type connected coalgebra C, the cyclic cobar complex is the
degreewise linear dual of the Hochschild complex of the dual algebra
A = Hom(C, k), so both have the same table.  For one cogenerator of degree d, A is
k[x] or k[x]/(x^N) with |x| = d: an exterior cogenerator gives N = 2, a
divided power truncated at n gives N = n + 1 (untruncated: k[x]), and so does
a polynomial cogenerator truncated at n when n! is a unit (over Q, or n < p).
Such an A has a small resolution over A (x) A, 2-periodic for k[x]/(x^N) and
of length 1 for k[x], whose maps become 0 and multiplication by N x^(N-1)
after tensoring with A (Buenos Aires Cyclic Homology Group, "Cyclic homology
of algebras with one generator", K-Theory 5, 1991).  Its dual has at most one
class per spot and at most one map that can be nonzero, so its series is read
off without building it.  A polynomial cogenerator over F_p truncated at
n >= p has a truncated divided-power dual with more than one generator; it
alone keeps its cobar complex, the only complex a table comes from, and the
grammar cannot express it.  The cobar complexes are otherwise built only
as oracles, by the tests and `selftest`.

So this module imports only `coalg`, which holds `BidegreeWindow`,
`WindowTooSmall` and the page record, and `errors` at module level: `cohh
cohh` loads no cobar machinery.  The oracle, `cochain`, is imported where it is called:
`cohh_table` takes its `rank`, and `kunneth_table`'s cobar branch its
`build_complex`.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate
from operator import add, sub

from .coalg import (
    EXTERIOR,
    GAMMA_EXTERIOR,
    LAMBDA_POLY,
    POLYNOMIAL,
    BidegreeWindow,
    CoalgebraPresentation,
    Cogenerator,
    E2Presentation,
    WindowTooSmall,
    WrongShape,
    standard_page,
)
from .errors import InvalidInput

# Most (max_s + 1) * (max_t + 1) cells and most factors * cells that
# `kunneth_table` accepts; see its docstring for the timings behind them.
MAX_WINDOW_CELLS = 20_000
MAX_FACTOR_CELLS = 600_000


class WindowTooLarge(InvalidInput):
    """Bidegree window has more cells than `MAX_WINDOW_CELLS`, or more
    factors * cells than `MAX_FACTOR_CELLS`."""


class BigradedTable(namedtuple("BigradedTable", "window entries characteristic")):
    """Exact dimensions per (s, t) in the window, over `characteristic`;
    `entries` maps (s, t) to the dimension."""

    __slots__ = ()

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
    from .cochain import rank

    spots, diffs = cx.spots, cx.differentials
    entries = {}
    for t in range(cx.window.max_t + 1):
        incoming = 0  # rank d_{s-1,t}; nothing comes in below s = 0
        for s in range(cx.window.max_s + 1):
            r = rank(diffs[(s, t)])
            entries[(s, t)] = len(spots[(s, t)]) - r - incoming
            incoming = r
    return BigradedTable(cx.window, entries, cx.presentation.field.characteristic)


def check_window(window: BidegreeWindow, factors: int = 1):
    """Refuse a window with a negative bound, more than `MAX_WINDOW_CELLS`
    cells, or, for a table of `factors` Künneth factors, more than
    `MAX_FACTOR_CELLS` factors * cells, before any work is done for it."""
    if window.max_s < 0 or window.max_t < 0:
        raise WindowTooSmall(f"window {window} has a negative bound")
    cells = (window.max_s + 1) * (window.max_t + 1)
    if cells > MAX_WINDOW_CELLS:
        raise WindowTooLarge(
            f"window {window} has {cells} cells; the limit is {MAX_WINDOW_CELLS}"
        )
    if factors * cells > MAX_FACTOR_CELLS:
        raise WindowTooLarge(
            f"{factors} factors times the {cells} cells of window {window} "
            f"make {factors * cells}; the limit is {MAX_FACTOR_CELLS}"
        )


def kunneth_factors(C: CoalgebraPresentation, max_t: int) -> list:
    """The cogenerators of the one-cogenerator factors whose tensor product is
    C up to degree max_t.

    Exterior, divided-power and truncated cogenerators stay whole; a divided
    power cannot split, since its dual is a polynomial algebra.  Over F_p an
    untruncated polynomial cogenerator w_d becomes the factors k[u]/(u^p) with
    |u| = d*p^i <= max_t: Lucas's theorem, C(n, k) = prod_i C(n_i, k_i) mod p
    over the base-p digits, makes w^n -> (x)_i u_i^(n_i) a coalgebra
    isomorphism.  The degrees are even (or p = 2), so no Koszul sign enters.
    """
    p = C.field.characteristic
    cogs = []
    for cog in C.cogenerators:
        if p and cog.kind == POLYNOMIAL and cog.truncation is None:
            degree = cog.degree
            while degree <= max_t:
                cogs.append(Cogenerator(cog.name, POLYNOMIAL, degree, truncation=p - 1))
                degree *= p
        else:
            cogs.append(cog)
    return cogs


def _unit(window: BidegreeWindow) -> list:
    """The series 1 as rows over the window: rows[s][t] is the coefficient
    of x^s q^t."""
    rows = [[0] * (window.max_t + 1) for _ in range(window.max_s + 1)]
    rows[0][0] = 1
    return rows


def _times(rows: list, num: dict, dens=()) -> list:
    """rows times num, divided by 1 - x^a q^b for each (a, b) in dens; rows
    is updated in place and returned.

    num maps (a, b) to c, the term c x^a q^b, and its constant term is 1, as
    in every factor's series and every connected cobar table.  Each division
    is a running sum, so no (a, b) in dens is (0, 0).  Every exponent is
    >= 0, so a coefficient inside the window comes only from coefficients
    inside it, and cutting to the window of rows keeps every coefficient
    exact.  A pass of x-degree a writes row s only if row s - a can be
    nonzero, so it costs only the rows it can reach: up to the top nonzero
    row on entry, plus a for a numerator term, and every row from a up for
    a denominator with a >= 1, which fills them.  The term 1 costs nothing.
    The terms are added from the top row down, so a term x^a q^b with a >= 1
    reads row s - a before it changes, and a term q^b reads a copy of its
    own row taken before the row changes."""
    assert num.get((0, 0)) == 1, "the constant term must be 1"
    terms = [(a, b, c) for (a, b), c in num.items() if (a, b) != (0, 0)]
    width = len(rows[0])
    top = len(rows) - 1  # the top row that can be nonzero
    while top and rows[top].count(0) == width:  # faster than any() on a zero row
        top -= 1
    reach = min(len(rows) - 1, top + max((a for a, _, _ in terms), default=0))
    own_row = any(a == 0 for a, _, _ in terms)
    for s in reversed(range(reach + 1)):
        row = rows[s]
        own = row[:] if own_row and s <= top else row
        for a, b, c in terms:
            if a > s or s - a > top:
                continue
            src = rows[s - a] if a else own
            if c in (1, -1):
                row[b:] = map(add if c == 1 else sub, row[b:], src)
            else:
                row[b:] = [u + c * v for u, v in zip(row[b:], src)]
    top = reach
    for a, b in dens:
        if a:
            for s in range(a, len(rows)):
                row = rows[s]
                row[b:] = map(add, row[b:], rows[s - a])
            top = len(rows) - 1
        else:  # residues r >= width - b have one element in range
            for s in range(top + 1):
                row = rows[s]
                for r in range(min(b, width - b)):
                    row[r::b] = accumulate(row[r::b])
    return rows


def _entries(rows: list) -> dict:
    """Rows as table entries, every (s, t) of their window."""
    return {(s, t): row[t] for t in range(len(rows[0])) for s, row in enumerate(rows)}


def factor_series(cog: Cogenerator, p: int) -> tuple:
    """The table of a one-cogenerator factor over characteristic p as a
    series in x (for s) and q (for t), read off its small complex (see the
    module docstring): (num, dens) for `_times`.

    Spot s = 2k + e, e in {0, 1}, holds one class at each t = (kN + e + j) d
    for j = 0..N-1; for k[x] only k = 0 occurs, with every j >= 0.  So k[x]
    gives (1 + x q^d) / (1 - q^d), and k[x]/(x^N) gives

        (1 + x q^d)(1 - q^(Nd)) / ((1 - q^d)(1 - x^2 q^(Nd))).

    The only map that may be nonzero is multiplication by N, from
    (2k+1, (k+1)Nd) to (2k+2, (k+1)Nd); when it is nonzero, its two classes
    leave the table, which subtracts (x + x^2) q^(Nd) / (1 - x^2 q^(Nd)).  An
    exterior factor has N = 2 and zero maps: for odd |y| the Koszul sign
    cancels the two terms of the map, and for even |y| the field is F_2.  A
    polynomial cogenerator over F_p, untruncated or truncated at n >= p, has
    no such complex; `kunneth_table` gives it its cobar complex.
    """
    d = cog.degree
    if cog.kind != EXTERIOR and cog.truncation is None:
        return {(0, 0): 1, (1, d): 1}, [(0, d)]
    N = 2 if cog.kind == EXTERIOR else cog.truncation + 1
    top = N * d
    if cog.kind != EXTERIOR and (not p or N % p):
        # less the map's classes, (x + x^2) q^(Nd) (1 - q^d) over the same
        # denominators; N >= 2, so no two terms share a bidegree
        num = {(0, 0): 1, (1, d): 1, (0, top): -1, (1, top): -1,
               (2, top): -1, (2, top + d): 1}
    else:
        num = {(0, 0): 1, (1, d): 1, (0, top): -1, (1, top + d): -1}
    return num, [(0, d), (2, top)]


def kunneth_table(C: CoalgebraPresentation, window: BidegreeWindow) -> BigradedTable:
    """Cohomology table of C: the product of its `kunneth_factors`' series.

    Each factor's series is its closed form, `factor_series`, except for a
    polynomial cogenerator over F_p truncated at n >= p: its cobar complex is
    built, checked for d.d = 0 exactly and ranked, once per distinct (degree,
    truncation), and its table enters `_times` as a numerator with no
    denominator, one pass per nonzero entry.  So d.d = 0 is checked on every
    complex the table comes from, and a closed-form factor has none.

    A window of more than `MAX_WINDOW_CELLS` cells, or more than
    `MAX_FACTOR_CELLS` factors * cells, is refused before any work
    (`check_window`).  A closed-form factor costs at most six numerator terms
    and two denominators, each one pass over the cells, so the work is
    O(factors * cells), which `MAX_FACTOR_CELLS` bounds.  A pass costs more
    as the dimensions grow to hundreds of bits.  Measured at the limits
    (Python 3.11, shared 2-vCPU host, five runs each): the table of the 36
    exterior degrees 3, 5, ..., 73 over Q at (40, 400), which fills the
    window, takes 0.11-0.14 s of CPU, and the whole `cohh cohh` run
    0.21-0.22 s of wall time.  The worst accepted input found is 30 Γ(x_1)
    over F_2, with dimensions of ~300 bits: its table takes 0.026-0.042 s,
    and the whole run 0.14-0.16 s at (0, 19999) and 0.18-0.20 s at
    (1, 9999), of which `identify_presentation` takes 0.045-0.050 s to
    confirm the shape.
    """
    p = C.field.characteristic
    factors = kunneth_factors(C, window.max_t)
    check_window(window, len(factors))
    cobar: dict = {}  # (degree, truncation) -> nonzero cobar table entries
    rows = _unit(window)
    for cog in factors:
        if cog.kind == POLYNOMIAL and p and cog.truncation >= p:
            key = (cog.degree, cog.truncation)
            if key not in cobar:
                from .cochain import build_complex

                F = CoalgebraPresentation(C.field, [cog])
                table = cohh_table(build_complex(F, window))
                cobar[key] = {k: v for k, v in table.entries.items() if v}
            rows = _times(rows, cobar[key])
        else:
            rows = _times(rows, *factor_series(cog, p))
    return BigradedTable(window, _entries(rows), p)


EulerReport = namedtuple(
    "EulerReport", "passed checked_degrees skipped_degrees first_violation", defaults=(None,)
)
EulerReport.__doc__ = (
    "Alternating-sum comparison of spot dims vs table dims, per internal degree."
)


def presentation_euler_check(
    C: CoalgebraPresentation, window: BidegreeWindow, table: BigradedTable
) -> EulerReport:
    """Alternating sums of the table against delta_{t,0}, their value on the spots.

    The normalized spot (s, t) has n_{s,t} = [q^t] a(q)(a(q) - 1)^s classes,
    where a(q) is the Poincaré series of C, so the spot sum up to s = S is
    [q^t] of a sum_{s<=S} (1 - a)^s = 1 - (1 - a)^(S+1).  The lowest term of
    (1 - a)^(S+1) has degree (S+1) * least, least the least cogenerator
    degree, and spots with s > t / least are empty.  So a degree t is
    checked when every s <= t / least lies in the window, where the sum is
    delta_{t,0} for every connected C, and skipped otherwise.  The reference
    is this closed form: nothing is enumerated or multiplied out.

    What it catches: a table entry that is off, as from an error in the
    series product, or a closed-form factor series that gains or loses a
    term (`factor_series` has no ranks to telescope).  What it cannot catch:
    a closed-form series that keeps or drops both classes of a map, at
    (s, t) and (s+1, t); a wrong rank inside a factor whose cobar complex is
    ranked, which moves two neighbouring entries oppositely and telescopes;
    nor a wrong split into connected factors, whose product table has the
    same alternating sums.  `selftest`'s cross-check against the cobar
    complex and the factor-route oracle tests in tests/test_cohomology.py
    guard these.
    """
    least = min((c.degree for c in C.cogenerators), default=None)
    checked, skipped = [], []
    for t in range(window.max_t + 1):
        bound = 0 if least is None else t // least
        if bound > window.max_s:
            skipped.append(t)
            continue
        if sum((-1) ** s * table.dim(s, t) for s in range(bound + 1)) != int(t == 0):
            return EulerReport(False, checked, skipped, first_violation=t)
        checked.append(t)
    return EulerReport(True, checked, skipped)


def euler_check(cx: CochainComplex, table: BigradedTable) -> EulerReport:
    """`presentation_euler_check` on the presentation and window of cx."""
    return presentation_euler_check(cx.presentation, cx.window, table)


# -- symbolic identification ---------------------------------------------------


def _times_generators(rows: list, generators) -> list:
    """rows times one series per E2 generator at (s, t): 1 + x^s q^t for an
    exterior generator, 1 / (1 - x^s q^t) for a polynomial or divided-power
    one (`E2Presentation` puts every one at t >= 1)."""
    for g in generators:
        if g.kind == EXTERIOR:
            _times(rows, {(0, 0): 1, (g.s, g.t): 1})
        else:
            _times(rows, {(0, 0): 1}, [(g.s, g.t)])
    return rows


def page_grid(page: E2Presentation, window: BidegreeWindow) -> dict:
    """Dimension grid of an E2 page over the window: the product of its
    generators' series, written here apart from `factor_series`."""
    return _entries(_times_generators(_unit(window), page.generators))


def identify_presentation(table: BigradedTable) -> E2Presentation | None:
    """The `standard_page` whose `page_grid` the table is, or None.

    On both named pages row 1 is row 0 times sum_d q^d over the degrees: it
    is the x^1 coefficient of prod (1 + q^d) / (1 - x q^d), Λ(y)⊗k[w], and
    of prod (1 + x q^d) / (1 - q^d), Γ[x]⊗Λ(z).  So the degrees are read off
    the quotient row 1 / row 0, exact over the integers as row 0 starts with
    1, one subtraction pass per distinct degree; a negative coefficient fits
    neither page.  The grid then decides the page, LAMBDA_POLY first.  A
    page that `standard_page` refuses (an even |y| outside characteristic 2)
    is skipped before any grid is built.  The column-0 generators are
    multiplied in first, which fills row 0 alone (`_times` skips the rows
    that are still zero), and the column-1 generators, which fill the rows
    above, only when row 0 matches.  This needs max_s >= 1: the column-1
    generators the answer names sit in row 1, and without it nothing in the
    window shows them, so a window of row 0 alone identifies only the
    trivial table, the page with no generators.  Only entries inside the
    window are compared; no claim is made beyond it: with max_t < 2 d, d the
    least degree, both grids match, and the Λ page is named where it exists."""
    width = table.window.max_t + 1
    if table.dim(0, 0) != 1:
        return None
    row0 = [table.dim(0, t) for t in range(width)]
    rest = [table.dim(1, t) for t in range(width)]
    degrees: list = []
    for t in range(1, width):  # an entry at (1, 0) fits neither grid
        c = rest[t]
        if c < 0:
            return None
        if c:
            degrees += [t] * c
            rest[t:] = [u - c * v for u, v in zip(rest[t:], row0)]
    n = len(degrees)
    for shape in (LAMBDA_POLY, GAMMA_EXTERIOR):
        try:
            page = standard_page(shape, table.characteristic, degrees)
        except WrongShape:
            continue
        # standard_page lists the n column-0 generators before column 1
        rows = _times_generators(_unit(table.window), page.generators[:n])
        if rows[0] == row0 and table.entries == _entries(
            _times_generators(rows, page.generators[n:])
        ):
            return page
    return None
