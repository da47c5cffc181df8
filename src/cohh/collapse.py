"""Bidegree analysis of page-r differentials on a symbolic E2 page, in closed form.

Differentials move (s, t) to (s + r, t + r - 1) for r >= 2.  Sources are
restricted to algebra indecomposables (a square-free exterior monomial times a
single column-1 polynomial generator), targets to coalgebra primitives (a
single exterior generator, or a polynomial generator raised to a power of the
characteristic).  A certificate of collapse records that no candidate survives
the arithmetic inside the stated search bounds; surviving candidates are
reported as obstructions, never as nonzero differentials.

The candidates follow from the page's shape.  The page record,
`E2Presentation`, lives in `coalg`, with its shape vocabulary, so that
identification can return a page without loading this module; it puts every
polynomial generator w_j in column 1, so a source, a set of column-0 exterior
generators times one w_j, sits at (1, st).  A target is a column-0 y_i at
(0, |y_i|) or a power w_i^e at (e, e |w_i|), e = p^m (e = 1 alone if p = 0).
A source at (1, st) reaches a target at (ts, tt) iff r = ts - 1 >= 2 and
tt = st + r - 1.  So y_i, w_i and w_i^2 (ts <= 2) are never hit, and the
sources of w_i^e with e >= 3 are exactly those of internal degree
st = tt - ts + 2 = e (|w_i| - 1) + 2 < tt: the exterior sets of degree
st - |w_j|, each times w_j, over every j.  They share a bidegree, the target
and the page e - 1, so they are the witnesses of one obstruction.  The sets
are listed once, keyed by degree, after `source_count` has refused a page
with more than MAX_SOURCES sources.

`analyze` is the one entry point for a certificate, and the one search.
It certifies a divided-power page by the column argument, and for an
exterior-polynomial page lists the obstructions itself: an `Obstruction` is
the one record of a candidate map, and its witnesses are the candidate
sources.  A certificate is data: `cli.render_collapse_report` lays out its
report, with the texts `CERTIFICATE_CAVEATS` and `CONVERGENCE_NOTE`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .coalg import (
    EXTERIOR,
    GAMMA_EXTERIOR,
    LAMBDA_POLY,
    POLYNOMIAL,
    TRIVIAL,
    E2Presentation,
    WrongShape,
)
from .errors import InvalidInput
from .hopfstruct import primitive_exponents

# Most sources a page may have.  Time, memory and report size grow with them:
# y_d, w_d for odd d <= 41 at max_t = 160 over F_2 is 1.6M sources, which
# took 4.6 s and 194 MB and printed 8.7 MB.
MAX_SOURCES = 500_000

CERTIFICATE_CAVEATS = (
    "obstructed means a differential survives bidegree and structure filters; "
    "its value is not computed and may still be zero",
    "the indecomposable-source/primitive-target restriction is proved for the "
    "shortest nonzero differential in lowest total degree; it is applied here "
    "to every candidate",
    "multi-page survival (a class killed on page r cannot be hit later) is not "
    "modeled; candidates are reported independently",
)

CONVERGENCE_NOTE = (
    "collapse certifies E2 = E-infinity within the search bounds; complete "
    "convergence of the underlying spectral sequence is assumed, not checked"
)


def _refuse_sources(count: str):
    raise InvalidInput(
        f"the collapse search would stream {count} sources; at most "
        f"{MAX_SOURCES} are allowed (lower max_t)"
    )


def source_count(e2: E2Presentation, max_t: int) -> int:
    """How many indecomposable sources of internal degree <= max_t the page
    has, counted without listing them; it bounds the exterior sets, each of
    which pairs with the least w, and the witnesses, each of which is a source.

    ways[t] counts the exterior sets of degree t <= max_t minus the least
    polynomial degree (a 0/1 subset-sum count over the exterior degrees), so
    the count is the sum over w of the ways[t] with t + |w| <= max_t.  A page
    past MAX_SOURCES is refused with InvalidInput: also as soon as the
    distinct set degrees alone exceed it."""
    poly_t = [g.t for g in e2.polynomial]
    if not poly_t:
        return 0
    bound = max_t - min(poly_t)
    ways = {0: 1}
    for g in e2.exterior:
        for t, n in list(ways.items()):
            if t + g.t <= bound:
                ways[t + g.t] = ways.get(t + g.t, 0) + n
        if len(ways) > MAX_SOURCES:
            _refuse_sources(f"more than {len(ways)}")
    count = sum(n for t, n in ways.items() for wt in poly_t if t + wt <= max_t)
    if count > MAX_SOURCES:
        _refuse_sources(str(count))
    return count


def _with(exps: tuple, i: int) -> tuple:
    """exps with exponent 1 at position i."""
    return exps[:i] + (1,) + exps[i + 1:]


def _exterior_sets(e2: E2Presentation, max_t: int) -> dict:
    """Internal degree -> exponent vectors of the column-0 exterior sets of
    that degree, up to max_t minus the least polynomial degree: the list form
    of `source_count`'s subset sum, which runs first and refuses an
    over-budget page.  A page without sources has no sets."""
    if not source_count(e2, max_t):
        return {}
    bound = max_t - min(g.t for g in e2.polynomial)
    sets = {0: [(0,) * len(e2.generators)]}
    for i, g in enumerate(e2.generators):
        if g.kind == EXTERIOR and g.s == 0:
            for t in sorted(sets, reverse=True):  # descending: g joins a set once
                if t + g.t <= bound:
                    sets.setdefault(t + g.t, []).extend(_with(v, i) for v in sets[t])
    return sets


def candidate_sources(e2: E2Presentation, max_t: int) -> list:
    """Indecomposable source monomials of internal degree <= max_t, with
    bidegrees: every exterior set times every w that fits."""
    sets = _exterior_sets(e2, max_t)
    out = [
        (_with(v, j), (g.s, t + g.t))
        for j, g in enumerate(e2.generators) if g.kind == POLYNOMIAL
        for t, vs in sets.items() if t + g.t <= max_t
        for v in vs
    ]
    out.sort(key=lambda item: (item[1][1], item[0]))
    return out


def candidate_targets(e2: E2Presentation, max_t: int) -> list:
    """Primitive target monomials up to max_t: each column-0 y_i, and w_i^(p^m)
    (w_i alone if p = 0), by `hopfstruct.primitive_exponents`."""
    gens = e2.generators
    out = []
    for i, g in enumerate(gens):
        if g.kind == POLYNOMIAL or (g.kind == EXTERIOR and g.s == 0):
            for e in primitive_exponents(g.kind, g.t, e2.characteristic, max_t):
                exps = tuple(e if j == i else 0 for j in range(len(gens)))
                out.append((exps, e2.bidegree(exps)))
    out.sort(key=lambda item: (item[1][1], item[0]))
    return out


def exton2_hypotheses(e2: E2Presentation) -> dict:
    """Side conditions for the two-exterior-generator collapse certificate.

    With degrees a <= b and ratio R = (b-1)/(a-1): no p^m (m >= 1) may equal
    R + 1 (this kills candidates y2*w1 -> w1^(p^m)); for p = 2, additionally
    no 2^m may equal R; and for odd p, no p^m may equal 2R (this kills
    candidates y2*w2 -> w1^(p^m), which survive the first two conditions
    whenever R is half an odd prime power; at p = 2 the R condition already
    covers the doubled case).  Each test is cleared of its denominator a - 1,
    so p^m = R + 1 reads p^m (a-1) = a + b - 2, p^m = R reads
    p^m (a-1) = b - 1 and p^m = 2R reads p^m (a-1) = 2(b - 1).  Powers beyond
    the compared value cannot hit it, so the search per condition is finite.
    For a = 1 the ratio is undefined and the three ratio checks fail."""
    ext = e2.exterior
    if len(ext) != 2:
        raise WrongShape(f"expected exactly 2 column-0 exterior generators, got {len(ext)}")
    a, b = sorted(g.t for g in ext)
    p = e2.characteristic
    checks = {
        "degrees_odd_and_gt1": a % 2 == 1 and b % 2 == 1 and a > 1,
    }
    if a == 1:
        checks.update(
            pm_ne_ratio_plus_one=False, p2_pm_ne_ratio=False, odd_p_pm_ne_twice_ratio=False
        )
        return checks

    def power_hits(value: int) -> bool:
        """Some p^m with m >= 1 has p^m (a-1) == value."""
        if p == 0:
            return False
        q = p * (a - 1)
        while q <= value:
            if q == value:
                return True
            q *= p
        return False

    checks["pm_ne_ratio_plus_one"] = not power_hits(a + b - 2)
    checks["p2_pm_ne_ratio"] = True if p != 2 else not power_hits(b - 1)
    checks["odd_p_pm_ne_twice_ratio"] = True if p == 2 else not power_hits(2 * (b - 1))
    return checks


class Obstruction(NamedTuple):
    """One potential map d_r: every candidate source monomial (the witnesses)
    of one source bidegree that the bidegree law lets hit `target` on page r.
    `source` is the lexicographically least witness."""

    source: tuple
    target: tuple
    page: int
    source_bidegree: tuple
    target_bidegree: tuple
    witnesses: tuple         # all source monomials in this bidegree


class CollapseCertificate(NamedTuple):
    verdict: str                      # "collapses" | "obstructed"
    obstructions: list
    hypothesis_checks: dict
    max_t: int
    max_page_searched: Optional[int]
    shape: str
    argument: Optional[str] = None


def analyze(e2: E2Presentation, max_t: int) -> CollapseCertificate:
    """Full certificate for a recognized E2 shape.

    On an exterior-polynomial page there is one `Obstruction` per target at
    (ts, tt) with ts >= 3 that has a source of internal degree
    st = tt - ts + 2, on page ts - 1: each exterior set of degree
    st - |w_j|, times w_j.  Targets of one st share one sorted witness
    tuple.  The obstructions are ordered by source internal degree, page,
    source, target.

    A negative max_t is refused: an empty search would certify collapse.
    max_page_searched is e - 1 for the largest e = p^m with e min|w| <= max_t,
    the largest primitive exponent of the least w (at least 1; 0 over Q), so
    it bounds every candidate's page e - 1, which has e |w_i| <= max_t."""
    if max_t < 0:
        raise InvalidInput(f"max_t={max_t} is negative")
    shape = e2.shape()
    if shape == GAMMA_EXTERIOR:
        # No search: the column argument rules out every candidate on every page.
        return CollapseCertificate(
            verdict="collapses",
            obstructions=[],
            hypothesis_checks={
                "sources_confined_to_column_1": True,
                "targets_confined_to_columns_0_1": True,
            },
            max_t=max_t,
            max_page_searched=None,
            shape=GAMMA_EXTERIOR,
            argument=(
                "sources (indecomposables) lie in column 1; a page-r differential with "
                "r >= 2 raises the column to >= 3; targets (primitives) lie in columns "
                "<= 1, so every candidate is bidegree-infeasible"
            ),
        )
    if shape not in (LAMBDA_POLY, TRIVIAL):
        raise WrongShape("E2 page mixes generator kinds beyond the recognized shapes")
    sets = _exterior_sets(e2, max_t)
    poly = [(j, g.t) for j, g in enumerate(e2.generators) if g.kind == POLYNOMIAL]
    by_degree: dict = {}  # st -> the sorted sources of internal degree st
    obstructions = []
    for target, (ts, tt) in candidate_targets(e2, max_t):
        if ts < 3:
            continue
        st = tt - ts + 2
        witnesses = by_degree.get(st)
        if witnesses is None:
            witnesses = by_degree[st] = tuple(sorted(
                _with(v, j) for j, wt in poly for v in sets.get(st - wt, ())
            ))
        if witnesses:
            obstructions.append(
                Obstruction(witnesses[0], target, ts - 1, (1, st), (ts, tt), witnesses)
            )
    obstructions.sort(key=lambda o: (o.source_bidegree[1], o.page, o.source, o.target))
    checks: dict = {}
    if len(e2.exterior) == 2:
        checks.update(exton2_hypotheses(e2))
    max_page = None
    if e2.polynomial:
        p = e2.characteristic
        least = min(g.t for g in e2.polynomial)
        e = (primitive_exponents(POLYNOMIAL, least, p, max_t) or [1])[-1]
        max_page = max(e - 1, 1) if p else 0
    return CollapseCertificate(
        verdict="collapses" if not obstructions else "obstructed",
        obstructions=obstructions,
        hypothesis_checks=checks,
        max_t=max_t,
        max_page_searched=max_page,
        shape=shape,
    )
