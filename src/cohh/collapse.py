"""Bidegree analysis of page-r differentials on a symbolic E2 page, in closed form.

Differentials move (s, t) to (s + r, t + r - 1) for r >= 2.  Sources are
restricted to algebra indecomposables (a square-free exterior monomial times a
single column-1 polynomial generator), targets to coalgebra primitives (a
single exterior generator, or a polynomial generator raised to a power of the
characteristic).  A certificate of collapse records that no candidate survives
the arithmetic inside the stated search bounds; surviving candidates are
reported as obstructions, never as nonzero differentials.

The candidates follow from the page's shape.  `E2Presentation` puts every
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
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .coalg import DIVIDED_POWER, EXTERIOR, POLYNOMIAL, Field
from .errors import InvalidInput
from .hopfstruct import primitive_exponents

LAMBDA_POLY = "lambda_poly"
GAMMA_EXTERIOR = "gamma_exterior"
TRIVIAL = "trivial"
OTHER = "other"
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


class WrongShape(InvalidInput):
    """E2 presentation does not have the shape this operation analyzes."""


class E2Generator(NamedTuple):
    name: str
    kind: str
    s: int
    t: int


class E2Presentation:
    """Symbolic E2 page: generators with bidegrees over a fixed characteristic."""

    def __init__(self, characteristic: int, generators):
        Field(characteristic)  # refuses a characteristic that is not 0 or a prime
        self.characteristic = characteristic
        self.generators = tuple(generators)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise InvalidInput(f"duplicate generator names in {names}")
        for g in self.generators:
            if g.t < 1:
                raise InvalidInput(f"generator {g.name} must have positive internal degree")
            if g.kind == POLYNOMIAL and g.s != 1:
                raise WrongShape(f"polynomial generator {g.name} must sit in column 1")
            if g.kind == DIVIDED_POWER and g.s != 0:
                raise WrongShape(f"divided-power generator {g.name} must sit in column 0")
            if g.kind == EXTERIOR and g.s not in (0, 1):
                raise WrongShape(f"exterior generator {g.name} must sit in column 0 or 1")
            if characteristic != 2 and g.kind == EXTERIOR and g.s == 0 and g.t % 2 == 0:
                raise WrongShape(
                    f"column-0 exterior generator {g.name} must have odd internal degree"
                )

    def by_kind(self, kind: str, s: Optional[int] = None) -> list:
        return [
            g for g in self.generators
            if g.kind == kind and (s is None or g.s == s)
        ]

    @property
    def exterior(self) -> list:
        return self.by_kind(EXTERIOR, 0)

    @property
    def polynomial(self) -> list:
        return self.by_kind(POLYNOMIAL, 1)

    def shape(self) -> str:
        kinds = {(g.kind, g.s) for g in self.generators}
        if not kinds:
            return TRIVIAL
        if kinds <= {(EXTERIOR, 0), (POLYNOMIAL, 1)}:
            return LAMBDA_POLY
        if kinds <= {(DIVIDED_POWER, 0), (EXTERIOR, 1)}:
            return GAMMA_EXTERIOR
        return OTHER

    # exponent vectors are plain tuples aligned with self.generators
    def bidegree(self, exponents: tuple) -> tuple:
        s = sum(e * g.s for e, g in zip(exponents, self.generators))
        t = sum(e * g.t for e, g in zip(exponents, self.generators))
        return (s, t)

    def format_monomial(self, exponents: tuple) -> str:
        parts = []
        for g, e in zip(self.generators, exponents):
            if e == 0:
                continue
            parts.append(g.name if e == 1 else f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"


def e2_from_exterior_homotopy(characteristic: int, degrees) -> E2Presentation:
    """Standard E2 page of an exterior coalgebra: y_i at (0, a_i), w_i at (1, a_i)."""
    gens = [E2Generator(f"y{i + 1}", EXTERIOR, 0, d) for i, d in enumerate(degrees)]
    gens += [E2Generator(f"w{i + 1}", POLYNOMIAL, 1, d) for i, d in enumerate(degrees)]
    return E2Presentation(characteristic, gens)


def e2_from_divided_homotopy(characteristic: int, degrees) -> E2Presentation:
    """Standard E2 page of a divided-power coalgebra: x_i at (0, d_i), z_i at (1, d_i)."""
    gens = [E2Generator(f"x{i + 1}", DIVIDED_POWER, 0, d) for i, d in enumerate(degrees)]
    gens += [E2Generator(f"z{i + 1}", EXTERIOR, 1, d) for i, d in enumerate(degrees)]
    return E2Presentation(characteristic, gens)


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


class CandidateDifferential(NamedTuple):
    """One (source monomial, target monomial, page) triple obeying the bidegree law."""

    source: tuple
    target: tuple
    page: int
    source_bidegree: tuple
    target_bidegree: tuple

    def describe(self, e2: E2Presentation) -> str:
        return (
            f"d_{self.page}: {e2.format_monomial(self.source)} "
            f"{self.source_bidegree} -> {e2.format_monomial(self.target)} "
            f"{self.target_bidegree}"
        )


def feasible_differentials(e2: E2Presentation, max_t: int) -> list:
    """Every (source, target, r >= 2) satisfying (s+r, t+r-1) = target bidegree:
    by the rule of the module docstring, each witness of each obstruction
    (`_obstructions`), ordered by source internal degree, page, source, target."""
    out = [
        CandidateDifferential(w, o.target, o.page, o.source_bidegree, o.target_bidegree)
        for o in _obstructions(e2, max_t)
        for w in o.witnesses
    ]
    out.sort(key=lambda c: (c.source_bidegree[1], c.page, c.source, c.target))
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
    """Candidates sharing (source bidegree, target, page): one potential map d_r.

    The fields of `CandidateDifferential`, plus the witnesses; `source` is the
    lexicographically least of them."""

    source: tuple
    target: tuple
    page: int
    source_bidegree: tuple
    target_bidegree: tuple
    witnesses: tuple         # all source monomials in this bidegree

    def describe(self, e2: E2Presentation, names: list) -> str:
        """One report line; `names` are the witnesses formatted, as
        `CollapseCertificate.witness_names` gives them.  The first is the
        source, which is the least witness, and is not repeated."""
        head = CandidateDifferential.describe(self, e2)
        if len(self.witnesses) > 1:
            head += f" (same-bidegree sources: {', '.join(names[1:])})"
        return head


def _obstructions(e2: E2Presentation, max_t: int) -> list:
    """One `Obstruction` per target at (ts, tt) with ts >= 3 that has a
    source of internal degree st = tt - ts + 2, on page ts - 1: each exterior
    set of degree st - |w_j|, times w_j.  Targets of one st share one sorted
    witness tuple.  Ordered as the candidates."""
    sets = _exterior_sets(e2, max_t)
    poly = [(j, g.t) for j, g in enumerate(e2.generators) if g.kind == POLYNOMIAL]
    by_degree: dict = {}  # st -> the sorted sources of internal degree st
    out = []
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
            out.append(
                Obstruction(witnesses[0], target, ts - 1, (1, st), (ts, tt), witnesses)
            )
    out.sort(key=lambda o: (o.source_bidegree[1], o.page, o.source, o.target))
    return out


class CollapseCertificate(NamedTuple):
    verdict: str                      # "collapses" | "obstructed"
    obstructions: list
    hypothesis_checks: dict
    max_t: int
    max_page_searched: Optional[int]
    shape: str
    argument: Optional[str] = None
    caveats: tuple = CERTIFICATE_CAVEATS

    def witness_names(self, e2: E2Presentation) -> dict:
        """Source bidegree -> the formatted witnesses of its obstructions,
        which share them: each list is formatted once."""
        names: dict = {}
        for o in self.obstructions:
            if o.source_bidegree not in names:
                names[o.source_bidegree] = [e2.format_monomial(w) for w in o.witnesses]
        return names

    def to_json_dict(self, e2: E2Presentation) -> dict:
        names = self.witness_names(e2)
        return {
            "format_version": 1,
            "verdict": self.verdict,
            "shape": self.shape,
            "characteristic": e2.characteristic,
            "search_bounds": {"max_t": self.max_t, "max_page": self.max_page_searched},
            "hypothesis_checks": dict(sorted(self.hypothesis_checks.items())),
            "obstructions": [
                {
                    "page": o.page,
                    "source": e2.format_monomial(o.source),
                    "target": e2.format_monomial(o.target),
                    "source_bidegree": list(o.source_bidegree),
                    "target_bidegree": list(o.target_bidegree),
                    "same_bidegree_sources": names[o.source_bidegree],
                }
                for o in self.obstructions
            ],
            "argument": self.argument,
            "convergence_note": CONVERGENCE_NOTE if self.verdict == "collapses" else None,
            "caveats": list(self.caveats),
        }


def gamma_collapse(e2: E2Presentation, max_t: int = 0) -> CollapseCertificate:
    """Column argument for a divided-power base with column-1 exterior generators.

    Indecomposable sources sit in column 1 and any page-r differential with
    r >= 2 lands in column >= 3, while every primitive target sits in columns
    0 or 1, so no candidate differential exists at any page."""
    if e2.shape() != GAMMA_EXTERIOR:
        raise WrongShape(
            "column argument needs a divided-power column-0 base with exterior "
            "column-1 generators only"
        )
    argument = (
        "sources (indecomposables) lie in column 1; a page-r differential with "
        "r >= 2 raises the column to >= 3; targets (primitives) lie in columns "
        "<= 1, so every candidate is bidegree-infeasible"
    )
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
        argument=argument,
    )


def analyze(e2: E2Presentation, max_t: int) -> CollapseCertificate:
    """Full certificate for a recognized E2 shape.

    A negative max_t is refused: an empty search would certify collapse.
    max_page_searched is e - 1 for the largest e = p^m with e min|w| <= max_t
    (at least 1; 0 over Q), so it bounds every candidate's page e - 1, which
    has e |w_i| <= max_t."""
    if max_t < 0:
        raise InvalidInput(f"max_t={max_t} is negative")
    shape = e2.shape()
    if shape == GAMMA_EXTERIOR:
        return gamma_collapse(e2, max_t)
    if shape not in (LAMBDA_POLY, TRIVIAL):
        raise WrongShape("E2 page mixes generator kinds beyond the recognized shapes")
    obstructions = _obstructions(e2, max_t)
    checks: dict = {}
    if len(e2.exterior) == 2:
        checks.update(exton2_hypotheses(e2))
    max_page = None
    if e2.polynomial:
        p = e2.characteristic
        if p:
            min_wt = min(g.t for g in e2.polynomial)
            q = 1
            while q * min_wt <= max_t:
                q *= p
            max_page = max(q // p - 1, 1)
        else:
            max_page = 0
    return CollapseCertificate(
        verdict="collapses" if not obstructions else "obstructed",
        obstructions=obstructions,
        hypothesis_checks=checks,
        max_t=max_t,
        max_page_searched=max_page,
        shape=shape,
    )
