"""The cosimplicial cobar object of a coalgebra, truncated to a window.

Level s holds tensor powers with s+1 factors (coefficients in slot 0), each a
tuple of monomials; `tensor_bases` lists every spot of a window in one pass.
Cofaces 0..s apply the coproduct to one slot; coface s+1 applies it to slot 0
and then cycles the first factor to the last with the Koszul sign
(`twist_first_to_last`).  The differential is the alternating sum of the
cofaces (`differential_terms`).

The normalized complex keeps the tuples with no unit factor in slots >= 1,
and its differential is generated without the terms that cancel
(`normalized_differential_terms`).  Write the coproduct of a positive-degree
c as c|1 + 1|c + the reduced coproduct of c.  On a normalized tuple the term
with c_i|1 from coface i and the term with 1|c_(i+1) from coface i+1 are the
same tuple with opposite signs, and so are c_s|1 from coface s and the twist
of 1|c_0 from coface s+1.  Every other unit-bearing term puts the unit in a
slot >= 1 and cancels likewise, so what is left is the reduced coproducts, the
1|c_0 of coface 0 and the twist of c_0|1 of coface s+1: exactly the
normalized terms of the full sum.  The full complex keeps `differential_terms`,
so the two stay independent.  The codegeneracies, which apply the counit in an
interior slot, serve only the cosimplicial identity scan, so they live with it
in `selftest`.

This module is the cobar oracle.  `selftest`, the tests and the benchmark
replay build complexes with it; `cohh cohh` loads it only for the one factor
kind without a closed form, a polynomial cogenerator over F_p truncated at
n >= p, which the grammar cannot express.  `BidegreeWindow`, its defaults
and `WindowTooSmall` live in `coalg`, the presentation module, and are
re-exported here.
"""

from __future__ import annotations

from typing import Optional

from .coalg import (  # BidegreeWindow, WindowTooSmall and the defaults re-exported
    DEFAULT_MAX_S,
    DEFAULT_MAX_T,
    BidegreeWindow,
    CoalgebraPresentation,
    NotConnected,
    WindowTooSmall,
    add_term,
)
from .errors import InvariantFailure
from .exactfield import SparseMatrix


class DifferentialNotSquareZero(InvariantFailure):
    """d composed with d is nonzero at some bigraded spot."""


def tensor_bases(
    C: CoalgebraPresentation, max_s: int, max_t: int, normalized: bool
) -> dict:
    """Ordered bases of every spot (s, t), 0 <= s <= max_s, 0 <= t <= max_t.

    Spot (s, t) holds the tuples of s+1 monomials of total degree t; when
    normalized, slots 1..s hold positive-degree monomials only.  A spot lists
    its tuples slot by slot from the left: degree ascending, then the
    monomial's position in `basis_in_degree`.  The tails (slots 1..k) of
    every degree are grown one slot at a time, each k+1-slot tail a monomial
    put in front of a k-slot tail, so each tail is built once per window.
    """
    if max_s < 0 or max_t < 0:
        return {}
    degrees = [(d, basis) for d in range(max_t + 1) if (basis := C.basis_in_degree(d))]

    def prepend(tails: list, t: int, lo: int) -> list:
        out: list = []
        for d, basis in degrees:
            if d > t:
                break
            if d >= lo and (rest := tails[t - d]):
                out += [(m,) + tail for m in basis for tail in rest]
        return out

    tails = [[()]] + [[] for _ in range(max_t)]  # no slots yet, indexed by degree
    spots: dict = {}
    for s in range(max_s + 1):
        row = [prepend(tails, t, 0) for t in range(max_t + 1)]
        spots.update(((s, t), basis) for t, basis in enumerate(row))
        if s < max_s:
            # without normalization a tail is any spot one slot shorter
            tails = [prepend(tails, t, 1) for t in range(max_t + 1)] if normalized else row
    return spots


def tensor_basis(C: CoalgebraPresentation, s: int, t: int, normalized: bool) -> list:
    """Ordered basis of spot (s, t), as listed by `tensor_bases`."""
    if s < 0 or t < 0:
        return []
    return tensor_bases(C, s, t, normalized)[(s, t)]


def twist_first_to_last(C: CoalgebraPresentation, terms: dict) -> dict:
    """Cycle the first tensor factor to the last with the Koszul sign."""
    fld = C.field
    out: dict = {}
    for tup, coeff in terms.items():
        first, rest = tup[0], tup[1:]
        crossing = C.degree(first) * sum(C.degree(m) for m in rest)
        add_term(out, rest + (first,), -coeff if crossing % 2 else coeff, fld)
    return out


def coface_terms(C: CoalgebraPresentation, i: int, s: int, tup: tuple) -> dict:
    """Image of one basis tuple (s+1 factors) under the i-th coface, 0 <= i <= s+1.

    The coproduct terms of the split slot are stored as they are: each is
    canonical, and no two collide, since a term (a, b) of m has a + b = m.
    """
    if not 0 <= i <= s + 1:
        raise IndexError(f"coface index {i} outside [0, {s + 1}]")
    # i = 0 is the right coaction on the coefficient slot, which for C as its
    # own coefficients is again the coproduct; coface s+1 starts with the
    # left coaction, the same split of slot 0.
    slot = i if i <= s else 0
    head, tail = tup[:slot], tup[slot + 1:]
    split = {head + ab + tail: c for ab, c in C.coproduct_monomial(tup[slot]).items()}
    if i <= s:
        return split
    return twist_first_to_last(C, split)


def differential_terms(C: CoalgebraPresentation, tup: tuple) -> dict:
    """Alternating sum of all cofaces on one tuple, before any normalization."""
    s = len(tup) - 1
    fld = C.field
    out: dict = {}
    for i in range(s + 2):
        for key, c in coface_terms(C, i, s, tup).items():
            add_term(out, key, -c if i % 2 else c, fld)
    return out


def normalized_differential_terms(
    C: CoalgebraPresentation, tup: tuple, reduced: Optional[dict] = None
) -> dict:
    """The differential of a normalized tuple, generating only the kept terms.

    Equal to `differential_terms` on every normalized tuple (c_0|...|c_s):
    coface 0 gives [1|c_0|...] plus the reduced coproduct of c_0 in slots 0
    and 1, interior coface i gives (-1)^i times the reduced coproduct of c_i,
    and coface s+1 gives (-1)^(s+1) times the twist of [c_0|1|...] plus the
    reduced coproduct of c_0.  `reduced` caches the reduced coproducts by
    monomial across calls.
    """
    if reduced is None:
        reduced = {}

    def bar(m: tuple) -> list:
        """The coproduct terms of m with both sides of positive degree."""
        if m not in reduced:
            reduced[m] = [
                (a, b, c) for (a, b), c in C.coproduct_monomial(m).items() if any(a) and any(b)
            ]
        return reduced[m]

    s = len(tup) - 1
    fld = C.field
    out: dict = {}
    for i in range(1, s + 1):
        head, tail = tup[:i], tup[i + 1:]
        for a, b, c in bar(tup[i]):
            add_term(out, head + (a, b) + tail, -c if i % 2 else c, fld)
    first, rest = tup[0], tup[1:]
    if any(first):  # a unit c_0 adds no normalized term
        wrapped = {(first, C.unit()) + rest: 1}
        add_term(out, (C.unit(), first) + rest, 1, fld)
        for a, b, c in bar(first):
            add_term(out, (a, b) + rest, c, fld)
            wrapped[(a, b) + rest] = c
        for key, c in twist_first_to_last(C, wrapped).items():
            add_term(out, key, c if s % 2 else -c, fld)
    return out


def _matrix_from_terms(C, source_basis, target_basis, expand) -> SparseMatrix:
    """The matrix whose column j holds expand(source_basis[j]) in target_basis.

    expand returns a dict of canonical nonzero values, as every accumulation
    through `add_term` does, so each is stored as given.
    """
    index = {tup: r for r, tup in enumerate(target_basis)}
    entries = {}
    for j, tup in enumerate(source_basis):
        for key, coeff in expand(tup).items():
            r = index.get(key)
            if r is None:
                raise KeyError(f"image term {key} missing from the target basis")
            entries[(r, j)] = coeff
    return SparseMatrix(C.field, len(target_basis), len(source_basis), entries)


class CochainComplex:
    """Bigraded complex with one sparse differential matrix per (s, t) spot."""

    __slots__ = ("presentation", "window", "spots", "differentials")

    def __init__(
        self,
        presentation: CoalgebraPresentation,
        window: BidegreeWindow,
        spots: dict,          # (s, t) -> basis tuples, for 0 <= s <= max_s + 1
        differentials: dict,  # (s, t) -> SparseMatrix spot(s,t) -> spot(s+1,t)
    ):
        self.presentation = presentation
        self.window = window
        self.spots = spots
        self.differentials = differentials

    def spot_dim(self, s: int, t: int) -> int:
        return len(self.spots.get((s, t), ()))


def build_complex(
    C: CoalgebraPresentation,
    window: BidegreeWindow,
    normalized: bool = True,
    check: bool = True,
) -> CochainComplex:
    """Assemble bases and differentials for all spots inside the window.

    The bases of spots 0..max_s+1 come from one `tensor_bases` pass.  The
    normalized differential comes from `normalized_differential_terms`, which
    emits only normalized tuples; the full one from `differential_terms`.  An
    image term outside the target basis raises KeyError: nothing is projected
    away.  With check=True every composable pair of differentials is verified
    to compose to zero; a failure raises DifferentialNotSquareZero.
    """
    if window.max_s < 0 or window.max_t < 0:
        raise WindowTooSmall(f"window {window} has a negative bound")
    if any(c.degree < 1 for c in C.cogenerators):
        raise NotConnected("presentation has a cogenerator below degree 1")

    spots = tensor_bases(C, window.max_s + 1, window.max_t, normalized)
    reduced: dict = {}

    def expand(tup: tuple) -> dict:
        if normalized:
            return normalized_differential_terms(C, tup, reduced)
        return differential_terms(C, tup)

    diffs = {
        (s, t): _matrix_from_terms(C, spots[(s, t)], spots[(s + 1, t)], expand)
        for s in range(window.max_s + 1)
        for t in range(window.max_t + 1)
    }
    cx = CochainComplex(C, window, spots, diffs)
    if check:
        check_square_zero(cx)
    return cx


def check_square_zero(cx: CochainComplex):
    """Raise DifferentialNotSquareZero at the `first_square_failure` of cx."""
    bad = first_square_failure(cx)
    if bad is not None:
        raise DifferentialNotSquareZero(f"d.d != 0 first fails at (s,t)={bad}")


def first_square_failure(cx: CochainComplex) -> Optional[tuple]:
    """First (s, t) where d(s+1,t) . d(s,t) is nonzero, or None."""
    for t in range(cx.window.max_t + 1):
        for s in range(cx.window.max_s):
            outer = cx.differentials[(s + 1, t)]
            inner = cx.differentials[(s, t)]
            if not outer.compose(inner).is_zero():
                return (s, t)
    return None
