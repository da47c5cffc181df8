"""The cosimplicial cobar object of a coalgebra, truncated to a window.

Level s holds tensor powers with s+1 factors (coefficients in slot 0), each a
tuple of monomials.  Cofaces 0..s apply the coproduct to one slot; coface s+1
applies it to slot 0 and then cycles the first factor to the last with the
Koszul sign.  The differential is the alternating sum of the cofaces,
restricted to the normalized basis (no unit factor in slots >= 1) when
requested.  The codegeneracies, which apply the counit in an interior slot,
serve only the cosimplicial identity scan, so they live with it in `selftest`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .coalg import CoalgebraPresentation, apply_coproduct_to_slot
from .errors import InvalidInput, InvariantFailure
from .exactfield import SparseMatrix, add_term

DEFAULT_MAX_S = 6
DEFAULT_MAX_T = 24


class WindowTooSmall(InvalidInput):
    """Bidegree window has a negative bound."""


class DifferentialNotSquareZero(InvariantFailure):
    """d composed with d is nonzero at some bigraded spot."""


class BidegreeWindow(NamedTuple):
    """Finite truncation: cosimplicial degrees s <= max_s, internal degrees t <= max_t."""

    max_s: int = DEFAULT_MAX_S
    max_t: int = DEFAULT_MAX_T


def tensor_basis(C: CoalgebraPresentation, s: int, t: int, normalized: bool) -> list:
    """Ordered basis of the (s+1)-fold tensor power in internal degree t.

    Normalized: slots 1..s are restricted to positive-degree monomials.
    Slots are filled left to right, degrees ascending, monomials in basis order.
    """
    if s < 0 or t < 0:
        return []
    out: list = []
    acc: list = [None] * (s + 1)
    # only the degrees where C has basis elements, ascending
    degrees = [(d, basis) for d in range(t + 1) if (basis := C.basis_in_degree(d))]

    def rec(slot: int, remaining: int):
        if slot == s + 1:
            if remaining == 0:
                out.append(tuple(acc))
            return
        lo = 1 if (normalized and slot >= 1) else 0
        for td, basis in degrees:
            if td > remaining:
                break
            if td < lo:
                continue
            for m in basis:
                acc[slot] = m
                rec(slot + 1, remaining - td)
        acc[slot] = None

    rec(0, t)
    return out


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
    """Image of one basis tuple (s+1 factors) under the i-th coface, 0 <= i <= s+1."""
    if not 0 <= i <= s + 1:
        raise IndexError(f"coface index {i} outside [0, {s + 1}]")
    start = {tup: 1}
    if i <= s:
        # i = 0 is the right coaction on the coefficient slot, which for C
        # as its own coefficients is again the coproduct.
        return apply_coproduct_to_slot(C, start, i)
    expanded = apply_coproduct_to_slot(C, start, 0)  # left coaction
    return twist_first_to_last(C, expanded)


def differential_terms(C: CoalgebraPresentation, tup: tuple) -> dict:
    """Alternating sum of all cofaces on one tuple, before any normalization."""
    s = len(tup) - 1
    fld = C.field
    out: dict = {}
    for i in range(s + 2):
        for key, c in coface_terms(C, i, s, tup).items():
            add_term(out, key, -c if i % 2 else c, fld)
    return out


def _matrix_from_terms(C, source_basis, target_basis, expand, project=False) -> SparseMatrix:
    index = {tup: r for r, tup in enumerate(target_basis)}
    triples = []
    for j, tup in enumerate(source_basis):
        for key, coeff in expand(tup).items():
            r = index.get(key)
            if r is None:
                if project:
                    continue  # normalization projection drops unit-bearing tuples
                raise KeyError(f"image term {key} missing from the target basis")
            triples.append((r, j, coeff))
    return SparseMatrix.from_triples(C.field, len(target_basis), len(source_basis), triples)


class CochainComplex:
    """Bigraded complex with one sparse differential matrix per (s, t) spot."""

    __slots__ = ("presentation", "window", "normalized", "spots", "differentials")

    def __init__(
        self,
        presentation: CoalgebraPresentation,
        window: BidegreeWindow,
        normalized: bool,
        spots: dict,          # (s, t) -> basis tuples, for 0 <= s <= max_s + 1
        differentials: dict,  # (s, t) -> SparseMatrix spot(s,t) -> spot(s+1,t)
    ):
        self.presentation = presentation
        self.window = window
        self.normalized = normalized
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

    With check=True every composable pair of differentials is verified to
    compose to zero; a failure raises DifferentialNotSquareZero.
    """
    if window.max_s < 0 or window.max_t < 0:
        raise WindowTooSmall(f"window {window} has a negative bound")
    from .coalg import NotConnected

    if any(c.degree < 1 for c in C.cogenerators):
        raise NotConnected("presentation has a cogenerator below degree 1")

    spots = {
        (s, t): tensor_basis(C, s, t, normalized)
        for s in range(window.max_s + 2)
        for t in range(window.max_t + 1)
    }
    diffs = {}
    for s in range(window.max_s + 1):
        for t in range(window.max_t + 1):
            diffs[(s, t)] = _matrix_from_terms(
                C,
                spots[(s, t)],
                spots[(s + 1, t)],
                lambda tup: differential_terms(C, tup),
                project=normalized,
            )
    cx = CochainComplex(C, window, normalized, spots, diffs)
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
