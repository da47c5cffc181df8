"""The cosimplicial cobar object of a coalgebra, truncated to a window.

Level s holds tensor powers with s+1 factors (coefficients in slot 0), each a
tuple of monomials.  Cofaces 0..s apply the coproduct to one slot; coface s+1
applies it to slot 0 and then cycles the first factor to the last with the
Koszul sign.  Codegeneracies apply the counit in an interior slot.  The
differential is the alternating sum of the cofaces, restricted to the
normalized basis (no unit factor in slots >= 1) when requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .coalg import CoalgebraPresentation, apply_coproduct_to_slot
from .errors import InvalidInput, InvariantFailure
from .exactfield import SparseMatrix, add_term

DEFAULT_MAX_S = 6
DEFAULT_MAX_T = 24


class WindowTooSmall(InvalidInput):
    """Bidegree window has a negative bound."""


class DifferentialNotSquareZero(InvariantFailure):
    """d composed with d is nonzero at some bigraded spot."""


@dataclass(frozen=True)
class BidegreeWindow:
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


def codegeneracy_terms(C: CoalgebraPresentation, i: int, s: int, tup: tuple) -> dict:
    """Image of one basis tuple (s+2 factors) under the i-th codegeneracy, 0 <= i <= s."""
    if not 0 <= i <= s:
        raise IndexError(f"codegeneracy index {i} outside [0, {s}]")
    if len(tup) != s + 2:
        raise ValueError("codegeneracy input must have s+2 factors")
    if any(tup[i + 1]):
        return {}
    return {tup[: i + 1] + tup[i + 2:]: 1}


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


@dataclass
class CochainComplex:
    """Bigraded complex with one sparse differential matrix per (s, t) spot."""

    presentation: CoalgebraPresentation
    window: BidegreeWindow
    normalized: bool
    spots: dict          # (s, t) -> basis tuples, for 0 <= s <= max_s + 1
    differentials: dict  # (s, t) -> SparseMatrix spot(s,t) -> spot(s+1,t)

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


@dataclass
class IdentityReport:
    """Outcome of the cosimplicial identity scan; failures are data, not errors."""

    passed: bool
    checked: int
    failure: Optional[dict] = None

    def describe(self) -> str:
        if self.passed:
            return f"pass ({self.checked} identities checked)"
        f = self.failure
        return (
            f"FAIL {f['family']} identity at (i,j)=({f['i']},{f['j']}), "
            f"s={f['s']}, t={f['t']}"
        )


def verify_cosimplicial_identities(
    C: CoalgebraPresentation, window: BidegreeWindow
) -> IdentityReport:
    """Check all coface/codegeneracy identities as matrix identities in the window."""
    cache: dict = {}
    bases: dict = {}  # each full tensor basis is enumerated once per scan

    def basis(s, t):
        if (s, t) not in bases:
            bases[(s, t)] = tensor_basis(C, s, t, normalized=False)
        return bases[(s, t)]

    def cf(i, s, t):
        key = ("d", i, s, t)
        if key not in cache:
            cache[key] = _matrix_from_terms(
                C, basis(s, t), basis(s + 1, t), lambda tup: coface_terms(C, i, s, tup)
            )
        return cache[key]

    def cd(i, s, t):
        key = ("s", i, s, t)
        if key not in cache:
            cache[key] = _matrix_from_terms(
                C, basis(s + 1, t), basis(s, t), lambda tup: codegeneracy_terms(C, i, s, tup)
            )
        return cache[key]

    checked = 0

    def fail(family, i, j, s, t):
        return IdentityReport(
            passed=False, checked=checked,
            failure={"family": family, "i": i, "j": j, "s": s, "t": t},
        )

    max_s, max_t = window.max_s, window.max_t
    # coface-coface: delta_j . delta_i = delta_i . delta_{j-1} for i < j
    for s in range(max_s):
        for i in range(s + 2):
            for j in range(i + 1, s + 3):
                for t in range(max_t + 1):
                    lhs = cf(j, s + 1, t).compose(cf(i, s, t))
                    rhs = cf(i, s + 1, t).compose(cf(j - 1, s, t))
                    checked += 1
                    if lhs != rhs:
                        return fail("coface-coface", i, j, s, t)
    # codegeneracy-codegeneracy: sigma_j . sigma_i = sigma_i . sigma_{j+1} for i <= j
    for s in range(max_s):
        for i in range(s + 2):
            for j in range(i, s + 1):
                for t in range(max_t + 1):
                    lhs = cd(j, s, t).compose(cd(i, s + 1, t))
                    rhs = cd(i, s, t).compose(cd(j + 1, s + 1, t))
                    checked += 1
                    if lhs != rhs:
                        return fail("codegeneracy-codegeneracy", i, j, s, t)
    # mixed: sigma_j . delta_i
    for s in range(max_s + 1):
        for i in range(s + 2):
            for j in range(s + 1):
                for t in range(max_t + 1):
                    lhs = cd(j, s, t).compose(cf(i, s, t))
                    if i == j or i == j + 1:
                        rhs = SparseMatrix.identity(C.field, len(basis(s, t)))
                    elif i < j:
                        rhs = cf(i, s - 1, t).compose(cd(j - 1, s - 1, t))
                    else:
                        rhs = cf(i - 1, s - 1, t).compose(cd(j, s - 1, t))
                    checked += 1
                    if lhs != rhs:
                        return fail("mixed", i, j, s, t)
    return IdentityReport(passed=True, checked=checked)
