"""Primitives of a coalgebra and indecomposables of a monomial algebra.

Both are closed forms in the generators; no basis is enumerated and no
coproduct is computed, so the cost is O(generators * log max_t).

Primitives of a connected coalgebra are the kernel of the reduced coproduct
x -> coproduct(x) - 1(x)x - x(x)1 on the positive-degree part.  The reduced
coproduct of a basis monomial m has terms (a, b) with a + b = m, so distinct
monomials have disjoint supports and the kernel is spanned by the monomials
whose reduced coproduct vanishes in the field.  These are the single powers
g^e with e = 1, or with g polynomial, p > 0 and e a power of p:

- A monomial with two or more nonzero exponents, e_i on g_i among them, has
  the term g_i^(e_i) (x) rest with coefficient +-1: each cogenerator splits
  with coefficient 1 at its full or zero exponent, times a Koszul sign.
  Both sides have positive degree, so the term survives.
- Exterior and divided-power powers split with unit coefficients, so only
  the cogenerator itself (e = 1) is primitive.
- A polynomial power w^e has the reduced terms C(e, k) w^k (x) w^(e-k) for
  0 < k < e.  Over Q they do not vanish for e >= 2.  Over F_p they all
  vanish iff e is a power of p.  For e = p^j, every 0 < k < e has a nonzero
  base-p digit where e has a zero one, so Lucas's theorem gives
  C(e, k) = 0 mod p.  Otherwise let p^v be the largest power of p dividing
  e; then 0 < p^v < e, and Lucas's theorem gives C(e, p^v) = e_v mod p, the
  base-p digit of e at p^v, which is nonzero.  A truncation n keeps the
  powers e <= n, whose coproducts it does not cut.

Indecomposables of an augmented monomial algebra are the cokernel of
multiplication on the augmentation ideal, spanned by the generators: the
monomials whose exponent sum is 1.  If m has two or more generator factors,
pick a generator g dividing m; then m = g * (m/g), and the product is nonzero
because exterior exponents are at most 1, so m is hit.  A generator is not a
product of two positive-degree monomials, since exponent sums add.
"""

from __future__ import annotations

from typing import NamedTuple

from .coalg import DIVIDED_POWER, POLYNOMIAL, CoalgebraPresentation
from .errors import InvalidInput


class AlgebraPresentation(CoalgebraPresentation):
    """Augmented monomial algebra on polynomial/exterior generators.

    Multiplication adds exponent vectors with the Koszul sign; exterior squares
    vanish.  The augmentation kills every positive-degree monomial.  The basis
    and its validation are the coalgebra's; divided powers are refused.
    """

    def __init__(self, field, generators):
        super().__init__(field, generators)
        for gen in self.cogenerators:
            if gen.kind == DIVIDED_POWER:
                raise InvalidInput(
                    f"algebra generators must be polynomial or exterior, got {gen.kind}"
                )


def primitive_exponents(kind: str, degree: int, p: int, max_t: int, truncation=None) -> list:
    """The exponents e >= 1, ascending, with g^e primitive and e * degree <= max_t.

    g has the given kind and degree over characteristic p, and e is at most
    its truncation (None: no cap).  Either e = 1, or g is polynomial, p > 0
    and e is a power of p; the module docstring proves the rule."""
    top = max_t // degree
    if truncation is not None:
        top = min(top, truncation)
    if kind != POLYNOMIAL or not p:
        return [1] if top >= 1 else []
    out = []
    e = 1
    while e <= top:
        out.append(e)
        e *= p
    return out


class MonomialSet(NamedTuple):
    """Monomials (exponent tuples) per nonempty internal degree 1..max_t, each
    list in lexicographic exponent order."""

    by_degree: dict


def _powers(C: CoalgebraPresentation, max_t: int, exponents) -> MonomialSet:
    """The single powers g^e for each cogenerator g and e in exponents(g)."""
    if max_t < 0:
        raise InvalidInput(f"max_t={max_t} is negative")
    unit = C.unit()
    by_degree: dict = {}
    for i, cog in enumerate(C.cogenerators):
        for e in exponents(cog):
            m = unit[:i] + (e,) + unit[i + 1:]
            by_degree.setdefault(e * cog.degree, []).append(m)
    return MonomialSet({t: sorted(ms) for t, ms in sorted(by_degree.items())})


def primitives(C: CoalgebraPresentation, max_t: int) -> MonomialSet:
    """The primitive basis monomials, in each degree t <= max_t."""
    p = C.field.characteristic
    return _powers(
        C, max_t, lambda g: primitive_exponents(g.kind, g.degree, p, max_t, g.truncation)
    )


def indecomposables(A: AlgebraPresentation, max_t: int) -> MonomialSet:
    """The generators (exponent sum 1), in each degree t <= max_t."""
    return _powers(A, max_t, lambda g: [1] if g.degree <= max_t else [])
