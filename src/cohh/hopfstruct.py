"""Primitives of a coalgebra and indecomposables of a monomial algebra.

Both are filters on the monomial basis; neither needs elimination.

Primitives of a connected coalgebra are the kernel of the reduced coproduct
x -> coproduct(x) - 1(x)x - x(x)1 on the positive-degree part.  The reduced
coproduct of a basis monomial m has terms (a, b) with a + b = m, so distinct
monomials have disjoint supports and the kernel is spanned by the monomials
whose reduced coproduct vanishes in the field.

Indecomposables of an augmented monomial algebra are the cokernel of
multiplication on the augmentation ideal, spanned by the generators: the
monomials whose exponent sum is 1.  If m has two or more generator factors,
pick a generator g dividing m; then m = g * (m/g), and the product is nonzero
because exterior exponents are at most 1, so m is hit.  A generator is not a
product of two positive-degree monomials, since exponent sums add.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coalg import DIVIDED_POWER, CoalgebraPresentation
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


@dataclass
class MonomialSet:
    """Basis monomials (exponent tuples) per internal degree 1..max_t."""

    by_degree: dict

    def formatted(self, C: CoalgebraPresentation) -> dict:
        return {
            t: [C.format_monomial(m) for m in ms]
            for t, ms in sorted(self.by_degree.items())
            if ms
        }


def reduced_coproduct(C: CoalgebraPresentation, m: tuple) -> dict:
    """Coproduct of a positive-degree monomial minus its two unit terms."""
    return {
        (a, b): c
        for (a, b), c in C.coproduct_monomial(m).items()
        if any(a) and any(b)
    }


def _filter(C: CoalgebraPresentation, max_t: int, keep) -> MonomialSet:
    if max_t < 0:
        raise InvalidInput(f"max_t={max_t} is negative")
    return MonomialSet({
        t: [m for m in C.basis_in_degree(t) if keep(m)] for t in range(1, max_t + 1)
    })


def primitives(C: CoalgebraPresentation, max_t: int) -> MonomialSet:
    """Basis monomials with an empty reduced coproduct, in each degree t <= max_t.

    `coproduct_monomial` drops the coefficients that vanish mod p, which is
    how w^(p^k) becomes primitive over F_p."""
    return _filter(C, max_t, lambda m: not reduced_coproduct(C, m))


def indecomposables(A: AlgebraPresentation, max_t: int) -> MonomialSet:
    """The generators (exponent sum 1), in each degree t <= max_t."""
    return _filter(A, max_t, lambda m: sum(m) == 1)
