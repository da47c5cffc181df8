"""Primitives of a coalgebra and indecomposables of a monomial algebra.

Primitives of a connected coalgebra are the kernel of the reduced coproduct
x -> coproduct(x) - 1(x)x - x(x)1 on the positive-degree part; indecomposables
of an augmented monomial algebra are the cokernel of multiplication on the
augmentation ideal.  Neither needs elimination.  The reduced coproduct of a
basis monomial m has terms (a, b) with a + b = m, so distinct monomials have
disjoint supports and the kernel is spanned by the monomials whose reduced
coproduct vanishes in the field.  Dually, every product of basis monomials is
zero or plus or minus one basis monomial, so the cokernel is spanned by the
monomials no product hits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coalg import (
    EXTERIOR,
    POLYNOMIAL,
    CoalgebraPresentation,
    NotConnected,
    ParityViolation,
)
from .exactfield import Field, InvalidInput


class AlgebraPresentation:
    """Augmented monomial algebra on polynomial/exterior generators.

    Multiplication adds exponent vectors with the Koszul sign; exterior squares
    vanish.  The augmentation kills every positive-degree monomial.
    """

    def __init__(self, field: Field, generators):
        self.field = field
        self.generators = tuple(generators)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise InvalidInput(f"duplicate generator names in {names}")
        for gen in self.generators:
            if gen.kind not in (POLYNOMIAL, EXTERIOR):
                raise InvalidInput(
                    f"algebra generators must be polynomial or exterior, got {gen.kind}"
                )
            if gen.degree < 1:
                raise NotConnected(f"generator {gen.name} has degree {gen.degree}")
            if field.characteristic != 2:
                odd = gen.degree % 2 == 1
                if gen.kind == EXTERIOR and not odd:
                    raise ParityViolation(f"exterior generator {gen.name} must be odd")
                if gen.kind == POLYNOMIAL and odd:
                    raise ParityViolation(f"polynomial generator {gen.name} must be even")
        # reuse the coalgebra enumerator for the monomial basis
        self._shadow = CoalgebraPresentation(field, self.generators)

    def basis_in_degree(self, t: int) -> list:
        return self._shadow.basis_in_degree(t)

    def format_monomial(self, m: tuple) -> str:
        return self._shadow.format_monomial(m)

    def multiply(self, m1: tuple, m2: tuple):
        """Product of basis monomials: (monomial, sign) or None when it vanishes."""
        gens = self.generators
        for g, e1, e2 in zip(gens, m1, m2):
            if g.kind == EXTERIOR and e1 + e2 > 1:
                return None
        crossings = 0
        for j in range(len(gens)):
            dj = gens[j].degree * m2[j]
            if dj % 2 == 0:
                continue
            for i in range(j + 1, len(gens)):
                crossings += gens[i].degree * m1[i]
        product = tuple(a + b for a, b in zip(m1, m2))
        sign = self.field.one if crossings % 2 == 0 else self.field.neg(self.field.one)
        return product, sign


@dataclass
class PrimitiveSet:
    """Primitive basis monomials per internal degree, each as {monomial: 1}.

    They span the primitives, as distinct monomials have disjoint
    reduced-coproduct supports."""

    by_degree: dict

    def formatted(self, C: CoalgebraPresentation) -> dict:
        return {
            t: [C.format_monomial(m) for elem in elems for m in elem]
            for t, elems in sorted(self.by_degree.items())
            if elems
        }


@dataclass
class IndecomposableSet:
    """Basis monomials representing the multiplication cokernel per degree."""

    by_degree: dict

    def formatted(self, A: AlgebraPresentation) -> dict:
        return {
            t: [A.format_monomial(m) for m in ms]
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


def primitives(C: CoalgebraPresentation, max_t: int) -> PrimitiveSet:
    """Basis monomials with an empty reduced coproduct, in each degree t <= max_t.

    The terms (a, b) of the reduced coproduct of m satisfy a + b = m, so no
    combination of nonzero images of distinct monomials cancels, and these
    monomials span the kernel.  `coproduct_monomial` drops the coefficients
    that vanish mod p, which is how w^(p^k) becomes primitive over F_p."""
    if max_t < 0:
        raise InvalidInput(f"max_t={max_t} is negative")
    return PrimitiveSet({
        t: [{m: 1} for m in C.basis_in_degree(t) if not reduced_coproduct(C, m)]
        for t in range(1, max_t + 1)
    })


def indecomposables(A: AlgebraPresentation, max_t: int) -> IndecomposableSet:
    """Basis monomials spanning coker(multiplication on the augmentation ideal)."""
    if max_t < 0:
        raise InvalidInput(f"max_t={max_t} is negative")
    by_degree: dict = {}
    for t in range(1, max_t + 1):
        hit = set()
        for t1 in range(1, t):
            for m1 in A.basis_in_degree(t1):
                for m2 in A.basis_in_degree(t - t1):
                    res = A.multiply(m1, m2)
                    if res is not None:
                        hit.add(res[0])
        by_degree[t] = [m for m in A.basis_in_degree(t) if m not in hit]
    return IndecomposableSet(by_degree)
