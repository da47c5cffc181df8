"""Primitives of a coalgebra and indecomposables of a monomial algebra.

Primitives of a connected coalgebra are the kernel of the reduced coproduct
x -> coproduct(x) - 1(x)x - x(x)1 on the positive-degree part; indecomposables
of an augmented monomial algebra are the cokernel of multiplication on the
augmentation ideal.  Every product of basis monomials is zero or plus or minus
one basis monomial, so that cokernel is spanned by the monomials no product
hits.
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
from .exactfield import Field, InvalidInput, SparseMatrix, row_reduce


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
    """Echelonized primitive elements per internal degree (element = {monomial: c})."""

    by_degree: dict

    def formatted(self, C: CoalgebraPresentation) -> dict:
        out = {}
        for t, elems in sorted(self.by_degree.items()):
            if elems:
                out[t] = [format_element(C, e) for e in elems]
        return out


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


def format_element(C, element: dict) -> str:
    parts = []
    for m in sorted(element):
        c = element[m]
        mono = C.format_monomial(m)
        parts.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts) if parts else "0"


def reduced_coproduct(C: CoalgebraPresentation, m: tuple) -> dict:
    """Coproduct of a positive-degree monomial minus its two unit terms."""
    return {
        (a, b): c
        for (a, b), c in C.coproduct_monomial(m).items()
        if any(a) and any(b)
    }


def primitives(C: CoalgebraPresentation, max_t: int) -> PrimitiveSet:
    """Kernel of the reduced coproduct in every degree t <= max_t."""
    if max_t < 0:
        raise InvalidInput(f"max_t={max_t} is negative")
    fld = C.field
    by_degree: dict = {}
    for t in range(1, max_t + 1):
        basis = C.basis_in_degree(t)
        pair_index = {}
        for t1 in range(1, t):
            for a in C.basis_in_degree(t1):
                for b in C.basis_in_degree(t - t1):
                    pair_index[(a, b)] = len(pair_index)
        triples = []
        for j, m in enumerate(basis):
            for pair, c in reduced_coproduct(C, m).items():
                triples.append((pair_index[pair], j, c))
        mat = SparseMatrix.from_triples(fld, len(pair_index), len(basis), triples)
        elems = []
        for vec in row_reduce(mat).kernel:
            elems.append(
                {m: c for m, c in zip(basis, vec) if not fld.is_zero(c)}
            )
        by_degree[t] = elems
    return PrimitiveSet(by_degree)


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
