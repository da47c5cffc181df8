"""Primitives, indecomposables, the cotensor equalizer, and the box-primitive test.

Primitives of a connected coalgebra are the kernel of the reduced coproduct
x -> coproduct(x) - 1(x)x - x(x)1 on the positive-degree part; indecomposables
of an augmented monomial algebra are the cokernel of multiplication on the
augmentation ideal.  The cotensor of two comodules is the equalizer of the two
coaction-push maps inside the plain tensor product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .coalg import (
    EXTERIOR,
    POLYNOMIAL,
    CoalgebraPresentation,
    Monomial,
    NotConnected,
    ParityViolation,
    add_term,
)
from .exactfield import (
    Field,
    InvalidInput,
    SparseMatrix,
    echelonize,
    rank,
    reduce_against,
    row_reduce,
)


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

    def degree(self, m: Monomial) -> int:
        return self._shadow.degree(m)

    def format_monomial(self, m: Monomial) -> str:
        return self._shadow.format_monomial(m)

    def multiply(self, m1: Monomial, m2: Monomial):
        """Product of basis monomials: (monomial, sign) or None when it vanishes."""
        gens = self.generators
        for g, e1, e2 in zip(gens, m1.exponents, m2.exponents):
            if g.kind == EXTERIOR and e1 + e2 > 1:
                return None
        crossings = 0
        for j in range(len(gens)):
            dj = gens[j].degree * m2.exponents[j]
            if dj % 2 == 0:
                continue
            for i in range(j + 1, len(gens)):
                crossings += gens[i].degree * m1.exponents[i]
        product = Monomial(tuple(a + b for a, b in zip(m1.exponents, m2.exponents)))
        sign = self.field.one if crossings % 2 == 0 else self.field.neg(self.field.one)
        return product, sign


@dataclass
class PrimitiveSet:
    """Echelonized primitive elements per internal degree (element = {Monomial: c})."""

    by_degree: dict

    def formatted(self, C: CoalgebraPresentation) -> dict:
        out = {}
        for t, elems in sorted(self.by_degree.items()):
            if elems:
                out[t] = [format_element(C, e) for e in elems]
        return out


@dataclass
class IndecomposableSet:
    """Monomial representatives of the multiplication cokernel per degree."""

    by_degree: dict

    def formatted(self, A: AlgebraPresentation) -> dict:
        return {
            t: [A.format_monomial(m) for m in ms]
            for t, ms in sorted(self.by_degree.items())
            if ms
        }


def format_element(C, element: dict) -> str:
    parts = []
    for m in sorted(element, key=lambda m: m.exponents):
        c = element[m]
        mono = C.format_monomial(m)
        parts.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts) if parts else "0"


def reduced_coproduct(C: CoalgebraPresentation, m: Monomial) -> dict:
    """Coproduct of a positive-degree monomial minus its two unit terms."""
    return {
        (a, b): c
        for (a, b), c in C.coproduct_monomial(m).items()
        if not a.is_unit() and not b.is_unit()
    }


def primitives(C: CoalgebraPresentation, max_t: int) -> PrimitiveSet:
    """Kernel of the reduced coproduct in every degree t <= max_t."""
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
    """Monomials spanning coker(multiplication on the augmentation ideal)."""
    fld = A.field
    by_degree: dict = {}
    for t in range(1, max_t + 1):
        basis = A.basis_in_degree(t)
        index = {m: i for i, m in enumerate(basis)}
        products = []
        for t1 in range(1, t):
            for m1 in A.basis_in_degree(t1):
                for m2 in A.basis_in_degree(t - t1):
                    res = A.multiply(m1, m2)
                    if res is None:
                        continue
                    prod, sign = res
                    vec = [fld.zero] * len(basis)
                    vec[index[prod]] = sign
                    products.append(vec)
        _, pivots, _ = echelonize(products, fld)
        pivot_set = set(pivots)
        by_degree[t] = [m for i, m in enumerate(basis) if i not in pivot_set]
    return IndecomposableSet(by_degree)


# -- comodules and the cotensor equalizer ------------------------------------


@dataclass
class Comodule:
    """Degree-indexed basis with explicit left and right coaction expansions.

    left_coaction(label) -> {(c_monomial, label): coeff}   (psi: N -> C x N)
    right_coaction(label) -> {(label, c_monomial): coeff}  (gamma: M -> M x C)
    """

    basis: Callable
    left_coaction: Callable
    right_coaction: Callable


def regular_comodule(C: CoalgebraPresentation) -> Comodule:
    """C as a bicomodule over itself; both coactions are the coproduct."""

    def left(m):
        return dict(C.coproduct_monomial(m))

    def right(m):
        return dict(C.coproduct_monomial(m))

    return Comodule(basis=C.basis_in_degree, left_coaction=left, right_coaction=right)


def trivial_comodule(C: CoalgebraPresentation) -> Comodule:
    """The ground field as a C-comodule via the coaugmentation."""
    unit = C.unit()

    def basis(t):
        return [unit] if t == 0 else []

    def left(m):
        return {(unit, unit): C.field.one}

    def right(m):
        return {(unit, unit): C.field.one}

    return Comodule(basis=basis, left_coaction=left, right_coaction=right)


def cotensor(C: CoalgebraPresentation, M: Comodule, N: Comodule, max_t: int) -> dict:
    """Per-degree dimension of eq(gamma x Id, Id x psi) inside M x N."""
    fld = C.field
    dims = {}
    for t in range(max_t + 1):
        source = []
        for a in range(t + 1):
            for m in M.basis(a):
                for n in N.basis(t - a):
                    source.append((m, a, n, t - a))
        target_index: dict = {}
        triples = []
        for j, (m, a, n, b) in enumerate(source):
            image: dict = {}
            for (m2, c), coeff in M.right_coaction(m).items():
                add_term(image, (m2, c, n), coeff, fld)
            for (c, n2), coeff in N.left_coaction(n).items():
                add_term(image, (m, c, n2), fld.neg(coeff), fld)
            for key, coeff in image.items():
                if key not in target_index:
                    target_index[key] = len(target_index)
                triples.append((target_index[key], j, coeff))
        mat = SparseMatrix.from_triples(fld, len(target_index), len(source), triples)
        dims[t] = len(source) - rank(mat)
    return dims


# -- box-primitive criterion ---------------------------------------------------


def box_primitive_test(
    C: CoalgebraPresentation,
    D: CoalgebraPresentation,
    element: dict,
    via: str = "criterion",
) -> bool:
    """Is an element of C x D primitive for the box-coalgebra structure over C?

    via="criterion": the D-component grouped at each C-monomial must lie in the
    primitives of D.  via="direct": evaluate the reduced coproduct on the D
    factor and test for zero.  Terms with a unit D-part vanish in the cokernel
    of the coaugmentation and are ignored.
    """
    fld = C.field
    if via == "direct":
        image: dict = {}
        for (c, d), coeff in element.items():
            if d.is_unit():
                continue
            for (d1, d2), k in reduced_coproduct(D, d).items():
                add_term(image, (c, d1, d2), fld.mul(coeff, k), fld)
        return not image
    if via != "criterion":
        raise ValueError(f"unknown mode {via!r}")
    grouped: dict = {}
    for (c, d), coeff in element.items():
        if d.is_unit():
            continue
        grouped.setdefault((c, D.degree(d)), {})
        add_term(grouped[(c, D.degree(d))], d, coeff, fld)
    prims = primitives(D, max((t for _, t in grouped), default=0))
    for (_, t), comp in grouped.items():
        if not comp:
            continue
        basis = D.basis_in_degree(t)
        span = [
            [elem.get(m, fld.zero) for m in basis] for elem in prims.by_degree.get(t, [])
        ]
        _, pivots, rows = echelonize(span, fld)
        vec = [comp.get(m, fld.zero) for m in basis]
        residue = reduce_against(vec, rows, pivots, fld)
        if any(not fld.is_zero(x) for x in residue):
            return False
    return True
