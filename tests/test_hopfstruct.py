import pytest
from dense_reference import dense_rank

from cohh.coalg import (
    DIVIDED_POWER,
    EXTERIOR,
    POLYNOMIAL,
    CoalgebraPresentation,
    Cogenerator,
    add_term,
    coproduct,
)
from cohh.exactfield import Field, InvalidInput, SparseMatrix
from cohh.hopfstruct import (
    AlgebraPresentation,
    indecomposables,
    primitives,
    reduced_coproduct,
)


def exterior_coalg(p, *degrees):
    return CoalgebraPresentation(
        Field(p),
        [Cogenerator(f"y{i + 1}" if len(degrees) > 1 else "y", EXTERIOR, d)
         for i, d in enumerate(degrees)],
    )


def poly_coalg(p, degree):
    return CoalgebraPresentation(Field(p), [Cogenerator("w", POLYNOMIAL, degree)])


def gamma_coalg(p, degree):
    return CoalgebraPresentation(
        Field(p), [Cogenerator("x", DIVIDED_POWER, degree, truncation=8)]
    )


def primitive_exponents(prims):
    return sorted(m for elems in prims.by_degree.values() for e in elems for m in e)


def test_polynomial_primitives_are_char_powers():
    C = poly_coalg(3, 2)
    prims = primitives(C, 30)
    assert primitive_exponents(prims) == [(1,), (3,), (9,)]
    C2 = poly_coalg(2, 2)
    assert primitive_exponents(primitives(C2, 30)) == [(1,), (2,), (4,), (8,)]
    C0 = poly_coalg(0, 2)
    assert primitive_exponents(primitives(C0, 30)) == [(1,)]


def test_polynomial_primitive_count_formula():
    import math

    for p in (2, 3, 5):
        for d in (2, 4):
            C = poly_coalg(p, d)
            count = sum(len(v) for v in primitives(C, 30).by_degree.values())
            assert count == math.floor(math.log(30 / d, p)) + 1


def test_exterior_and_divided_primitives():
    C = exterior_coalg(5, 3, 5)
    assert primitive_exponents(primitives(C, 20)) == [(0, 1), (1, 0)]
    G = gamma_coalg(3, 2)
    assert primitive_exponents(primitives(G, 16)) == [(1,)]


def test_primitives_satisfy_primitive_equation():
    """Re-verify each reported primitive against the raw coproduct."""
    for C in (poly_coalg(3, 2), exterior_coalg(5, 3, 5), gamma_coalg(2, 2)):
        prims = primitives(C, 18)
        for elems in prims.by_degree.values():
            for elem in elems:
                delta = coproduct(C, elem)
                for m, c in elem.items():
                    add_term(delta, (C.unit(), m), C.field.neg(c), C.field)
                    add_term(delta, (m, C.unit()), C.field.neg(c), C.field)
                assert delta == {}


def reduced_coproduct_rank(C, t):
    """Dense rank of the reduced coproduct on degree t, into the pairs (a, b)
    of positive-degree monomials with |a| + |b| = t."""
    pairs = {}
    for t1 in range(1, t):
        for a in C.basis_in_degree(t1):
            for b in C.basis_in_degree(t - t1):
                pairs[(a, b)] = len(pairs)
    basis = C.basis_in_degree(t)
    triples = [
        (pairs[pair], j, c)
        for j, m in enumerate(basis)
        for pair, c in C.coproduct_monomial(m).items()
        if pair in pairs
    ]
    return dense_rank(SparseMatrix.from_triples(C.field, len(pairs), len(basis), triples))


def oracle_presentations(p):
    yield poly_coalg(p, 2)
    yield gamma_coalg(p, 2)
    yield CoalgebraPresentation(
        Field(p), [Cogenerator("y", EXTERIOR, 3), Cogenerator("w", POLYNOMIAL, 2)]
    )
    yield exterior_coalg(p, 3, 5)
    if p == 2:
        yield exterior_coalg(p, 2)  # an even exterior cogenerator is legal only at p = 2


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_primitive_count_is_the_dense_kernel_dimension(p):
    max_t = 40
    for C in oracle_presentations(p):
        prims = primitives(C, max_t)
        assert sorted(prims.by_degree) == list(range(1, max_t + 1))
        for t, elems in prims.by_degree.items():
            cols = len(C.basis_in_degree(t))
            assert len(elems) == cols - reduced_coproduct_rank(C, t), (C.cogenerators, t)
            for elem in elems:
                ((m, c),) = elem.items()
                assert c == 1 and C.degree(m) == t and not reduced_coproduct(C, m)
    if p:  # w^(p^k) is primitive over F_p although its integer reduced coproduct is not
        reported = primitive_exponents(primitives(poly_coalg(p, 2), max_t))
        powers = [(p**k,) for k in range(1, 6) if 2 * p**k <= max_t]
        assert powers
        for m in powers:
            assert m in reported and reduced_coproduct(poly_coalg(0, 2), m)


def test_algebra_multiplication_signs():
    A = AlgebraPresentation(
        Field(0), [Cogenerator("y1", EXTERIOR, 3), Cogenerator("y2", EXTERIOR, 5)]
    )
    y1 = A.basis_in_degree(3)[0]
    y2 = A.basis_in_degree(5)[0]
    prod, sign = A.multiply(y1, y2)
    assert prod == (1, 1) and sign == 1
    prod, sign = A.multiply(y2, y1)
    assert prod == (1, 1) and sign == -1
    assert A.multiply(y1, y1) is None
    P = AlgebraPresentation(Field(3), [Cogenerator("w", POLYNOMIAL, 2)])
    w = P.basis_in_degree(2)[0]
    prod, sign = P.multiply(w, w)
    assert prod == (2,) and sign == 1


def test_indecomposables_closed_forms():
    for p in (0, 2, 3):
        P = AlgebraPresentation(Field(p), [Cogenerator("w", POLYNOMIAL, 2)])
        inde = indecomposables(P, 20)
        found = sorted(m for ms in inde.by_degree.values() for m in ms)
        assert found == [(1,)]
        L = AlgebraPresentation(
            Field(p), [Cogenerator("y1", EXTERIOR, 3), Cogenerator("y2", EXTERIOR, 5)]
        )
        inde = indecomposables(L, 20)
        found = sorted(m for ms in inde.by_degree.values() for m in ms)
        assert found == [(0, 1), (1, 0)]


def test_indecomposables_trivial_algebra():
    A = AlgebraPresentation(Field(3), [])
    inde = indecomposables(A, 5)
    assert all(not ms for ms in inde.by_degree.values())


def test_algebra_presentation_rejects_divided_power():
    with pytest.raises(InvalidInput):
        AlgebraPresentation(Field(3), [Cogenerator("x", DIVIDED_POWER, 2)])
