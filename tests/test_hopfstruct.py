import random

import pytest
from dense_reference import dense_rank, from_triples

from cohh.coalg import (
    DIVIDED_POWER,
    EXTERIOR,
    POLYNOMIAL,
    CoalgebraPresentation,
    Cogenerator,
    Field,
    reduced_sums,
)
from cohh.coalg import NotConnected, ParityViolation
from cohh.errors import InvalidInput
from cohh.hopfstruct import AlgebraPresentation, indecomposables, primitives


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
    return sorted(m for ms in prims.by_degree.values() for m in ms)


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
    # a cogenerator above max_t contributes nothing
    assert primitive_exponents(primitives(C, 4)) == [(1, 0)]
    assert primitives(G, 1).by_degree == {}


def test_primitives_satisfy_primitive_equation():
    """Re-verify each reported primitive against the raw coproduct."""
    for C in (poly_coalg(3, 2), exterior_coalg(5, 3, 5), gamma_coalg(2, 2)):
        prims = primitives(C, 18)
        for ms in prims.by_degree.values():
            for m in ms:
                delta = dict(C.coproduct_monomial(m))
                for key in ((C.unit(), m), (m, C.unit())):
                    delta[key] = delta.get(key, 0) - 1
                assert reduced_sums(delta, C.field.characteristic) == {}


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
    return dense_rank(from_triples(C.field, len(pairs), len(basis), triples))


def oracle_presentations(p):
    yield poly_coalg(p, 2)
    yield gamma_coalg(p, 2)
    yield CoalgebraPresentation(Field(p), [Cogenerator("x", DIVIDED_POWER, 4, truncation=3)])
    if p == 3:  # truncation 2 stops below w^3; truncation 3 keeps it
        for n in (2, 3):
            yield CoalgebraPresentation(Field(p), [Cogenerator("w", POLYNOMIAL, 2, n)])
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
        prims = primitives(C, max_t).by_degree
        assert all(prims.values()) and set(prims) <= set(range(1, max_t + 1))
        for t in range(1, max_t + 1):
            ms = prims.get(t, [])
            cols = len(C.basis_in_degree(t))
            assert len(ms) == cols - reduced_coproduct_rank(C, t), (C.cogenerators, t)
            assert ms == sorted(ms)
            for m in ms:
                assert C.degree(m) == t and not C.reduced_coproduct(m)
    if p:  # w^(p^k) is primitive over F_p although its integer reduced coproduct is not
        reported = primitive_exponents(primitives(poly_coalg(p, 2), max_t))
        powers = [(p**k,) for k in range(1, 6) if 2 * p**k <= max_t]
        assert powers
        for m in powers:
            assert m in reported and poly_coalg(0, 2).reduced_coproduct(m)


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
    assert indecomposables(A, 5).by_degree == {}


def test_algebra_presentation_rejects_divided_power():
    with pytest.raises(InvalidInput):
        AlgebraPresentation(Field(3), [Cogenerator("x", DIVIDED_POWER, 2)])
    with pytest.raises(ParityViolation):
        AlgebraPresentation(Field(3), [Cogenerator("y", EXTERIOR, 2)])
    with pytest.raises(NotConnected):
        AlgebraPresentation(Field(3), [Cogenerator("w", POLYNOMIAL, 0)])
    with pytest.raises(InvalidInput):
        AlgebraPresentation(
            Field(3), [Cogenerator("w", POLYNOMIAL, 2), Cogenerator("w", POLYNOMIAL, 4)]
        )


def product_scan_indecomposables(A, max_t):
    """All-pairs product scan: the basis monomials of each nonempty degree
    that no product of two positive-degree basis monomials hits.  A product adds
    exponents; it vanishes when an exterior square appears or a truncation
    is exceeded.  Signs do not matter, since only the hit monomials are kept."""
    gens = A.cogenerators

    def product(m1, m2):
        m = tuple(a + b for a, b in zip(m1, m2))
        for g, e in zip(gens, m):
            if (g.kind == EXTERIOR and e > 1) or (
                g.truncation is not None and e > g.truncation
            ):
                return None
        return m

    out = {}
    for t in range(1, max_t + 1):
        hit = set()
        for t1 in range(1, t):
            for m1 in A.basis_in_degree(t1):
                for m2 in A.basis_in_degree(t - t1):
                    m = product(m1, m2)
                    if m is not None:
                        hit.add(m)
        unhit = [m for m in A.basis_in_degree(t) if m not in hit]
        if unhit:
            out[t] = unhit
    return out


def random_algebra(rng, p):
    gens = []
    for i in range(rng.randrange(0, 5)):
        kind = rng.choice((POLYNOMIAL, EXTERIOR))
        if p == 2:
            degree = rng.randrange(1, 9)
        else:
            degree = rng.randrange(1, 9, 2) if kind == EXTERIOR else rng.randrange(2, 9, 2)
        truncation = rng.choice((None, None, 1, 2, 3)) if kind == POLYNOMIAL else None
        gens.append(Cogenerator(f"g{i}", kind, degree, truncation))
    return AlgebraPresentation(Field(p), gens)


def test_indecomposables_equal_the_product_scan():
    rng = random.Random(8)
    truncated = 0
    for case in range(240):
        p = (0, 2, 3, 5)[case % 4]
        A = random_algebra(rng, p)
        max_t = rng.randrange(0, 31)
        got = indecomposables(A, max_t).by_degree
        assert got == product_scan_indecomposables(A, max_t), (A.cogenerators, p, max_t)
        truncated += any(g.truncation for g in A.cogenerators)
    assert truncated >= 50


def test_structure_commands_and_euler_check_enumerate_no_basis(monkeypatch):
    """Primitives, indecomposables and the Euler check are closed forms in the
    cogenerators: none of them enumerates a basis or computes a coproduct."""
    from cohh.coalg import BidegreeWindow
    from cohh.cohomology import kunneth_table, presentation_euler_check

    gens = [Cogenerator("y", EXTERIOR, 3), Cogenerator("w", POLYNOMIAL, 2, truncation=4)]
    C = CoalgebraPresentation(Field(3), gens)
    window = BidegreeWindow(3, 12)
    table = kunneth_table(C, window)

    def forbidden(*args):
        raise AssertionError("the basis was enumerated")

    monkeypatch.setattr(CoalgebraPresentation, "basis_in_degree", forbidden)
    monkeypatch.setattr(CoalgebraPresentation, "coproduct_monomial", forbidden)
    assert primitive_exponents(primitives(C, 40)) == [(0, 1), (0, 3), (1, 0)]
    assert indecomposables(AlgebraPresentation(Field(3), gens), 40).by_degree == {
        2: [(0, 1)], 3: [(1, 0)]
    }
    assert presentation_euler_check(C, window, table).passed
