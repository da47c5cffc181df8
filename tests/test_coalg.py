import random
import time

import pytest

from cohh.coalg import (
    DIVIDED_POWER,
    EXTERIOR,
    POLYNOMIAL,
    CoalgebraPresentation,
    Cogenerator,
    CompositeCharacteristic,
    E2Generator,
    E2Presentation,
    Field,
    NotConnected,
    ParityViolation,
    _is_prime,
    reduced_sums,
)
from cohh.errors import InvalidInput
from cohh.selftest import (
    apply_coproduct_to_slot,
    coassociativity_ok,
    cocommutativity_ok,
    counitality_ok,
)


def exterior(p, *degrees):
    return CoalgebraPresentation(
        Field(p),
        [Cogenerator(f"y{i + 1}" if len(degrees) > 1 else "y", EXTERIOR, d)
         for i, d in enumerate(degrees)],
    )


def poly(p, degree):
    return CoalgebraPresentation(Field(p), [Cogenerator("w", POLYNOMIAL, degree)])


def gamma(p, degree, trunc=None):
    return CoalgebraPresentation(
        Field(p), [Cogenerator("x", DIVIDED_POWER, degree, truncation=trunc)]
    )


def test_validation_errors():
    with pytest.raises(ParityViolation):
        exterior(3, 4)
    with pytest.raises(ParityViolation):
        poly(3, 3)
    with pytest.raises(ParityViolation):
        gamma(5, 3)
    with pytest.raises(NotConnected):
        exterior(3, 0)
    with pytest.raises(InvalidInput):
        CoalgebraPresentation(
            Field(3), [Cogenerator("y", EXTERIOR, 3), Cogenerator("y", EXTERIOR, 5)]
        )
    # characteristic 2 waives parity
    CoalgebraPresentation(Field(2), [Cogenerator("w", POLYNOMIAL, 3)])


def test_monomial_construction():
    """Monomials are exponent tuples; `coproduct_monomial` refuses malformed ones."""
    C = exterior(3, 3, 5)
    assert C.degree((1, 0)) == 3
    assert C.degree((1, 1)) == 8
    with pytest.raises(ValueError):
        C.coproduct_monomial((1,))
    with pytest.raises(ValueError):
        C.coproduct_monomial((2, 0))
    with pytest.raises(ValueError):
        C.coproduct_monomial((-1, 0))
    G = gamma(3, 2, trunc=4)
    assert len(G.coproduct_monomial((4,))) == 5
    with pytest.raises(ValueError):
        G.coproduct_monomial((5,))


def test_basis_in_degree_examples():
    L = exterior(3, 3)
    assert L.basis_in_degree(3) == [(1,)]
    assert L.basis_in_degree(0) == [L.unit()]
    assert L.basis_in_degree(1) == []
    P = poly(5, 2)
    assert P.basis_in_degree(6) == [(3,)]


def series_dims(cogens, max_t):
    """Generating-function oracle: product of per-cogenerator series."""
    coeffs = [1] + [0] * max_t
    for cog in cogens:
        if cog.kind == EXTERIOR:
            factor = [1 if t in (0, cog.degree) else 0 for t in range(max_t + 1)]
        elif cog.kind == POLYNOMIAL:
            factor = [1 if t % cog.degree == 0 else 0 for t in range(max_t + 1)]
        else:
            cap = cog.truncation if cog.truncation is not None else max_t
            factor = [
                1 if t % cog.degree == 0 and t // cog.degree <= cap else 0
                for t in range(max_t + 1)
            ]
        coeffs = [
            sum(coeffs[i] * factor[t - i] for i in range(t + 1))
            for t in range(max_t + 1)
        ]
    return coeffs


def test_basis_dims_match_generating_function():
    presentations = [
        exterior(0, 3),
        exterior(3, 3, 5),
        poly(2, 2),
        poly(5, 4),
        gamma(3, 2, trunc=8),
        CoalgebraPresentation(
            Field(5),
            [Cogenerator("y", EXTERIOR, 3), Cogenerator("w", POLYNOMIAL, 2),
             Cogenerator("x", DIVIDED_POWER, 4, truncation=3)],
        ),
    ]
    for C in presentations:
        dims = series_dims(C.cogenerators, 24)
        for t in range(25):
            assert len(C.basis_in_degree(t)) == dims[t], (C.cogenerators, t)


def test_basis_order_is_deterministic_lex():
    C = CoalgebraPresentation(
        Field(5), [Cogenerator("a", POLYNOMIAL, 2), Cogenerator("b", POLYNOMIAL, 2)]
    )
    assert C.basis_in_degree(4) == [(0, 2), (1, 1), (2, 0)]


def test_coproduct_unit_and_counit():
    C = exterior(3, 3)
    one = C.unit()
    y = (1,)
    assert one == (0,)
    assert C.coproduct_monomial(one) == {(one, one): 1}
    # the counit terms 1(x)y and y(x)1, each with coefficient 1
    assert C.coproduct_monomial(y) == {(one, y): 1, (y, one): 1}


def test_coproduct_divided_power():
    G = gamma(5, 2)
    g = lambda j: (j,)
    assert G.coproduct_monomial(g(2)) == {
        (g(0), g(2)): 1,
        (g(1), g(1)): 1,
        (g(2), g(0)): 1,
    }


def test_coproduct_polynomial_binomials():
    P2 = poly(2, 2)
    w = lambda j: (j,)
    # middle binomial coefficient 2 vanishes mod 2
    assert P2.coproduct_monomial(w(2)) == {(w(0), w(2)): 1, (w(2), w(0)): 1}
    P0 = poly(0, 2)
    v = lambda j: (j,)
    middle = P0.coproduct_monomial(v(2))[(v(1), v(1))]
    assert middle == 2 and type(middle) is int


def test_coproduct_koszul_sign_on_exterior_product():
    C = exterior(5, 3, 5)
    y1, y2, y12 = (1, 0), (0, 1), (1, 1)
    one = C.unit()
    expansion = C.coproduct_monomial(y12)
    assert expansion == {
        (one, y12): 1,
        (y1, y2): 1,
        (y2, y1): 4,  # -1 mod 5: odd-degree factors transpose
        (y12, one): 1,
    }
    # linear extension
    assert apply_coproduct_to_slot(C, {(y12,): 2}, 0)[(y2, y1)] == 3


def test_axioms_on_corpus():
    corpus = []
    for p in (0, 2, 3):
        corpus += [exterior(p, 3), exterior(p, 3, 5), poly(p, 2), gamma(p, 2, trunc=8)]
    for C in corpus:
        assert coassociativity_ok(C, 12)
        assert counitality_ok(C, 12)
        assert cocommutativity_ok(C, 12)


def test_coproduct_rejects_unknown_monomial_shape():
    C = exterior(3, 3)
    with pytest.raises(ValueError):
        C.coproduct_monomial((1, 0))


def test_large_prime_characteristic_is_decided_quickly():
    start = time.perf_counter()
    assert Field(10**18 + 3).characteristic == 10**18 + 3
    assert time.perf_counter() - start < 1.0
    # 10^18+1 = 101 * 9901 * ..., 561 a Carmichael number, 2047 = 23 * 89 a
    # strong pseudoprime to base 2; 1 and -2 are neither 0 nor prime
    for bad in (4, 6, 1, 9, -2, 10**18 + 1, 561, 2047):
        with pytest.raises(CompositeCharacteristic):
            Field(bad)


def test_characteristic_beyond_exact_primality_range_is_refused():
    # composite, yet a strong pseudoprime to every base 2, 3, ..., 41
    with pytest.raises(InvalidInput, match="too large"):
        Field(3317044064679887385961981)


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(_is_prime(n) == trial(n) for n in range(10**4))


def test_scalar_canonicalization():
    """`reduced_sums` gives canonical residues in [1, p); over Q it keeps
    plain ints as they are, 10**30 included.  Both drop the zeros."""
    assert reduced_sums({"a": 7, "b": -1, "c": 3, "d": -6, "e": 5}, 3) == {
        "a": 1, "b": 2, "e": 2,
    }
    over_q = reduced_sums({"a": 4, "b": -7, "z": 0, "c": 10**30}, 0)
    assert over_q == {"a": 4, "b": -7, "c": 10**30}
    assert all(type(v) is int for v in over_q.values())
    assert Field(3) == Field(3) != Field(5) and hash(Field(3)) == hash(Field(3))


def test_field_record_semantics():
    """Equal and hashed by characteristic, with the repr error messages print;
    a composite characteristic is refused at construction."""
    assert Field(5) == Field(5) and hash(Field(5)) == hash(Field(5))
    assert Field(5) != Field(7) and Field(0) != 0 and Field(3) != (3,)
    assert len({Field(3), Field(3), Field(0)}) == 2
    assert repr(Field(3)) == "Field(characteristic=3)"
    with pytest.raises(CompositeCharacteristic, match="must be 0 or a prime, got 9"):
        Field(9)


def test_modp_arithmetic_matches_integers():
    """`reduced_sums` turns integer sums into canonical nonzero residues, each
    congruent to its sum mod p (the sum itself over Q)."""
    rng = random.Random(7)
    for p in (0, 2, 3, 5, 7):
        sums = {}
        for _ in range(250):
            key, a, b = rng.randrange(4), rng.randrange(-50, 50), rng.randrange(-50, 50)
            sums[key] = sums.get(key, 0) + a * b
            got = reduced_sums(dict(sums), p)
            assert all(type(v) is int and v and (not p or v < p) for v in got.values())
            for k, v in sums.items():
                assert (got.get(k, 0) - v) % p == 0 if p else got.get(k, 0) == v


def test_reduced_coproduct_is_cached_per_field():
    """The terms (a, b, c) with both sides of positive degree, cached on the
    presentation; `over` does not share them, since c depends on the field:
    w^3 is primitive over F_3 only."""
    w3 = (3,)
    Q = poly(0, 2)
    assert Q.reduced_coproduct(w3) == [((1,), (2,), 3), ((2,), (1,), 3)]
    assert Q.reduced_coproduct(w3) is Q.reduced_coproduct(w3)
    assert Q.over(Field(3)).reduced_coproduct(w3) == []
    assert Q.reduced_coproduct(w3)
    F3 = poly(3, 2)
    assert F3.reduced_coproduct(w3) == []
    assert F3.over(Field(0)).reduced_coproduct(w3)
    assert Q.reduced_coproduct((0,)) == [] and Q.reduced_coproduct((1,)) == []


def test_format_monomial_prints_divided_powers_as_gamma():
    """Both presentations print a divided power g^e as gamma_e(g)."""
    C = CoalgebraPresentation(Field(3), [
        Cogenerator("y", EXTERIOR, 3), Cogenerator("w", POLYNOMIAL, 2),
        Cogenerator("x", DIVIDED_POWER, 4),
    ])
    assert C.format_monomial((0, 0, 2)) == "gamma_2(x)"
    assert C.format_monomial((1, 3, 2)) == "y*w^3*gamma_2(x)"
    assert C.format_monomial((0, 0, 1)) == "x" and C.format_monomial(C.unit()) == "1"
    e2 = E2Presentation(3, [E2Generator("x1", DIVIDED_POWER, 0, 2),
                            E2Generator("z1", EXTERIOR, 1, 2)])
    assert e2.format_monomial((3, 1)) == "gamma_3(x1)*z1"
