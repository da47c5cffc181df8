import random
import time

import pytest
from dense_reference import dense_rank

from cohh import exactfield
from cohh.cochain import build_complex
from cohh.exactfield import (
    CompositeCharacteristic,
    Field,
    InvalidInput,
    SparseMatrix,
    add_term,
    rank,
)
from cohh.selftest import _structural_corpus


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

    assert all(exactfield._is_prime(n) == trial(n) for n in range(10**4))


def test_scalar_canonicalization():
    f3 = Field(3)
    assert f3.scalar(7) == 1
    assert f3.scalar(-1) == 2
    q = Field(0)
    for x in (4, -7, 0, 10**30):
        assert q.scalar(x) == x and type(q.scalar(x)) is int
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


def test_sparse_matrix_equality_sees_field_shape_and_entries():
    f3, f5 = Field(3), Field(5)
    m = SparseMatrix(f3, 2, 3, {(0, 1): 2})
    assert m == SparseMatrix(f3, 2, 3, {(0, 1): 2})
    assert m != SparseMatrix(f5, 2, 3, {(0, 1): 2})
    assert m != SparseMatrix(f3, 3, 2, {(0, 1): 2})
    assert m != SparseMatrix(f3, 2, 3, {(0, 1): 1})
    assert SparseMatrix(f3, 0, 4) == SparseMatrix(f3, 0, 4) != SparseMatrix(f3, 4, 0)
    # each matrix built without entries gets its own dict
    a, b = SparseMatrix(f3, 1, 1), SparseMatrix(f3, 1, 1)
    a.entries[(0, 0)] = 1
    assert b.entries == {}
    with pytest.raises(TypeError):
        hash(m)


def test_modp_arithmetic_matches_integers():
    """add_term sums plain ints into canonical nonzero residues (ints over Q)."""
    rng = random.Random(7)
    for p in (0, 2, 3, 5, 7):
        fld = Field(p)
        acc: dict = {}
        sums = [0] * 4
        for _ in range(250):
            key, a, b = rng.randrange(4), rng.randrange(-50, 50), rng.randrange(-50, 50)
            add_term(acc, key, a * b, fld)
            sums[key] += a * b
            assert acc == {k: fld.scalar(v) for k, v in enumerate(sums) if fld.scalar(v)}
            assert all(type(v) is int and (not p or 0 < v < p) for v in acc.values())


def test_from_triples_sums_and_drops_zeros():
    f3 = Field(3)
    m = SparseMatrix.from_triples(f3, 2, 2, [(0, 0, 1), (0, 0, 2), (1, 1, 5)])
    assert m.entries == {(1, 1): 2}
    with pytest.raises(IndexError):
        SparseMatrix.from_triples(f3, 1, 1, [(1, 0, 1)])


def test_compose_and_apply():
    f7 = Field(7)
    a = SparseMatrix.from_triples(f7, 2, 2, [(0, 0, 2), (1, 1, 3)])
    b = SparseMatrix.from_triples(f7, 2, 2, [(0, 1, 1), (1, 0, 4)])
    ab = a.compose(b)
    assert ab.entries == {(0, 1): 2, (1, 0): 5}
    ones = SparseMatrix.from_triples(f7, 2, 1, [(0, 0, 1), (1, 0, 1)])
    assert a.compose(ones).entries == {(0, 0): 2, (1, 0): 3}


def _transpose(m):
    return SparseMatrix(
        m.field, m.cols, m.rows, {(c, r): v for (r, c), v in m.entries.items()}
    )


def _random_matrix(rng, fld, rows, cols, density):
    """Random integer entries; over Q some are large, so pivots are not units."""
    def value():
        if fld.characteristic == 0 and rng.random() < 0.3:
            return rng.randrange(-60, 61)
        return rng.randrange(-4, 5)

    return SparseMatrix.from_triples(
        fld, rows, cols,
        [
            (r, c, value())
            for r in range(rows)
            for c in range(cols)
            if rng.random() < density
        ],
    )


def _random_matrices(rng, fld):
    for rows, cols in ((0, 4), (4, 0), (0, 0), (3, 5)):
        yield SparseMatrix(fld, rows, cols)
    for _ in range(60):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        yield _random_matrix(rng, fld, rows, cols, rng.choice((0.15, 0.4, 0.8)))
    # products through a narrow middle have rank below both sides
    for _ in range(30):
        inner = rng.randrange(1, 4)
        a = _random_matrix(rng, fld, rng.randrange(2, 9), inner, 0.7)
        b = _random_matrix(rng, fld, inner, rng.randrange(2, 9), 0.7)
        yield a.compose(b)


@pytest.mark.parametrize("p", [2, 3, 5, 0])
def test_sparse_rank_agrees_with_dense_row_reduce(p):
    fld = Field(p)
    rng = random.Random(100 + p)
    deficient = 0
    for m in _random_matrices(rng, fld):
        r = rank(m)
        assert r == dense_rank(m), m
        assert r == rank(_transpose(m)), m
        deficient += r < min(m.rows, m.cols)
    assert deficient >= 20  # the oracle saw rank-deficient matrices


@pytest.mark.parametrize("p", [0, 2, 3])
def test_sparse_rank_agrees_with_dense_on_the_structural_corpus(p):
    for label, C, window, _ in _structural_corpus(p):
        cx = build_complex(C, window)
        for key, d in cx.differentials.items():
            assert rank(d) == dense_rank(d), (label, p, key)
