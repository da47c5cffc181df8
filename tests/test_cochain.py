import random
from itertools import product

import pytest
from dense_reference import dense_rank, from_triples, matrix_product

from cohh.coalg import (
    DIVIDED_POWER,
    EXTERIOR,
    POLYNOMIAL,
    BidegreeWindow,
    CoalgebraPresentation,
    Cogenerator,
    Field,
    WindowTooSmall,
    reduced_sums,
)
from cohh import cochain, selftest
from cohh.cochain import (
    DifferentialNotSquareZero,
    SparseMatrix,
    _matrix_from_terms,
    build_complex,
    coface_terms,
    compose_columns,
    differential_terms,
    first_square_failure,
    normalized_differential_terms,
    rank,
    tensor_basis,
    tensor_bases,
    twist_first_to_last,
)
from cohh.selftest import (
    CHARACTERISTICS,
    _structural_corpus,
    codegeneracy_terms,
    verify_cosimplicial_identities,
)


def exterior(p, *degrees):
    return CoalgebraPresentation(
        Field(p),
        [Cogenerator(f"y{i + 1}" if len(degrees) > 1 else "y", EXTERIOR, d)
         for i, d in enumerate(degrees)],
    )


def poly(p, degree):
    return CoalgebraPresentation(Field(p), [Cogenerator("w", POLYNOMIAL, degree)])


def gamma(p, degree):
    return CoalgebraPresentation(
        Field(p), [Cogenerator("x", DIVIDED_POWER, degree, truncation=8)]
    )


def brute_tensor_dim(C, s, t, normalized):
    """Independent spot-dimension count: sum over degree compositions of the
    product of per-degree basis sizes."""
    dims = [len(C.basis_in_degree(d)) for d in range(t + 1)]
    lo = 1 if normalized else 0

    def rec(slot, remaining):
        if slot == s + 1:
            return 1 if remaining == 0 else 0
        low = lo if slot >= 1 else 0
        return sum(
            dims[d] * rec(slot + 1, remaining - d)
            for d in range(low, remaining + 1)
        )

    return rec(0, t)


def test_tensor_basis_dims_match_composition_count():
    for C in (poly(3, 2), exterior(5, 3, 5), gamma(2, 2)):
        for s in range(0, 3):
            for t in range(0, 9):
                for normalized in (True, False):
                    assert len(tensor_basis(C, s, t, normalized)) == brute_tensor_dim(
                        C, s, t, normalized
                    )


def brute_tensor_basis(C, s, t, normalized):
    """Independent ordered basis: every degree composition of t over s+1 slots,
    every product of per-degree bases, sorted in the documented order (slot by
    slot from the left: degree ascending, then the monomial's basis position)."""
    lows = [0] + [1 if normalized else 0] * s
    tuples = []
    for comp in product(range(t + 1), repeat=s + 1):
        if sum(comp) == t and all(d >= lo for d, lo in zip(comp, lows)):
            tuples += product(*(C.basis_in_degree(d) for d in comp))

    def key(tup):
        return tuple(
            x for m in tup for x in (C.degree(m), C.basis_in_degree(C.degree(m)).index(m))
        )

    return sorted(tuples, key=key)


@pytest.mark.parametrize(
    "C, max_t",
    [
        (exterior(3, 7), 14),
        (exterior(3, 3, 5), 12),
        (exterior(3, 3, 3), 9),     # two monomials in degree 3
        (poly(3, 2), 8),
        (gamma(3, 2), 8),
    ],
    ids=["Lambda(7)", "Lambda(3,5)", "Lambda(3,3)", "k[w2]", "Gamma(2)"],
)
def test_tensor_basis_order_matches_independent_enumeration(C, max_t):
    for s in range(0, 4):
        for t in range(0, max_t + 1):
            for normalized in (True, False):
                assert tensor_basis(C, s, t, normalized) == brute_tensor_basis(
                    C, s, t, normalized
                ), (s, t, normalized)
    assert tensor_basis(C, 0, 0, True) == [(C.unit(),)]
    assert tensor_basis(C, 2, 0, False) == [(C.unit(),) * 3]
    assert tensor_basis(C, 2, 0, True) == []


@pytest.mark.parametrize(
    "C, window",
    [
        (exterior(3, 7), (3, 14)),
        (exterior(3, 3, 5), (4, 12)),
        (exterior(3, 3, 3), (2, 9)),
        (poly(3, 2), (4, 8)),
        (gamma(3, 2), (3, 8)),
        (CoalgebraPresentation(Field(5), []), (2, 3)),
    ],
    ids=["Lambda(7)", "Lambda(3,5)", "Lambda(3,3)", "k[w2]", "Gamma(2)", "trivial"],
)
def test_tensor_bases_list_every_spot_of_a_window_in_order(C, window):
    max_s, max_t = window
    spots = [(s, t) for s in range(max_s + 1) for t in range(max_t + 1)]
    for normalized in (True, False):
        bases = tensor_bases(C, max_s, max_t, normalized)
        assert sorted(bases) == spots
        for s, t in spots:
            assert bases[(s, t)] == brute_tensor_basis(C, s, t, normalized), (s, t)
    assert tensor_bases(C, -1, max_t, True) == tensor_bases(C, max_s, -1, False) == {}


def test_normalized_tuples_have_no_interior_units():
    C = poly(3, 2)
    for tup in tensor_basis(C, 2, 6, normalized=True):
        assert all(any(m) for m in tup[1:])


def test_twist_sign():
    C = exterior(3, 3)
    y = (1,)
    out = twist_first_to_last(C, {(y, y): 1})
    assert out == {(y, y): 2}  # (-1)^(3*3) = -1 = 2 mod 3


def test_coface_terms_examples():
    C = exterior(3, 3)
    y = (1,)
    one = C.unit()
    # right coaction on the coefficient slot
    assert coface_terms(C, 0, 0, (y,)) == {(one, y): 1, (y, one): 1}
    # left coaction then twist fixes the unit
    assert coface_terms(C, 1, 0, (one,)) == {(one, one): 1}
    # top coface on y (x) y: twist carries the Koszul sign
    assert coface_terms(C, 2, 1, (y, y)) == {(y, y, one): 1, (one, y, y): 2}
    with pytest.raises(IndexError):
        coface_terms(C, 3, 1, (y, y))


def test_codegeneracy_terms_examples():
    C = poly(5, 2)
    one = C.unit()
    w = (1,)
    assert codegeneracy_terms(C, 0, 1, (one, one, one)) == {(one, one): 1}
    # counit kills a positive-degree interior slot
    Cy = exterior(3, 3)
    y = (1,)
    one_y = Cy.unit()
    assert codegeneracy_terms(Cy, 0, 1, (one_y, y, one_y)) == {}
    assert codegeneracy_terms(C, 1, 1, (w, w, one)) == {(w, w): 1}
    with pytest.raises(IndexError):
        codegeneracy_terms(C, 2, 1, (w, w, one))


def test_build_complex_lambda_spots_and_zero_differential():
    C = exterior(3, 3)
    window = BidegreeWindow(4, 15)
    cx = build_complex(C, window)
    for s in range(5):
        for t in range(16):
            expected = 1 if t in (3 * s, 3 * s + 3) else 0
            assert len(cx.spots[(s, t)]) == expected
    assert all(not m.entries for m in cx.differentials.values())


def test_build_complex_trivial_coalgebra():
    C = CoalgebraPresentation(Field(3), [])
    cx = build_complex(C, BidegreeWindow(3, 5))
    assert len(cx.spots[(0, 0)]) == 1
    assert all(
        len(cx.spots[(s, t)]) == 0
        for s in range(4)
        for t in range(6)
        if (s, t) != (0, 0)
    )
    assert all(not m.entries for m in cx.differentials.values())


@pytest.mark.parametrize("C, window", [
    (exterior(0, 7), BidegreeWindow(4, 35)), (poly(0, 2), BidegreeWindow(4, 12)),
], ids=["Lambda(7)", "k[w2]"])
@pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "full"])
def test_every_differential_has_the_shape_of_its_spots(C, window, normalized):
    """Empty spots included: d(s,t) maps spot (s,t) to spot (s+1,t)."""
    cx = build_complex(C, window, normalized=normalized)
    assert set(cx.differentials) == {
        (s, t) for s in range(window.max_s + 1) for t in range(window.max_t + 1)
    }
    empty = 0
    for (s, t), d in cx.differentials.items():
        assert (d.rows, d.cols) == (len(cx.spots[(s + 1, t)]), len(cx.spots[(s, t)]))
        empty += not d.rows * d.cols
    assert empty > 0


def test_rank_of_a_matrix_without_entries_is_zero():
    for p in (0, 3):
        for rows, cols in ((0, 0), (3, 0), (3, 4)):
            assert rank(SparseMatrix(Field(p), rows, [()] * cols)) == 0


@pytest.mark.parametrize("C, window, normalized, spot", [
    (exterior(0, 7), BidegreeWindow(4, 35), True, None),
    (exterior(0, 7), BidegreeWindow(4, 35), False, (0, 0)),
    (poly(0, 2), BidegreeWindow(4, 12), True, (0, 4)),
    (poly(0, 2), BidegreeWindow(4, 12), False, (0, 0)),
    (exterior(3, 3, 5), BidegreeWindow(3, 16), True, (0, 8)),
])
def test_first_square_failure_under_a_corrupted_twist(
    corrupted_twist, C, window, normalized, spot
):
    cx = build_complex(C, window, normalized=normalized, check=False)
    assert first_square_failure(cx) == spot


@pytest.mark.parametrize("p, second, spot", [(3, 2, None), (0, 1, (0, 0))])
def test_first_square_failure_reduces_the_composed_sums(p, second, spot):
    """The one composed entry is 1*1 + 1*second: 3 = 0 over F_3, 2 over Q."""
    fld = Field(p)
    cx = cochain.CochainComplex(
        CoalgebraPresentation(fld, []),
        BidegreeWindow(1, 0),
        {(0, 0): ["a"], (1, 0): ["b", "c"], (2, 0): ["d"]},
        {
            (0, 0): SparseMatrix(fld, 2, [((0, 1), (1, 1))]),
            (1, 0): SparseMatrix(fld, 1, [((0, 1),), ((0, second),)]),
        },
    )
    assert first_square_failure(cx) == spot


def test_structural_suite_fails_on_a_full_complex_with_normalized_spots(monkeypatch):
    """A memo keyed without `normalized` hands the full complex the normalized
    bases; the cohomology still agrees, so only the spot count sees it."""
    def unkeyed(C, max_s, max_t, normalized):
        key = ("bases", max_s, max_t)
        if key not in C.oracle_memo:
            C.oracle_memo[key] = tensor_bases(C, max_s, max_t, normalized)
        return C.oracle_memo[key]

    monkeypatch.setattr(cochain, "_window_bases", unkeyed)
    assert selftest.check_structural_suite() == (
        False, "full spot sizes differ from the count over characteristic 0"
    )


def test_complexes_over_one_cogenerator_list_share_their_spots():
    """The normalized and the full bases are kept apart: the full differential
    maps the normalized spots into themselves, so a complex built on the
    wrong bases would pass its own d.d = 0 check."""
    C, window = exterior(0, 3, 5), BidegreeWindow(3, 16)
    normalized = build_complex(C, window).spots
    assert build_complex(C.over(Field(3)), window).spots is normalized
    full = build_complex(C.over(Field(2)), window, normalized=False).spots
    assert full == tensor_bases(C, 4, 16, normalized=False) != normalized


def test_window_too_small():
    with pytest.raises(WindowTooSmall):
        build_complex(exterior(3, 3), BidegreeWindow(-1, 5))
    with pytest.raises(WindowTooSmall):
        build_complex(exterior(3, 3), BidegreeWindow(2, -1))


def test_corrupted_twist_breaks_d_squared(corrupted_twist):
    C = gamma(3, 2)
    with pytest.raises(DifferentialNotSquareZero):
        build_complex(C, BidegreeWindow(2, 6))


def test_normalized_differential_image_stays_normalized():
    """The alternating sum on a normalized tuple has no unit-bearing terms."""
    for C in (gamma(3, 2), poly(2, 2), exterior(5, 3, 5)):
        for s in range(0, 3):
            for t in range(0, 9):
                for tup in tensor_basis(C, s, t, normalized=True):
                    for key, coeff in differential_terms(C, tup).items():
                        assert all(any(m) for m in key[1:]), (tup, key, coeff)


def differential_grid():
    """Λ(y_d), k[w_d], Γ(x_d), truncated Γ_n(x_d) and w^0..w^n, and mixed
    presentations, over Q, F_2, F_3 and F_5, each with a window."""
    for p in (0, 2, 3, 5):
        grid = [
            ([Cogenerator("y", EXTERIOR, 1)], (4, 16)),
            ([Cogenerator("y", EXTERIOR, 3)], (4, 16)),
            ([Cogenerator("w", POLYNOMIAL, 2)], (4, 16)),
            ([Cogenerator("w", POLYNOMIAL, 4)], (4, 16)),
            ([Cogenerator("w", POLYNOMIAL, 2, truncation=4)], (4, 14)),
            ([Cogenerator("x", DIVIDED_POWER, 2)], (4, 16)),
            ([Cogenerator("x", DIVIDED_POWER, 2, truncation=2)], (4, 16)),
            ([Cogenerator("x", DIVIDED_POWER, 4, truncation=3)], (4, 16)),
            ([Cogenerator("y", EXTERIOR, 3), Cogenerator("w", POLYNOMIAL, 2)], (4, 12)),
            ([Cogenerator("x", DIVIDED_POWER, 2, truncation=2),
              Cogenerator("y", EXTERIOR, 3)], (4, 12)),
            ([Cogenerator("y1", EXTERIOR, 3), Cogenerator("y2", EXTERIOR, 5)], (4, 16)),
        ]
        for cogs, window in grid:
            yield CoalgebraPresentation(Field(p), cogs), BidegreeWindow(*window)


def test_normalized_differential_equals_the_full_alternating_sum():
    """The kept-terms formula equals `differential_terms` term for term on
    every normalized tuple: the unit-bearing terms it never generates cancel
    in the full sum."""
    tuples = 0
    for C, window in differential_grid():
        for tups in tensor_bases(C, window.max_s, window.max_t, True).values():
            for tup in tups:
                want = differential_terms(C, tup)
                assert normalized_differential_terms(C, tup) == want, (C.cogenerators, tup)
                tuples += 1
    assert tuples > 5_000


def test_a_stray_unit_bearing_term_makes_build_complex_raise(monkeypatch):
    """No projection drops a unit-bearing image term: it raises."""
    kept = cochain.normalized_differential_terms

    def stray(C, tup):
        out = dict(kept(C, tup))
        out[tup[:1] + (C.unit(),) + tup[1:]] = 1  # [c_0|1|c_1|...], same degree
        return out

    monkeypatch.setattr(cochain, "normalized_differential_terms", stray)
    build_complex(gamma(3, 2), BidegreeWindow(2, 6), normalized=False)
    with pytest.raises(KeyError, match="missing from the target basis"):
        build_complex(gamma(3, 2), BidegreeWindow(2, 6))


def coface_matrix(C, i, s, t):
    """Matrix of the i-th coface on the full tensor basis in internal degree t."""
    return _matrix_from_terms(
        C, tensor_basis(C, s, t, False), tensor_basis(C, s + 1, t, False),
        lambda tup: coface_terms(C, i, s, tup),
    )


def codegeneracy_matrix(C, i, s, t):
    """Matrix of the i-th codegeneracy (s+2 factors -> s+1) in internal degree t."""
    return _matrix_from_terms(
        C, tensor_basis(C, s + 1, t, False), tensor_basis(C, s, t, False),
        lambda tup: codegeneracy_terms(C, i, s, tup),
    )


def test_normalized_basis_equals_codegeneracy_kernel_intersection():
    """Restriction agrees with the kernel-of-codegeneracies definition."""
    for C in (exterior(3, 3), poly(5, 2)):
        for s in range(1, 3):
            for t in range(0, 8):
                full = tensor_basis(C, s, t, normalized=False)
                stacked = []
                offset = 0
                mats = [codegeneracy_matrix(C, i, s - 1, t) for i in range(s)]
                rows = sum(m.rows for m in mats)
                triples = []
                for m in mats:
                    triples += [(r + offset, c, v) for (r, c), v in m.entries.items()]
                    offset += m.rows
                stacked = from_triples(C.field, rows, len(full), triples)
                kernel_dim = stacked.cols - rank(stacked)
                assert kernel_dim == len(tensor_basis(C, s, t, normalized=True))


def test_cosimplicial_identities_pass():
    report = verify_cosimplicial_identities(exterior(3, 3), BidegreeWindow(3, 12))
    assert report.passed and report.checked > 0
    report = verify_cosimplicial_identities(
        CoalgebraPresentation(Field(5), []), BidegreeWindow(2, 2)
    )
    assert report.passed


def test_cosimplicial_identities_detect_corrupted_twist(corrupted_twist):
    report = verify_cosimplicial_identities(exterior(3, 3), BidegreeWindow(3, 12))
    assert not report.passed
    assert (report.failure["i"], report.failure["j"]) == (1, 2)
    assert report.failure["family"] == "coface-coface"


def test_identity_scan_counts_every_identity_of_the_structural_corpus():
    """Identities out of an empty spot are counted without being evaluated."""
    checked = sum(
        verify_cosimplicial_identities(C, id_window).checked
        for p in CHARACTERISTICS
        for _, C, _, id_window in _structural_corpus(p)
    )
    assert checked == 15864


def test_identity_scan_fails_on_a_coface_term_outside_the_target_basis(monkeypatch):
    kept = selftest.coface_terms

    def stray(C, i, s, tup):
        out = dict(kept(C, i, s, tup))
        if i == 1:
            out[(C.unit(),) * (s + 2)] = 1  # degree 0, in a spot of degree t > 0
        return out

    C = exterior(3, 3)
    assert verify_cosimplicial_identities(C, BidegreeWindow(2, 9)).passed
    monkeypatch.setattr(selftest, "coface_terms", stray)
    with pytest.raises(KeyError, match="missing from the target basis"):
        verify_cosimplicial_identities(C, BidegreeWindow(2, 9))


def _corrupted(kept, i0, s0, degrees, corrupt):
    """kept(C, i, s, tup), with corrupt applied to the image of every tuple
    whose internal degree is in `degrees` under map i0 at level s0."""
    def terms(C, i, s, tup):
        out = kept(C, i, s, tup)
        if (i, s) == (i0, s0) and sum(map(C.degree, tup)) in degrees:
            return corrupt(C, out)
        return out
    return terms


def _failure(family, i, j, s, t):
    return {"family": family, "i": i, "j": j, "s": s, "t": t}


# Lambda(y1, y2), |y1| = 3, |y2| = 5, over F_3 in the window (2, 10).  A
# report names the first failing spot in the per-spot order (family, s, i, j,
# then t) and counts the identities up to it; corrupted at several degrees,
# the failure names the least.
@pytest.mark.parametrize("i, s, degrees, checked, failure", [
    (0, 0, (8,), 20, _failure("coface-coface", 0, 2, 0, 8)),
    (1, 0, (5,), 17, _failure("coface-coface", 0, 2, 0, 5)),
    (1, 1, (8,), 9, _failure("coface-coface", 0, 1, 0, 8)),
    (2, 1, (3,), 15, _failure("coface-coface", 0, 2, 0, 3)),
    (0, 2, (10,), 44, _failure("coface-coface", 0, 1, 1, 10)),
    (3, 2, (8,), 64, _failure("coface-coface", 0, 3, 1, 8)),
    (2, 2, (6,), 51, _failure("coface-coface", 0, 2, 1, 6)),
    (1, 0, (5, 8), 17, _failure("coface-coface", 0, 2, 0, 5)),
    (2, 2, (6, 8, 10), 51, _failure("coface-coface", 0, 2, 1, 6)),
    (0, 1, (3, 5, 6, 8, 10), 4, _failure("coface-coface", 0, 1, 0, 3)),
])
def test_identity_scan_reports_a_negated_coface_exactly(
    monkeypatch, i, s, degrees, checked, failure
):
    negate = lambda C, out: reduced_sums({k: -c for k, c in out.items()}, C.field.characteristic)
    monkeypatch.setattr(
        selftest, "coface_terms",
        _corrupted(selftest.coface_terms, i, s, degrees, negate),
    )
    report = verify_cosimplicial_identities(exterior(3, 3, 5), BidegreeWindow(2, 10))
    assert report == (False, checked, failure)


def test_a_stray_coface_term_raises_before_a_lower_mismatch_is_reported(monkeypatch):
    """Coface 0 at level 1 is built for the whole level before the first
    identity that uses it is compared: a term outside the target basis at
    t = 8 raises, though the same identity already differs at t = 3."""
    C = exterior(3, 3, 5)
    window = BidegreeWindow(2, 10)
    negate = lambda C, out: reduced_sums({k: -c for k, c in out.items()}, C.field.characteristic)
    negated = _corrupted(selftest.coface_terms, 0, 1, (3,), negate)
    monkeypatch.setattr(selftest, "coface_terms", negated)
    assert verify_cosimplicial_identities(C, window) == (
        False, 4, _failure("coface-coface", 0, 1, 0, 3)
    )

    def stray(C, out):
        return {**out, (C.unit(),) * 3: 1}  # degree 0, in a spot of degree 8

    monkeypatch.setattr(
        selftest, "coface_terms", _corrupted(negated, 0, 1, (8,), stray)
    )
    with pytest.raises(KeyError, match="missing from the target basis"):
        verify_cosimplicial_identities(C, window)


@pytest.mark.parametrize("i, s, degrees, checked, failure", [
    (0, 0, (3,), 147, _failure("mixed", 0, 0, 0, 3)),
    (0, 0, (8,), 152, _failure("mixed", 0, 0, 0, 8)),
    (1, 1, (8,), 108, _failure("codegeneracy-codegeneracy", 0, 0, 0, 8)),
    (0, 1, (6,), 128, _failure("codegeneracy-codegeneracy", 0, 1, 1, 6)),
    (2, 2, (9,), 329, _failure("mixed", 2, 2, 2, 9)),
    (0, 2, (10,), 121, _failure("codegeneracy-codegeneracy", 0, 0, 1, 10)),
])
def test_identity_scan_reports_a_dropped_codegeneracy_exactly(
    monkeypatch, i, s, degrees, checked, failure
):
    monkeypatch.setattr(
        selftest, "codegeneracy_terms",
        _corrupted(selftest.codegeneracy_terms, i, s, degrees, lambda C, out: {}),
    )
    report = verify_cosimplicial_identities(exterior(3, 3, 5), BidegreeWindow(2, 10))
    assert report == (False, checked, failure)


def test_structural_check_names_a_dropped_codegeneracy_image(monkeypatch):
    """The selftest's failure line for the identity scan: codegeneracy 0 at
    level 0 drops its one nonzero image of degree 3, that of y|1 in Lambda(3),
    the corpus's first entry."""
    monkeypatch.setattr(
        selftest, "codegeneracy_terms",
        _corrupted(selftest.codegeneracy_terms, 0, 0, (3,), lambda C, out: {}),
    )
    assert selftest.check_structural_suite() == (
        False,
        "cosimplicial identity fails: Lambda(3) over characteristic 0: "
        "FAIL mixed identity at (i,j)=(0,0), s=0, t=3",
    )


def test_structural_check_builds_the_codegeneracy_maps_once_per_cogenerator_list(
    monkeypatch
):
    """A codegeneracy does not depend on the field, so the corpus's four
    characteristics share its level maps: a build per field would make four
    times these calls, 6 316."""
    calls = []
    kept = selftest.codegeneracy_terms

    def counted(C, i, s, tup):
        calls.append((i, s))
        return kept(C, i, s, tup)

    monkeypatch.setattr(selftest, "codegeneracy_terms", counted)
    assert selftest.check_structural_suite()[0]
    assert len(calls) == 1579


def _swap_two_terms(C, out):
    """Swap the tuples of the least two image terms, in tuple order, whose
    coefficients differ; the coefficients stay where they were."""
    keys = sorted(out)
    for k, a in enumerate(keys):
        for b in keys[k + 1:]:
            if out[a] != out[b]:
                return {**out, a: out[b], b: out[a]}
    return out


# Two image terms of one spot trade rows.  Each pair of the composed sides
# then differs in two rows of one column: an identity scan that keys a level
# by (column, row) with the wrong row count would read them as another column.
@pytest.mark.parametrize("C, window, i, s, degrees, checked, failure", [
    (exterior(3, 3, 5), (2, 10), 1, 0, (8,), 20, _failure("coface-coface", 0, 2, 0, 8)),
    (exterior(3, 3, 5), (2, 10), 2, 1, (6,), 62, _failure("coface-coface", 0, 3, 1, 6)),
    (exterior(3, 3, 5), (2, 10), 0, 2, (8,), 42, _failure("coface-coface", 0, 1, 1, 8)),
    (exterior(3, 3, 5), (2, 10), 2, 2, (8,), 53, _failure("coface-coface", 0, 2, 1, 8)),
    (poly(0, 2), (2, 8), 0, 0, (4,), 5, _failure("coface-coface", 0, 1, 0, 4)),
    (poly(0, 2), (2, 8), 2, 1, (6,), 16, _failure("coface-coface", 0, 2, 0, 6)),
    (poly(0, 2), (2, 8), 1, 2, (6,), 34, _failure("coface-coface", 0, 1, 1, 6)),
    (poly(0, 2), (2, 8), 3, 2, (8,), 54, _failure("coface-coface", 0, 3, 1, 8)),
])
def test_identity_scan_reports_two_swapped_coface_rows_exactly(
    monkeypatch, C, window, i, s, degrees, checked, failure
):
    monkeypatch.setattr(
        selftest, "coface_terms",
        _corrupted(selftest.coface_terms, i, s, degrees, _swap_two_terms),
    )
    report = verify_cosimplicial_identities(C, BidegreeWindow(*window))
    assert report == (False, checked, failure)


def test_coface_codegeneracy_matrix_shapes():
    C = poly(3, 2)
    for i in range(3):
        m = coface_matrix(C, i, 1, 4)
        assert (m.rows, m.cols) == (
            len(tensor_basis(C, 2, 4, False)),
            len(tensor_basis(C, 1, 4, False)),
        )
    s = codegeneracy_matrix(C, 0, 1, 4)
    assert (s.rows, s.cols) == (
        len(tensor_basis(C, 1, 4, False)),
        len(tensor_basis(C, 2, 4, False)),
    )


def test_scalars_over_q_are_plain_ints():
    """Every coproduct coefficient and differential entry is an int: over Q,
    so the complex is the integral one and d.d = 0 is checked over Z; over F_p
    a canonical residue in [1, p), which the d.d, identity and axiom checks
    need, as they compare stored values with ==."""
    window = BidegreeWindow(3, 12)
    for p in (0, 2, 3, 5):
        lam_poly = CoalgebraPresentation(
            Field(p), [Cogenerator("y", EXTERIOR, 3), Cogenerator("w", POLYNOMIAL, 2)]
        )
        for C in (poly(p, 2), gamma(p, 2), lam_poly):
            coefficients = [
                c
                for t in range(window.max_t + 1)
                for m in C.basis_in_degree(t)
                for c in C.coproduct_monomial(m).values()
            ]
            entries = [
                v for d in build_complex(C, window).differentials.values()
                for v in d.entries.values()
            ]
            assert coefficients and entries
            assert all(type(v) is int for v in coefficients + entries), C.cogenerators
            if p:
                assert all(0 < v < p for v in coefficients + entries), C.cogenerators


def test_entries_and_cols_are_views_of_the_columns():
    """A `SparseMatrix` stores only its columns; `entries` is their
    coordinate view and `cols` their count."""
    m = SparseMatrix(Field(3), 3, [((2, 1), (0, 2)), (), ((1, 1),)])
    assert m.entries == {(2, 0): 1, (0, 0): 2, (1, 2): 1}
    assert m.cols == len(m.columns) == 3
    assert SparseMatrix.__slots__ == ("field", "rows", "columns")


def test_from_triples_sums_and_drops_zeros():
    f3 = Field(3)
    m = from_triples(f3, 2, 2, [(0, 0, 1), (0, 0, 2), (1, 1, 5)])
    assert m.entries == {(1, 1): 2}
    with pytest.raises(IndexError):
        from_triples(f3, 1, 1, [(1, 0, 1)])


def test_compose_columns_gives_unreduced_flat_sums():
    """outer . inner keyed column * rows + row: each sum is the integer sum
    of its products, kept even where it cancels to 0, and no key is made
    where no product lands."""
    outer = [[(0, 2)], [(1, 3), (0, 5)]]   # 2 x 2: columns of (row, coefficient)
    inner = [[(1, 4)], [(0, 5), (1, -2)], []]
    assert compose_columns(outer, inner, 2) == {1: 12, 0: 20, 2: 5 * 2 - 2 * 5, 3: -6}
    assert compose_columns(outer, [], 2) == {}


def _transpose(m):
    return from_triples(m.field, m.cols, m.rows, [
        (c, r, v) for c, column in enumerate(m.columns) for r, v in column
    ])


def _random_matrix(rng, fld, rows, cols, density):
    """Random integer entries; over Q some are large, so pivots are not units."""
    def value():
        if fld.characteristic == 0 and rng.random() < 0.3:
            return rng.randrange(-60, 61)
        return rng.randrange(-4, 5)

    return from_triples(
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
        yield SparseMatrix(fld, rows, [()] * cols)
    for _ in range(60):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        yield _random_matrix(rng, fld, rows, cols, rng.choice((0.15, 0.4, 0.8)))
    # products through a narrow middle have rank below both sides
    for _ in range(30):
        inner = rng.randrange(1, 4)
        a = _random_matrix(rng, fld, rng.randrange(2, 9), inner, 0.7)
        b = _random_matrix(rng, fld, inner, rng.randrange(2, 9), 0.7)
        yield matrix_product(a, b)


@pytest.mark.parametrize("p", [2, 3, 5, 0])
def test_sparse_rank_agrees_with_dense_row_reduce(p):
    fld = Field(p)
    rng = random.Random(100 + p)
    deficient = 0
    for m in _random_matrices(rng, fld):
        r = rank(m)
        assert r == dense_rank(m), m.entries
        assert r == rank(_transpose(m)), m.entries
        deficient += r < min(m.rows, m.cols)
    assert deficient >= 20  # the oracle saw rank-deficient matrices


def _f2_fill_in_matrices(rng):
    """F_2 shapes whose packed columns span several 64-bit words and fill in
    as they are reduced: arrowheads (the diagonal with a full first row and
    column), more rows than columns as in the cobar spots, and products
    through a narrow middle."""
    f2 = Field(2)
    for n in (5, 17, 70, 130):
        arrow = [(0, c, 1) for c in range(n)] + [(r, 0, 1) for r in range(1, n)]
        yield from_triples(f2, n, n, arrow + [(i, i, 1) for i in range(1, n)])
    for _ in range(20):
        rows, cols = rng.randrange(20, 150), rng.randrange(5, 50)
        yield _random_matrix(rng, f2, rows, cols, rng.choice((0.05, 0.3, 0.6, 0.9)))
    for _ in range(20):
        inner = rng.randrange(1, 12)
        a = _random_matrix(rng, f2, rng.randrange(30, 150), inner, 0.5)
        b = _random_matrix(rng, f2, inner, rng.randrange(10, 60), 0.5)
        yield matrix_product(a, b)


def test_packed_f2_rank_agrees_with_dense_on_fill_in_shapes():
    rng = random.Random(2)
    deficient = 0
    for m in _f2_fill_in_matrices(rng):
        r = rank(m)
        assert r == dense_rank(m), m.entries
        assert r == rank(_transpose(m)), m.entries
        deficient += r < min(m.rows, m.cols)
    assert deficient >= 20


@pytest.mark.parametrize("p", [0, 2, 3])
def test_sparse_rank_agrees_with_dense_on_the_structural_corpus(p):
    for label, C, window, _ in _structural_corpus(p):
        cx = build_complex(C, window)
        for key, d in cx.differentials.items():
            assert rank(d) == dense_rank(d), (label, p, key)
