import json
import random
import time
from itertools import product

import pytest

from cohh import cochain, cohomology
from cohh.coalg import (
    DIVIDED_POWER,
    EXTERIOR,
    POLYNOMIAL,
    CoalgebraPresentation,
    Cogenerator,
)
from cohh.cochain import (
    BidegreeWindow,
    DifferentialNotSquareZero,
    WindowTooSmall,
    build_complex,
    tensor_basis,
)
from cohh.cohomology import (
    DIVIDED_EXTERIOR,
    EXTERIOR_POLYNOMIAL,
    BigradedTable,
    check_window,
    cohh_table,
    euler_check,
    expected_grid,
    identify_presentation,
    kunneth_factors,
    kunneth_table,
    presentation_euler_check,
    table_to_csv,
    table_to_json_dict,
)
from cohh.exactfield import Field
from cohh.torpipe import hz_e2_pipeline

CHARS = (0, 2, 3, 5)


def exterior(p, *degrees):
    return CoalgebraPresentation(
        Field(p),
        [Cogenerator(f"y{i + 1}" if len(degrees) > 1 else "y", EXTERIOR, d)
         for i, d in enumerate(degrees)],
    )


def gamma(p, degree):
    return CoalgebraPresentation(
        Field(p), [Cogenerator("x", DIVIDED_POWER, degree, truncation=8)]
    )


def divided(p, *degrees):
    """Untruncated Γ(x_d) for each degree d."""
    return CoalgebraPresentation(
        Field(p), [Cogenerator(f"x{i + 1}", DIVIDED_POWER, d) for i, d in enumerate(degrees)]
    )


def poly(p, degree):
    return CoalgebraPresentation(Field(p), [Cogenerator("w", POLYNOMIAL, degree)])


def exterior_times_poly(p):
    """Λ(y3)⊗k[w2]."""
    return CoalgebraPresentation(
        Field(p), [Cogenerator("y", EXTERIOR, 3), Cogenerator("w", POLYNOMIAL, 2)]
    )


def brute_exterior_poly_grid(degrees, window):
    """Monomial-by-monomial count of the exterior(base) x polynomial(column) grid."""
    grid = {
        (s, t): 0
        for s in range(window.max_s + 1)
        for t in range(window.max_t + 1)
    }
    n = len(degrees)
    caps = [window.max_t // d for d in degrees]
    for eps in product((0, 1), repeat=n):
        for ws in product(*(range(c + 1) for c in caps)):
            s = sum(ws)
            t = sum(e * d for e, d in zip(eps, degrees)) + sum(
                w * d for w, d in zip(ws, degrees)
            )
            if s <= window.max_s and t <= window.max_t:
                grid[(s, t)] += 1
    return grid


def brute_divided_exterior_grid(degrees, window):
    """Count of divided-power base monomials times square-free column classes."""
    grid = {
        (s, t): 0
        for s in range(window.max_s + 1)
        for t in range(window.max_t + 1)
    }
    n = len(degrees)
    caps = [window.max_t // d for d in degrees]
    for gammas in product(*(range(c + 1) for c in caps)):
        for eps in product((0, 1), repeat=n):
            s = sum(eps)
            t = sum(g * d for g, d in zip(gammas, degrees)) + sum(
                e * d for e, d in zip(eps, degrees)
            )
            if s <= window.max_s and t <= window.max_t:
                grid[(s, t)] += 1
    return grid


def test_lambda_table_matches_spec_listed_spots():
    window = BidegreeWindow(4, 15)
    expected_nonzero = {
        (0, 0), (0, 3), (1, 3), (1, 6), (2, 6),
        (2, 9), (3, 9), (3, 12), (4, 12), (4, 15),
    }
    for p in CHARS:
        table = cohh_table(build_complex(exterior(p, 3), window))
        assert {k for k, v in table.entries.items() if v} == expected_nonzero
        assert all(v == 1 for v in table.entries.values() if v)


@pytest.mark.parametrize("degree", [3, 5])
@pytest.mark.parametrize("p", CHARS)
def test_lambda_table_matches_brute_grid(degree, p):
    window = BidegreeWindow(4, 4 * degree)
    table = cohh_table(build_complex(exterior(p, degree), window))
    assert table.entries == brute_exterior_poly_grid([degree], window)


@pytest.mark.parametrize("p", CHARS)
def test_two_generator_lambda_table(p):
    window = BidegreeWindow(3, 16)
    table = cohh_table(build_complex(exterior(p, 3, 5), window))
    assert table.entries == brute_exterior_poly_grid([3, 5], window)


@pytest.mark.parametrize("p", CHARS)
def test_gamma_table_matches_brute_grid(p):
    window = BidegreeWindow(2, 8)
    table = cohh_table(build_complex(gamma(p, 2), window))
    assert table.entries == brute_divided_exterior_grid([2], window)
    # one column-1 exterior class only: nothing survives at s = 2
    assert table.dim(1, 4) == 1
    assert all(table.dim(2, t) == 0 for t in range(9))


def test_expected_grid_agrees_with_brute_enumeration():
    window = BidegreeWindow(4, 20)
    assert expected_grid(EXTERIOR_POLYNOMIAL, [3, 5], window) == brute_exterior_poly_grid(
        [3, 5], window
    )
    assert expected_grid(DIVIDED_EXTERIOR, [2, 4], window) == brute_divided_exterior_grid(
        [2, 4], window
    )


def test_row_zero_equals_coalgebra_dims():
    for p in CHARS:
        C = exterior(p, 3, 5)
        window = BidegreeWindow(2, 12)
        table = cohh_table(build_complex(C, window))
        for t in range(13):
            assert table.dim(0, t) == len(C.basis_in_degree(t))


def test_trivial_coalgebra_table():
    C = CoalgebraPresentation(Field(3), [])
    window = BidegreeWindow(3, 4)
    table = cohh_table(build_complex(C, window))
    assert table.dim(0, 0) == 1
    assert sum(table.entries.values()) == 1
    ident = identify_presentation(table)
    assert ident is not None and ident.shape == "trivial"
    assert ident.describe() == "k (trivial)"


def test_euler_check_passes_and_detects_corruption():
    cx = build_complex(exterior(3, 3), BidegreeWindow(4, 12))
    table = cohh_table(cx)
    report = euler_check(cx, table)
    assert report.passed and report.checked_degrees

    corrupted = BigradedTable(table.window, dict(table.entries))
    corrupted.entries[(1, 6)] += 1
    corrupted.entries[(2, 9)] += 1
    report = euler_check(cx, corrupted)
    assert not report.passed
    assert report.first_violation == 6  # smallest corrupted degree wins


def test_euler_check_skips_degrees_beyond_window():
    # max contributing s for t=12 is 6 > max_s=2, so t=12 cannot be certified
    cx = build_complex(CoalgebraPresentation(
        Field(3), [Cogenerator("w", POLYNOMIAL, 2)]), BidegreeWindow(2, 12))
    report = euler_check(cx, cohh_table(cx))
    assert report.passed
    assert 12 in report.skipped_degrees
    assert 4 in report.checked_degrees


def test_identify_presentation_shapes():
    window = BidegreeWindow(3, 16)
    t1 = cohh_table(build_complex(exterior(3, 3, 5), window))
    ident = identify_presentation(t1)
    assert ident.shape == EXTERIOR_POLYNOMIAL and ident.degrees == [3, 5]
    assert "Λ(y1,y2)⊗k[w1,w2]" in ident.describe()
    assert "||y2||=(0,5)" in ident.describe()

    t2 = cohh_table(build_complex(gamma(5, 2), BidegreeWindow(2, 8)))
    ident2 = identify_presentation(t2)
    assert ident2.shape == DIVIDED_EXTERIOR and ident2.degrees == [2]
    assert "Γ[x1]⊗Λ(z1)" in ident2.describe()
    assert "||z1||=(1,2)" in ident2.describe()

    rng = random.Random(2020)
    for shape, _ in product((EXTERIOR_POLYNOMIAL, DIVIDED_EXTERIOR), range(60)):
        window = BidegreeWindow(rng.randint(1, 5), rng.randint(1, 30))
        degrees = [rng.randint(1, window.max_t) for _ in range(rng.randint(1, 5))]
        grid = expected_grid(shape, degrees, window)
        ident = identify_presentation(BigradedTable(window, grid))
        assert ident.degrees == sorted(degrees), (shape, degrees, window)
        # a window too small to tell the shapes apart names the first
        assert ident.shape == shape or grid == expected_grid(
            EXTERIOR_POLYNOMIAL, degrees, window
        )


def test_identify_presentation_needs_row_1():
    """A window of row 0 alone shows no column-1 class: only the trivial
    table is named."""
    for C in (exterior(0, 3, 5), gamma(0, 2), poly(3, 2)):
        assert identify_presentation(kunneth_table(C, BidegreeWindow(0, 24))) is None
    empty = CoalgebraPresentation(Field(0), [])
    assert identify_presentation(kunneth_table(empty, BidegreeWindow(0, 24))).shape == "trivial"


def test_identify_presentation_of_30_dense_factors_reads_row_1_once():
    """30 Γ(x_1) over F_2: row 0 is 1/(1 - q)^30, with entries of ~300 bits
    at (1, 9999).  A greedy row-0 match recovered 450 exterior degrees here,
    one series product each, and took ~1.7 s."""
    C = CoalgebraPresentation(
        Field(2), [Cogenerator(f"x{i}", DIVIDED_POWER, 1) for i in range(30)]
    )
    table = kunneth_table(C, BidegreeWindow(1, 9999))
    start = time.perf_counter()
    ident = identify_presentation(table)
    assert time.perf_counter() - start < 1
    assert ident.shape == DIVIDED_EXTERIOR and ident.degrees == [1] * 30


def test_identify_presentation_unrecognized():
    window = BidegreeWindow(2, 5)
    entries = {(s, t): 0 for s in range(3) for t in range(6)}
    entries[(0, 0)] = 1
    entries[(1, 5)] = 7
    assert identify_presentation(BigradedTable(window, entries)) is None
    entries2 = {(s, t): 0 for s in range(3) for t in range(6)}
    entries2[(0, 0)] = 2
    assert identify_presentation(BigradedTable(window, entries2)) is None


def test_identify_presentation_refuses_a_negative_quotient_before_any_grid(monkeypatch):
    """Γ_2(x_2) over Q: row 1 / row 0 = q^2 - q^6 + ..., which no degree
    list gives, so no series is multiplied out."""
    table = kunneth_table(
        CoalgebraPresentation(Field(0), [Cogenerator("x", DIVIDED_POWER, 2, truncation=2)]),
        BidegreeWindow(4, 12),
    )
    monkeypatch.setattr(cohomology, "_times", refuse)
    assert identify_presentation(table) is None


@pytest.mark.parametrize(
    "C, shape",
    [
        (divided(0, 2, 4), DIVIDED_EXTERIOR),
        (exterior(3, 3, 5), EXTERIOR_POLYNOMIAL),
        (divided(2, 1, 1, 1), DIVIDED_EXTERIOR),
    ],
)
def test_identify_presentation_builds_the_rows_above_row_0_of_one_shape(
    monkeypatch, C, shape
):
    """Row 0 rules the other shape out, prod (1 + q^d) against
    prod 1 / (1 - q^d), so only the named shape's rows above it are
    multiplied out, and the answer is the one the whole grids give."""
    window = BidegreeWindow(5, 30)
    table = kunneth_table(C, window)
    built = []
    rows = cohomology._expected_rows

    def recording(shape, degrees, window, row0):
        built.append(shape)
        return rows(shape, degrees, window, row0)

    monkeypatch.setattr(cohomology, "_expected_rows", recording)
    ident = identify_presentation(table)
    assert ident.shape == shape and built == [shape]
    assert expected_grid(shape, ident.degrees, window) == table.entries


def test_csv_and_json_exports_agree_with_table():
    window = BidegreeWindow(2, 8)
    table = cohh_table(build_complex(exterior(2, 3), window))
    csv_text = table_to_csv(table)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "s,t,dim"
    parsed = {}
    for line in lines[1:]:
        s, t, dim = line.split(",")
        parsed[(int(s), int(t))] = int(dim)
    assert parsed == table.entries

    data = table_to_json_dict(table)
    assert data["format_version"] == 3
    from_json = {(e["s"], e["t"]): e["dim"] for e in data["entries"]}
    assert from_json == table.entries
    json.dumps(data)  # serializable


def test_normalized_and_full_cohomology_agree():
    for p in CHARS:
        C = exterior(p, 3)
        window = BidegreeWindow(3, 12)
        normalized = cohh_table(build_complex(C, window, normalized=True))
        full = cohh_table(build_complex(C, window, normalized=False))
        assert normalized.entries == full.entries


def pairwise_product(tables) -> dict:
    """The tests' own Künneth product of tables over one window: each entry
    sums every pair of entries whose bidegrees add up to it."""
    out = tables[0].entries
    for table in tables[1:]:
        out = {
            (s, t): sum(
                out[(s1, t1)] * table.dim(s - s1, t - t1)
                for s1 in range(s + 1)
                for t1 in range(t + 1)
            )
            for (s, t) in out
        }
    return out


def cobar_tables(factors, window) -> list:
    return [cohh_table(build_complex(F, window)) for F in factors]


@pytest.mark.parametrize("p", (0, 2, 3))
def test_kunneth_table_of_product_is_convolution_of_factors(p):
    window = BidegreeWindow(3, 12)
    product_table = cohh_table(build_complex(exterior_times_poly(p), window))
    factors = cobar_tables([exterior(p, 3), poly(p, 2)], window)
    assert product_table.entries == pairwise_product(factors)


def test_universal_coefficients_dim_mod_p_at_least_rational_dim():
    window = BidegreeWindow(3, 12)
    presentations = {
        "k[w2]": lambda p: poly(p, 2),
        "Gamma(2)": lambda p: gamma(p, 2),
        "Lambda(3)xk[w2]": exterior_times_poly,
    }
    strict = set()
    for label, make in presentations.items():
        rational = cohh_table(build_complex(make(0), window))
        for p in (3, 5):
            modular = cohh_table(build_complex(make(p), window))
            assert all(modular.dim(*k) >= v for k, v in rational.entries.items())
            if modular.entries != rational.entries:
                strict.add((label, p))
    # the bound is not vacuous: k[w2] gains classes over F_3
    assert ("k[w2]", 3) in strict


def random_cogenerators(rng, most=2):
    """1..most cogenerators of random kind, parity-valid degree and truncation."""
    cogs = []
    for i in range(rng.randint(1, most)):
        kind = rng.choice((EXTERIOR, POLYNOMIAL, DIVIDED_POWER))
        degree = rng.choice((1, 3, 5) if kind == EXTERIOR else (2, 4, 6))
        truncation = rng.choice((None, 2, 3)) if kind == DIVIDED_POWER else None
        cogs.append(Cogenerator(f"g{i}", kind, degree, truncation))
    return cogs


def test_random_presentations_obey_universal_coefficients_and_normalization():
    rng = random.Random(20211)
    window = BidegreeWindow(3, 12)
    torsion = 0
    for _ in range(12):
        cogs = random_cogenerators(rng)
        p = rng.choice((2, 3, 5))
        C = CoalgebraPresentation(Field(p), cogs)
        modular = cohh_table(build_complex(C, window))
        full = cohh_table(build_complex(C, window, normalized=False))
        assert full.entries == modular.entries, (cogs, p)
        rational = cohh_table(build_complex(CoalgebraPresentation(Field(0), cogs), window))
        assert all(modular.dim(*k) >= v for k, v in rational.entries.items()), (cogs, p)
        torsion += modular.entries != rational.entries
    assert torsion  # some sample has p-torsion, so the bound is not vacuous


def test_factor_route_equals_full_complex_on_random_presentations():
    rng = random.Random(60211)
    window = BidegreeWindow(3, 12)
    kinds = set()
    for _ in range(24):
        cogs = random_cogenerators(rng, most=3)
        p = rng.choice(CHARS)
        C = CoalgebraPresentation(Field(p), cogs)
        table = kunneth_table(C, window).entries
        assert table == cohh_table(build_complex(C, window)).entries, (cogs, p)
        factors = cobar_tables(kunneth_factors(C, window.max_t), window)
        assert table == pairwise_product(factors), (cogs, p)
        kinds.update((c.kind, c.truncation is not None, p) for c in cogs)
    # the sample reaches a Lucas split, a truncated divided power and Q
    assert (POLYNOMIAL, False, 2) in kinds or (POLYNOMIAL, False, 3) in kinds
    assert any(kind == DIVIDED_POWER and truncated for kind, truncated, _ in kinds)
    assert any(p == 0 for *_, p in kinds)


@pytest.mark.parametrize(
    "degree,p,window",
    [
        (2, 2, (3, 16)), (2, 3, (3, 18)), (2, 5, (1, 50)),
        (4, 2, (3, 16)), (4, 3, (2, 36)), (4, 5, (1, 100)),
        (3, 2, (4, 24)),  # odd degree in characteristic 2
    ],
)
def test_lucas_split_of_a_polynomial_cogenerator_equals_full_complex(degree, p, window):
    C = poly(p, degree)
    window = BidegreeWindow(*window)
    factors = kunneth_factors(C, window.max_t)
    digits = [F.cogenerators[0] for F in factors]
    assert [(c.degree, c.truncation) for c in digits] == [
        (degree * p ** i, p - 1) for i in range(len(digits))
    ]
    assert len(digits) >= 3 and degree * p ** len(digits) > window.max_t
    table = kunneth_table(C, window).entries
    assert table == cohh_table(build_complex(C, window)).entries
    assert table == pairwise_product(cobar_tables(factors, window))


@pytest.mark.parametrize(
    "p, kind, degree, distinct",
    [(0, POLYNOMIAL, 2, 1), (0, EXTERIOR, 3, 1), (3, POLYNOMIAL, 2, 2)],
)
def test_kunneth_table_builds_each_distinct_factor_once(
    p, kind, degree, distinct, monkeypatch
):
    """Two cogenerators of one kind and degree, `distinct` distinct factors
    between them (over F_3, k[w2] splits into two Lucas digits up to
    t = 14): no complex is built, and the table is the product of the two
    one-cogenerator cobar tables."""
    window = BidegreeWindow(4, 14)
    one = CoalgebraPresentation(Field(p), [Cogenerator("a", kind, degree)])
    C = CoalgebraPresentation(
        Field(p), [Cogenerator("a", kind, degree), Cogenerator("b", kind, degree)]
    )
    degrees = {F.cogenerators[0].degree for F in kunneth_factors(C, window.max_t)}
    assert len(degrees) == distinct
    expected = pairwise_product(cobar_tables([one, one], window))
    monkeypatch.setattr(cochain, "build_complex", refuse)
    assert kunneth_table(C, window).entries == expected


def small_complex_factors(degrees, primes=(0, 2, 3, 5, 7)):
    """Every parity-valid one-cogenerator factor, truncated at most at 6, that
    gets a small complex."""
    kinds = (EXTERIOR, POLYNOMIAL, DIVIDED_POWER)
    for kind, d, p, n in product(kinds, degrees, primes, (None, 1, 2, 3, 4, 5, 6)):
        if p != 2 and (d % 2 == 1) != (kind == EXTERIOR):
            continue
        if kind == EXTERIOR and n is not None:
            continue
        if kind == POLYNOMIAL and p and (n is None or n >= p):
            continue  # a truncated divided-power dual with several generators
        yield CoalgebraPresentation(Field(p), [Cogenerator("x", kind, d, n)])


def closed_form_equals_cobar(F, window) -> bool:
    """The factor's `factor_series` table, as `kunneth_table` multiplies it
    out, against its cobar complex."""
    return kunneth_table(F, window).entries == cohh_table(build_complex(F, window)).entries


def test_small_factor_complexes_equal_cobar_factor_tables():
    """The closed-form table of each small factor complex against the
    factor's cobar complex: the 276-factor grid at (3, 12) and at (4, 16)."""
    factors = list(small_complex_factors(range(1, 9)))
    assert len(factors) == 276
    for window in (BidegreeWindow(3, 12), BidegreeWindow(4, 16)):
        for F in factors:
            assert closed_form_equals_cobar(F, window), (F.cogenerators, F.field, window)


def test_small_factor_complexes_equal_cobar_in_degree_two_at_a_deeper_window():
    """(5, 20) reaches the maps at t = N d and t = 2 N d for small N; with the
    grid above, 608 cases."""
    window = BidegreeWindow(5, 20)
    factors = list(small_complex_factors([2]))
    assert len(factors) == 56
    for F in factors:
        assert closed_form_equals_cobar(F, window), (F.cogenerators, F.field)


def refuse(*args, **kwargs):
    raise AssertionError("a complex was built or ranked")


def grammar_presentations():
    """Presentations the file grammar can express: every untruncated kind
    over several fields, the inputs of the pinned reports, and none."""
    kinds = (EXTERIOR, POLYNOMIAL, DIVIDED_POWER)
    for kind, d, p in product(kinds, range(1, 5), (0, 2, 3, 5)):
        if p == 2 or (d % 2 == 1) == (kind == EXTERIOR):
            yield CoalgebraPresentation(Field(p), [Cogenerator("x", kind, d)])
    yield exterior(3, 3, 5)
    yield exterior_times_poly(0)
    yield exterior_times_poly(3)
    yield CoalgebraPresentation(Field(0), [])


def test_no_grammar_input_builds_a_complex(monkeypatch):
    """The benchmark's `cohh` inputs, `hz` and every kind the grammar accepts
    get their tables with `build_complex` and `cohh_table` raising."""
    monkeypatch.setattr(cochain, "build_complex", refuse)
    monkeypatch.setattr(cohomology, "cohh_table", refuse)
    kunneth_table(poly(3, 2), BidegreeWindow(6, 24))
    kunneth_table(exterior(3, 3, 5), BidegreeWindow(6, 40))
    assert hz_e2_pipeline(3, BidegreeWindow(3, 6)).table.dim(1, 1) == 1
    for C in grammar_presentations():
        kunneth_table(C, BidegreeWindow(4, 16))


def truncated_poly(p, degree, truncation, names=("w",)):
    return CoalgebraPresentation(
        Field(p), [Cogenerator(n, POLYNOMIAL, degree, truncation) for n in names]
    )


def test_a_polynomial_cogenerator_truncated_past_p_gets_one_checked_cobar_complex(
    monkeypatch,
):
    """k[w2]/(w^6) over F_3 has no closed form: its cobar complex is built
    once for two equal factors, with d.d = 0 checked."""
    window = BidegreeWindow(3, 12)
    F = truncated_poly(3, 2, 5, names=("a",))
    built = []

    def counting(G, win, *args, **kwargs):
        built.append((G.cogenerators, args, kwargs))
        return build_complex(G, win, *args, **kwargs)

    monkeypatch.setattr(cochain, "build_complex", counting)
    table = kunneth_table(truncated_poly(3, 2, 5, names=("a", "b")), window)
    assert built == [(F.cogenerators, (), {})]
    one = cohh_table(build_complex(F, window))
    assert table.entries == pairwise_product([one, one])


def test_a_corrupt_twist_fails_d_squared_on_the_cobar_factor(corrupted_twist):
    with pytest.raises(DifferentialNotSquareZero) as err:
        kunneth_table(truncated_poly(3, 2, 5), BidegreeWindow(3, 18))
    assert str(err.value) == "d.d != 0 first fails at (s,t)=(0, 4)"


@pytest.mark.parametrize("p, removed", [(0, {(1, 6), (2, 6), (3, 12), (4, 12)}), (3, set())])
def test_gamma_2_table_is_pinned(p, removed):
    """Γ_2(x_2), the homology of CP^2, has N = 3: over Q the map by 3 removes
    the classes at (1, 6), (2, 6), (3, 12) and (4, 12); over F_3 it is zero."""
    C = CoalgebraPresentation(Field(p), [Cogenerator("x", DIVIDED_POWER, 2, truncation=2)])
    over_f3 = {
        (0, 0), (0, 2), (0, 4), (1, 2), (1, 4), (1, 6), (2, 6), (2, 8), (2, 10),
        (3, 8), (3, 10), (3, 12), (4, 12),
    }
    table = kunneth_table(C, BidegreeWindow(4, 12))
    assert table.nonzero() == {k: 1 for k in over_f3 - removed}


def test_factor_route_refuses_a_window_over_the_cell_limit():
    limit = cohomology.MAX_WINDOW_CELLS
    kunneth_table(exterior(0, 3), BidegreeWindow(0, limit - 1))
    with pytest.raises(cohomology.WindowTooLarge) as err:
        kunneth_table(exterior(0, 3), BidegreeWindow(1, limit // 2))
    assert f"has {2 * (limit // 2 + 1)} cells; the limit is {limit}" in str(err.value)


def test_factor_route_refuses_more_factor_cells_than_the_budget():
    """The budget counts every Künneth factor, the Lucas digits of a
    polynomial cogenerator over F_p too, before any factor is built."""
    limit = cohomology.MAX_FACTOR_CELLS
    window = BidegreeWindow(0, 19_999)  # 20 000 cells, the most accepted
    factors = limit // 20_000
    check_window(window, factors)
    with pytest.raises(cohomology.WindowTooLarge) as err:
        check_window(window, factors + 1)
    assert str(err.value) == (
        f"{factors + 1} factors times the 20000 cells of window "
        f"BidegreeWindow(max_s=0, max_t=19999) make {(factors + 1) * 20_000}; "
        f"the limit is {limit}"
    )
    # w_1 over F_2 splits into the 15 digit factors of degree 2^i <= 19 999
    three = CoalgebraPresentation(
        Field(2), [Cogenerator(f"w{i}", POLYNOMIAL, 1) for i in range(3)]
    )
    assert len(kunneth_factors(three, window.max_t)) == 45
    with pytest.raises(cohomology.WindowTooLarge, match="^45 factors times"):
        kunneth_table(three, window)


def test_three_dense_factors_give_the_triangular_numbers():
    """Three Γ(x_1) over F_2, a class in every degree each: row s = 0 of
    their product is the Poincaré series 1/(1 - q)^3."""
    C = CoalgebraPresentation(
        Field(2), [Cogenerator(f"x{i}", DIVIDED_POWER, 1) for i in range(3)]
    )
    table = kunneth_table(C, BidegreeWindow(0, 99))
    assert [table.dim(0, t) for t in range(100)] == [
        (t + 1) * (t + 2) // 2 for t in range(100)
    ]


def test_window_refusals_keep_their_messages():
    with pytest.raises(WindowTooSmall) as err:
        check_window(BidegreeWindow(-1, 24))
    assert str(err.value) == "window BidegreeWindow(max_s=-1, max_t=24) has a negative bound"
    with pytest.raises(WindowTooSmall) as err:
        kunneth_table(exterior(3, 3), BidegreeWindow(6, -3))
    assert str(err.value) == "window BidegreeWindow(max_s=6, max_t=-3) has a negative bound"
    with pytest.raises(cohomology.WindowTooLarge) as err:
        kunneth_table(exterior(3, 3), BidegreeWindow(100, 1000))
    assert str(err.value) == (
        "window BidegreeWindow(max_s=100, max_t=1000) has 101101 cells; the limit is 20000"
    )
    check_window(BidegreeWindow(0, 0))


def test_truncated_polynomial_cogenerator_is_not_split():
    # w^0..w^5 over F_3 is a subcoalgebra, but not a product of digit factors
    cog = Cogenerator("w", POLYNOMIAL, 2, truncation=5)
    C = CoalgebraPresentation(Field(3), [cog])
    window = BidegreeWindow(3, 18)
    assert [F.cogenerators for F in kunneth_factors(C, window.max_t)] == [(cog,)]
    assert kunneth_table(C, window).entries == cohh_table(build_complex(C, window)).entries


def test_factor_route_of_the_empty_presentation_is_the_unit():
    window = BidegreeWindow(2, 4)
    table = kunneth_table(CoalgebraPresentation(Field(3), []), window)
    assert table.entries == {(s, t): int((s, t) == (0, 0)) for s in range(3) for t in range(5)}


def test_presentation_euler_check_matches_the_cobar_euler_check_and_catches_one_entry():
    for C, window in [
        (exterior(3, 3, 5), BidegreeWindow(4, 16)),
        (poly(0, 2), BidegreeWindow(3, 10)),
        (gamma(5, 2), BidegreeWindow(2, 8)),
    ]:
        cx = build_complex(C, window)
        table = kunneth_table(C, window)
        report = presentation_euler_check(C, window, table)
        assert report.passed and report.checked_degrees
        assert report == euler_check(cx, cohh_table(cx))
    C, window = exterior(3, 3), BidegreeWindow(4, 12)
    table = kunneth_table(C, window)
    table.entries[(1, 6)] += 1
    report = presentation_euler_check(C, window, table)
    assert not report.passed and report.first_violation == 6


def spots_satisfy_the_euler_reference(C, window, spots):
    """In every degree the Euler check covers, the alternating sum of the
    spot sizes is delta_{t,0}, the check's closed-form reference, and the
    check passes on the spot sizes taken as a table."""
    report = presentation_euler_check(C, window, BigradedTable(window, spots))
    # with no cogenerator every spot of positive degree is empty
    least = min((c.degree for c in C.cogenerators), default=window.max_t + 1)
    covered = [t for t in range(window.max_t + 1) if t // least <= window.max_s]
    assert report.passed and report.checked_degrees == covered, (C.cogenerators, window)
    for t in covered:
        euler = sum((-1) ** s * spots[(s, t)] for s in range(window.max_s + 1))
        assert euler == int(t == 0), (C.cogenerators, window, t)


@pytest.mark.parametrize("p", (0, 2, 3))
def test_enumerated_spots_sum_to_delta_t0_in_every_checked_degree(p):
    truncated = CoalgebraPresentation(
        Field(p), [Cogenerator("w", POLYNOMIAL, 2, truncation=3), Cogenerator("y", EXTERIOR, 3)]
    )
    window = BidegreeWindow(3, 12)
    rng = random.Random(417 + p)
    presentations = [exterior(p, 3, 5), poly(p, 2), gamma(p, 4), truncated, exterior_times_poly(p)]
    presentations += [
        CoalgebraPresentation(Field(p), random_cogenerators(rng, most=3)) for _ in range(20)
    ]
    for C in presentations:
        spots = {
            (s, t): len(tensor_basis(C, s, t, normalized=True))
            for s in range(4) for t in range(13)
        }
        spots_satisfy_the_euler_reference(C, window, spots)


def series_product_spots(C, window):
    """n_{s,t} = [q^t] a(q)(a(q) - 1)^s by truncated series products, with a(q)
    the product of each cogenerator's series 1 + q^d + ... + q^(n d)."""
    n = window.max_t + 1

    def times(x, y):
        return [sum(x[i] * y[t - i] for i in range(t + 1)) for t in range(n)]

    a = [1] + [0] * window.max_t
    for cog in C.cogenerators:
        top = 1 if cog.kind == EXTERIOR else cog.truncation
        a = times(a, [int(t % cog.degree == 0 and (top is None or t <= top * cog.degree))
                      for t in range(n)])
    reduced = [0] + a[1:]
    out, row = {}, a
    for s in range(window.max_s + 1):
        out.update({(s, t): v for t, v in enumerate(row)})
        row = times(row, reduced)
    return out


def test_series_product_spots_sum_to_delta_t0_on_tall_and_wide_windows():
    rng = random.Random(1313)
    windows = (BidegreeWindow(0, 0), BidegreeWindow(12, 30), BidegreeWindow(3, 90))
    presentations = [
        exterior(3, 3, 5),
        CoalgebraPresentation(
            Field(0), [Cogenerator("y", EXTERIOR, 3), Cogenerator("w", POLYNOMIAL, 4)]
        ),
        CoalgebraPresentation(Field(2), []),
    ]
    presentations += [
        CoalgebraPresentation(Field(p), random_cogenerators(rng, most=3))
        for p in (0, 2, 3) for _ in range(4)
    ]
    for C in presentations:
        for window in windows:
            spots_satisfy_the_euler_reference(C, window, series_product_spots(C, window))
