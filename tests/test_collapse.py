import json
import random
import time
from fractions import Fraction

import pytest

from cohh import collapse
from cohh.cli import format_e2, main, parse_e2, render_collapse_report
from cohh.coalg import (
    DIVIDED_POWER,
    EXTERIOR,
    GAMMA_EXTERIOR,
    KINDS,
    LAMBDA_POLY,
    POLYNOMIAL,
    TRIVIAL,
    BidegreeWindow,
    CoalgebraPresentation,
    Cogenerator,
    E2Generator,
    E2Presentation,
    Field,
    WrongShape,
    standard_page,
)
from cohh.collapse import (
    MAX_SOURCES,
    analyze,
    candidate_sources,
    candidate_targets,
    exton2_hypotheses,
    source_count,
)
from cohh.cohomology import identify_presentation, kunneth_table
from cohh.errors import InvalidInput
from cohh.selftest import brute_force_feasible


def obstruction_lines(e2, cert):
    """The `  d_r:` lines of the collapse report, without their indent."""
    report = render_collapse_report(e2, cert, "table")
    return [line[2:] for line in report.splitlines() if line.startswith("  d_")]


def candidates(e2, max_t):
    """(source, target, page) of each witness of each obstruction, in order."""
    return [(w, o.target, o.page) for o in analyze(e2, max_t).obstructions for w in o.witnesses]


def test_e2_validation():
    with pytest.raises(WrongShape):
        E2Presentation(3, [E2Generator("w", POLYNOMIAL, 0, 2)])
    with pytest.raises(WrongShape):
        E2Presentation(3, [E2Generator("x", DIVIDED_POWER, 1, 2)])
    with pytest.raises(WrongShape):
        E2Presentation(3, [E2Generator("y", EXTERIOR, 2, 3)])
    with pytest.raises(WrongShape):
        E2Presentation(3, [E2Generator("y", EXTERIOR, 0, 4)])
    # characteristic 2 waives the column-0 parity constraint
    E2Presentation(2, [E2Generator("y", EXTERIOR, 0, 4)])
    with pytest.raises(InvalidInput):
        E2Presentation(3, [E2Generator("y", EXTERIOR, 0, 0)])


def test_shapes():
    assert standard_page(LAMBDA_POLY, 3, [3]).shape() == "lambda_poly"
    assert standard_page(GAMMA_EXTERIOR, 3, [2]).shape() == "gamma_exterior"
    assert E2Presentation(3, []).shape() == "trivial"
    mixed = E2Presentation(
        3,
        [E2Generator("x", DIVIDED_POWER, 0, 2), E2Generator("w", POLYNOMIAL, 1, 2)],
    )
    assert mixed.shape() == "other"
    with pytest.raises(WrongShape):
        analyze(mixed, 20)


def test_candidate_sources_single_generator():
    e2 = standard_page(LAMBDA_POLY, 3, [3])
    sources = candidate_sources(e2, 30)
    names = [e2.format_monomial(m) for m, _ in sources]
    assert names == ["w1", "y1*w1"]
    assert [bid for _, bid in sources] == [(1, 3), (1, 6)]


def test_candidate_sources_two_generators():
    e2 = standard_page(LAMBDA_POLY, 3, [3, 5])
    names = {e2.format_monomial(m) for m, _ in candidate_sources(e2, 40)}
    assert names == {
        "w1", "w2", "y1*w1", "y2*w1", "y1*w2", "y2*w2",
        "y1*y2*w1", "y1*y2*w2",
    }


def test_candidate_sources_without_polynomial_part():
    e2 = E2Presentation(3, [E2Generator("y", EXTERIOR, 0, 3)])
    assert candidate_sources(e2, 30) == []


def test_candidate_targets():
    e2 = standard_page(LAMBDA_POLY, 3, [3])
    got = {e2.format_monomial(m) for m, _ in candidate_targets(e2, 30)}
    assert got == {"y1", "w1", "w1^3", "w1^9"}
    e0 = standard_page(LAMBDA_POLY, 0, [3])
    got0 = {e0.format_monomial(m) for m, _ in candidate_targets(e0, 30)}
    assert got0 == {"y1", "w1"}
    empty = E2Presentation(5, [])
    assert candidate_targets(empty, 30) == []


@pytest.mark.parametrize("degree", [3, 5, 7])
@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_single_generator_feasible_is_empty(degree, p):
    e2 = standard_page(LAMBDA_POLY, p, [degree])
    assert candidates(e2, 10 * degree) == []


def test_known_obstruction_p3():
    e2 = standard_page(LAMBDA_POLY, 3, [3, 5])
    cert = analyze(e2, 40)
    # y2*w1 and y1*w2 share bidegree (1,8); both hit w1^3 on page 2
    assert obstruction_lines(e2, cert) == [
        "d_2: y2*w1 (1, 8) -> w1^3 (3, 9) (same-bidegree sources: y1*w2)",
    ]
    o = cert.obstructions[0]
    assert e2.format_monomial(o.source) == "y2*w1"
    assert e2.format_monomial(o.target) == "w1^3"
    assert o.page == 2
    assert {e2.format_monomial(w) for w in o.witnesses} == {"y2*w1", "y1*w2"}


def test_known_obstruction_p2():
    e2 = standard_page(LAMBDA_POLY, 2, [3, 5])
    cert = analyze(e2, 40)
    assert obstruction_lines(e2, cert) == [
        "d_3: y2*w2 (1, 10) -> w1^4 (4, 12)",
    ]
    assert cert.verdict == "obstructed"
    assert len(cert.obstructions) == 1 and cert.obstructions[0].page == 3


def test_bidegree_law_reverified():
    for degrees, p in (([3, 5], 3), ([3, 5], 2), ([5, 7], 3)):
        e2 = standard_page(LAMBDA_POLY, p, degrees)
        for o in analyze(e2, 40).obstructions:
            for w in o.witnesses:
                assert o.source_bidegree == e2.bidegree(w)
            assert o.target_bidegree == e2.bidegree(o.target)
            s, t = o.source_bidegree
            assert (s + o.page, t + o.page - 1) == o.target_bidegree
            assert o.page >= 2


def test_exton2_hypotheses_examples():
    checks = exton2_hypotheses(standard_page(LAMBDA_POLY, 3, [3, 5]))
    assert checks["pm_ne_ratio_plus_one"] is False  # (5-1)/(3-1)+1 = 3 = 3^1
    assert checks["p2_pm_ne_ratio"] is True
    checks = exton2_hypotheses(standard_page(LAMBDA_POLY, 2, [3, 5]))
    assert checks["pm_ne_ratio_plus_one"] is True
    assert checks["p2_pm_ne_ratio"] is False  # (5-1)/(3-1) = 2 = 2^1
    checks = exton2_hypotheses(standard_page(LAMBDA_POLY, 5, [3, 7]))
    assert all(checks.values())  # (7-1)/(3-1)+1 = 4 is not a power of 5
    with pytest.raises(WrongShape):
        exton2_hypotheses(standard_page(LAMBDA_POLY, 3, [3]))


def fraction_hypotheses(a: int, b: int, p: int) -> dict:
    """The ratio checks as first stated, on R = (b-1)/(a-1) in Fractions."""
    ratio = Fraction(b - 1, a - 1)

    def power_hits(value):
        q = p
        while p and q <= value:
            if q == value:
                return True
            q *= p
        return False

    return {
        "degrees_odd_and_gt1": a % 2 == 1 and b % 2 == 1 and a > 1,
        "pm_ne_ratio_plus_one": not power_hits(ratio + 1),
        "p2_pm_ne_ratio": True if p != 2 else not power_hits(ratio),
        "odd_p_pm_ne_twice_ratio": True if p == 2 else not power_hits(2 * ratio),
    }


def test_integer_ratio_checks_equal_the_fraction_reference():
    cases = [(a, b, p) for a in range(3, 62, 2) for b in range(a, 62, 2)
             for p in (0, 2, 3, 5, 7)]
    cases += [(a, b, 2) for a in range(2, 62, 2) for b in range(a, 62)]
    hits = 0
    for a, b, p in cases:
        got = exton2_hypotheses(standard_page(LAMBDA_POLY, p, [b, a]))
        assert got == fraction_hypotheses(a, b, p), (a, b, p)
        hits += not all(got.values())
    assert hits >= 100  # the reference sees every check fail somewhere


def test_degree_one_exterior_generator_fails_the_ratio_checks():
    """R = (b-1)/(a-1) is undefined for a = 1: every ratio check fails, and
    the verdict comes from the search alone."""
    for p, degrees in ((3, [1, 3]), (2, [1, 1]), (0, [1, 5])):
        e2 = standard_page(LAMBDA_POLY, p, degrees)
        assert not any(exton2_hypotheses(e2).values()), (p, degrees)
        cert = analyze(e2, 40)
        want = "obstructed" if brute_force_feasible(e2, 40) else "collapses"
        assert cert.verdict == want


def test_two_condition_gap_cases_need_the_third_check():
    """Four sweep cases satisfy both ratio conditions yet keep a candidate;
    the doubled-ratio check is what rules them out."""
    gap_cases = [((5, 7), 3), ((5, 11), 5), ((5, 15), 7), ((9, 13), 3)]
    for degrees, p in gap_cases:
        e2 = standard_page(LAMBDA_POLY, p, list(degrees))
        checks = exton2_hypotheses(e2)
        assert checks["pm_ne_ratio_plus_one"] is True
        assert checks["p2_pm_ne_ratio"] is True
        assert checks["odd_p_pm_ne_twice_ratio"] is False
        cands = candidates(e2, 40)
        assert len(cands) == 1
        source, target, _ = cands[0]
        assert e2.format_monomial(source) == "y2*w2"
        assert target[2] and not any(target[i] for i in (0, 1, 3))  # a w1 power


def test_no_bare_w_sources_ever_feasible():
    for a in range(3, 16, 2):
        for b in range(a, 16, 2):
            for p in (0, 2, 3, 5, 7):
                e2 = standard_page(LAMBDA_POLY, p, [a, b])
                ext_count = 2
                for source, _, _ in candidates(e2, 40):
                    assert sum(source[:ext_count]) >= 1


def test_gamma_collapse():
    cert = analyze(standard_page(GAMMA_EXTERIOR, 3, [2]), 20)
    assert cert.verdict == "collapses" and cert.argument
    cert = analyze(standard_page(GAMMA_EXTERIOR, 0, [2, 4]), 20)
    assert cert.verdict == "collapses" and not cert.obstructions
    assert cert.max_t == 20 and cert.max_page_searched is None


def test_analyze_dispatch_and_trivial():
    cert = analyze(E2Presentation(3, []), 20)
    assert cert.verdict == "collapses" and not cert.obstructions
    cert = analyze(standard_page(GAMMA_EXTERIOR, 3, [2]), 20)
    assert cert.shape == "gamma_exterior"
    cert = analyze(standard_page(LAMBDA_POLY, 5, [3]), 30)
    assert cert.verdict == "collapses"
    assert cert.max_page_searched is not None


def test_oracle_equivalence_spot_checks():
    for degrees, p in (([3, 5], 3), ([3, 5], 2), ([3], 0), ([5, 7], 3)):
        e2 = standard_page(LAMBDA_POLY, p, degrees)
        assert set(candidates(e2, 40)) == brute_force_feasible(e2, 40)


BENCHMARK_E2_DEGREES = list(range(3, 26, 2))   # 12 exterior generators


@pytest.mark.parametrize("p", [2, 3])
def test_indexed_search_equals_the_all_pairs_oracle(p):
    e2 = standard_page(LAMBDA_POLY, p, BENCHMARK_E2_DEGREES)
    fast = set(candidates(e2, 40))
    assert fast and fast == brute_force_feasible(e2, 40)
    for exps, bidegree in candidate_sources(e2, 40):
        assert bidegree == e2.bidegree(exps)


def test_pruned_search_skips_generators_above_max_t():
    """2^20 exterior subsets, none of which fits under max_t: the pruned
    search visits none of them."""
    degrees = list(range(41, 80, 2))
    gens = [E2Generator(f"y{d}", EXTERIOR, 0, d) for d in degrees]
    e2 = E2Presentation(2, gens + [E2Generator("w", POLYNOMIAL, 1, 41)])
    start = time.perf_counter()
    cert = analyze(e2, 40)
    assert candidate_sources(e2, 40) == []
    assert time.perf_counter() - start < 1.0
    assert cert.verdict == "collapses" and not cert.obstructions


def test_source_count_equals_the_stream():
    rng = random.Random(11)
    for _ in range(40):
        gens = [
            E2Generator(f"y{i}", EXTERIOR, 0, rng.randrange(1, 30, 2))
            for i in range(rng.randrange(0, 9))
        ]
        gens += [
            E2Generator(f"w{i}", POLYNOMIAL, 1, rng.randrange(1, 30))
            for i in range(rng.randrange(0, 4))
        ]
        e2 = E2Presentation(3, gens)
        max_t = rng.randrange(0, 90)
        assert source_count(e2, max_t) == len(candidate_sources(e2, max_t)), gens
    benchmark_page = standard_page(LAMBDA_POLY, 2, BENCHMARK_E2_DEGREES)
    assert source_count(benchmark_page, 160) == 48623 <= MAX_SOURCES


def random_pages(seed: int, count: int):
    """Seeded Λ ⊗ k[w] pages: p in {0, 2, 3, 5, 7}, up to 8 exterior and 4
    polynomial generators in shuffled order, and a max_t below 70."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice([0, 2, 3, 5, 7])
        gens = [
            E2Generator(f"y{i}", EXTERIOR, 0, rng.randrange(1, 30, 1 if p == 2 else 2))
            for i in range(rng.randrange(0, 9))
        ]
        gens += [
            E2Generator(f"w{i}", POLYNOMIAL, 1, rng.randrange(2, 20))
            for i in range(rng.randrange(0, 5))
        ]
        rng.shuffle(gens)
        yield E2Presentation(p, gens), rng.randrange(0, 70)


def test_closed_form_search_equals_the_all_pairs_oracle_on_random_pages():
    hits = 0
    for e2, max_t in random_pages(15, 120):
        fast = candidates(e2, max_t)
        assert len(fast) == len(set(fast))
        assert set(fast) == brute_force_feasible(e2, max_t), (e2.generators, max_t)
        hits += bool(fast)
    assert hits >= 20


def test_obstructions_are_the_oracle_candidates_grouped_by_map():
    """One obstruction per (source bidegree, target, page) of the oracle's
    candidates, its witnesses sorted and its source the least of them, and
    no candidate's page past max_page_searched."""
    for e2, max_t in random_pages(16, 120):
        grouped: dict = {}
        for source, target, page in brute_force_feasible(e2, max_t):
            key = (e2.bidegree(source), target, page)
            grouped.setdefault(key, []).append(source)
        cert = analyze(e2, max_t)
        got = {
            (o.source_bidegree, o.target, o.page): list(o.witnesses)
            for o in cert.obstructions
        }
        assert got == {k: sorted(v) for k, v in grouped.items()}
        assert len(got) == len(cert.obstructions)
        for o in cert.obstructions:
            assert o.source == o.witnesses[0]
            assert o.target_bidegree == e2.bidegree(o.target)
        keys = [(o.source_bidegree[1], o.page, o.source, o.target) for o in cert.obstructions]
        assert keys == sorted(keys)
        pages = [page for _, _, page in grouped]
        assert max([cert.max_page_searched or 0, *pages]) == (cert.max_page_searched or 0)


def test_analyze_reads_no_source_list(monkeypatch):
    """The obstructions come from the targets: with every way of listing the
    sources broken, the benchmark's page is still certified."""
    def broken(*args):
        raise AssertionError("analyze listed the sources")

    monkeypatch.setattr(collapse, "candidate_sources", broken)
    e2 = standard_page(LAMBDA_POLY, 2, BENCHMARK_E2_DEGREES)
    cert = analyze(e2, 160)
    assert cert.verdict == "obstructed"
    assert sum(len(o.witnesses) for o in cert.obstructions) == 8621


def test_over_budget_page_is_refused_before_streaming():
    e2 = standard_page(LAMBDA_POLY, 3, list(range(3, 42, 2)))
    start = time.perf_counter()
    with pytest.raises(InvalidInput, match="stream 1610037 sources"):
        analyze(e2, 160)
    assert time.perf_counter() - start < 1.0


def test_page_with_too_many_set_degrees_is_refused(monkeypatch):
    """Distinct exterior set degrees bound the count from below, so the count
    stops once they alone pass the budget."""
    monkeypatch.setattr(collapse, "MAX_SOURCES", 100)
    gens = [E2Generator(f"y{i}", EXTERIOR, 0, 2**i + 1) for i in range(1, 12)]
    e2 = E2Presentation(3, gens + [E2Generator("w", POLYNOMIAL, 1, 2)])
    with pytest.raises(InvalidInput, match="stream more than 1[0-9][0-9] sources"):
        source_count(e2, 10**6)


def test_negative_max_t_is_refused():
    with pytest.raises(InvalidInput, match="negative"):
        analyze(standard_page(LAMBDA_POLY, 3, [3, 5]), -1)


def test_certificate_json():
    e2 = standard_page(LAMBDA_POLY, 3, [3, 5])
    cert = analyze(e2, 40)
    data = json.loads(render_collapse_report(e2, cert, "json"))
    assert data["verdict"] == "obstructed"
    assert data["obstructions"][0]["source"] == "y2*w1"
    assert data["obstructions"][0]["target"] == "w1^3"
    assert data["obstructions"][0]["same_bidegree_sources"] == ["y2*w1", "y1*w2"]
    assert data["search_bounds"]["max_t"] == 40
    assert data["convergence_note"] is None
    assert data["format_version"] == 1
    page = standard_page(LAMBDA_POLY, 5, [3])
    collapsing = json.loads(render_collapse_report(page, analyze(page, 30), "json"))
    assert collapsing["convergence_note"]


def random_presentations(seed: int, count: int):
    """Seeded presentations of 1-3 cogenerators over p in {0, 2, 3, 5}, each
    with a window (max_s in 1..4, max_t in 1..30): the parity that p asks of
    each kind, degrees 1..8, and small windows, which can match both grids."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice((0, 2, 3, 5))
        cogs = []
        for i in range(rng.randint(1, 3)):
            kind = rng.choice(KINDS)
            degree = rng.randint(1, 8)
            if p != 2 and degree % 2 != (kind == EXTERIOR):
                degree += 1
            cogs.append(Cogenerator(f"g{i}", kind, degree))
        window = BidegreeWindow(rng.randint(1, 4), rng.randint(1, 30))
        yield CoalgebraPresentation(Field(p), cogs), window


def test_collapse_of_an_identified_page_equals_collapse_of_its_e2_file(tmp_path):
    """The page `identify_presentation` names is the page `cohh collapse`
    reads: written out by `format_e2`, it parses back equal, and the CLI's
    verdict, obstructions and hypothesis checks are `analyze`'s on it."""
    fields = ("verdict", "shape", "obstructions", "hypothesis_checks")
    shapes = []
    for C, window in random_presentations(2026, 240):
        page = identify_presentation(kunneth_table(C, window))
        if page is None:
            continue
        shapes.append(page.shape())
        text = format_e2(page)
        assert parse_e2(text) == page, text
        src, out = tmp_path / "page.e2", tmp_path / "report.json"
        src.write_text(text, encoding="utf-8")
        max_t = window.max_t + 10
        assert main(["collapse", str(src), "--max-t", str(max_t), "--format", "json",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        want = json.loads(render_collapse_report(page, analyze(page, max_t), "json"))
        assert {k: report[k] for k in fields} == {k: want[k] for k in fields}, text
    assert len(shapes) >= 100
    assert {LAMBDA_POLY, GAMMA_EXTERIOR, TRIVIAL} <= set(shapes)
