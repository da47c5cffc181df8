"""Acceptance suite: every shipped guarantee as one named pass/fail check.

The same harness backs the `cohh selftest` CLI command and the pytest
acceptance module.  Each check is exact (integer equality against an
independently enumerated answer) and deterministic; timing lives on the
result object, never inside the printable detail.

The oracles that only these checks and the tests use live here, not in the
modules production commands load: the coalgebra axiom checks (with the
slotwise coproduct that coassociativity applies), the codegeneracies and
the cosimplicial identity scan, the basis filters for the primitive and
indecomposable closed forms, and the all-pairs collapse scan.  They restate
no coalgebra rule: an integer sum becomes a field element through
`coalg.reduced_sums`, and the reduced coproduct, whose kernel the primitive
filter reads, is the presentation's `reduced_coproduct`.

The identity scan evaluates whole levels.  Every coface and codegeneracy
preserves the internal degree, so each is built once per cosimplicial level,
over every internal degree of the window, as a list of columns, each a tuple
of (row, coefficient) pairs: the layout of a differential, made spot by spot
by the same `cochain.image_columns`.  Each side of an identity is then one
flat dict for the whole level, keyed column * R + row with R the size of the
target level, rather than one matrix product per spot; the two sides are
reduced mod p only if they differ as integer sums.  A mismatch is still
reported, and counted up to, at the first failing spot in the per-spot order;
but a map is built for its whole level, so an image term outside the target
basis at any t raises before an identity that uses the map is compared at all.
The full tensor bases, the row index of each spot and the codegeneracy maps,
which only delete a unit slot with coefficient 1, do not depend on the field:
they are built once per cogenerator list and window, in the presentation's
`oracle_memo`, which `over` shares.  The cofaces, whose coefficients do, are
built per scan.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import namedtuple
from functools import partial
from itertools import combinations_with_replacement, product

from .coalg import (
    DIVIDED_POWER,
    EXTERIOR,
    GAMMA_EXTERIOR,
    LAMBDA_POLY,
    POLYNOMIAL,
    BidegreeWindow,
    CoalgebraPresentation,
    Cogenerator,
    E2Presentation,
    Field,
    reduced_sums,
    standard_page,
)
from .cochain import _window_bases, build_complex, coface_terms, compose_columns, image_columns
from .cohomology import cohh_table, euler_check, kunneth_table, page_grid
from .collapse import analyze, exton2_hypotheses
from .errors import InvariantFailure
from .hopfstruct import AlgebraPresentation, indecomposables, primitives
from .torpipe import hz_e2_pipeline

CHARACTERISTICS = (0, 2, 3, 5)
LAMBDA_DEGREES = (3, 5, 7)
GAMMA_DEGREES = (2, 4)
GAMMA_TRUNCATION = 8
SWEEP_PRIMES = (0, 2, 3, 5, 7)
SWEEP_MAX_T = 40
# Wall-clock budget per check, never below 1 s; the acceptance tests hold
# every run to it.  Against the median of 21 `cohh selftest` processes on a
# shared 2-vCPU host, structural-invariants' 5 s is 60 to 80 times its time,
# primitive-indecomposable-closed-forms' 1 s about 100 times, and every other
# budget 150 times or more.
TIME_BUDGETS_SECONDS = {
    "lambda-grid-reproduction": 1,
    "divided-power-grid-reproduction": 1,
    "hz-pipeline": 1,
    "collapse-certificates": 1,
    "hypothesis-feasibility-sweep": 1,
    "structural-invariants": 5,
    "primitive-indecomposable-closed-forms": 1,
    "collapse-oracle-equivalence": 1,
}


CheckResult = namedtuple("CheckResult", "name passed detail elapsed")


def _lambda_presentation(p: int, degrees) -> CoalgebraPresentation:
    return CoalgebraPresentation(
        Field(p),
        [Cogenerator(f"y{i + 1}" if len(degrees) > 1 else "y", EXTERIOR, d)
         for i, d in enumerate(degrees)],
    )


def _poly_presentation(p: int, degree: int) -> CoalgebraPresentation:
    return CoalgebraPresentation(Field(p), [Cogenerator("w", POLYNOMIAL, degree)])


def _gamma_presentation(
    p: int, degree: int, truncation: int = GAMMA_TRUNCATION
) -> CoalgebraPresentation:
    return CoalgebraPresentation(
        Field(p), [Cogenerator("x", DIVIDED_POWER, degree, truncation=truncation)]
    )


def _check_grids(shape, degrees, max_s, t_per_degree, presentation, generator, grid):
    """`kunneth_table` of presentation(p, d) against the `page_grid` of
    standard_page(shape, p, [d]) at (max_s, t_per_degree * d), for each
    degree d and characteristic p."""
    for d, p in product(degrees, CHARACTERISTICS):
        window = BidegreeWindow(max_s, t_per_degree * d)
        table = kunneth_table(presentation(p, d), window)
        if table.entries != page_grid(standard_page(shape, p, [d]), window):
            return False, f"table mismatch for |{generator}|={d} over characteristic {p}"
    return True, f"{len(degrees) * len(CHARACTERISTICS)} tables equal the {grid} grid"


def check_lambda_tables():
    return _check_grids(LAMBDA_POLY, LAMBDA_DEGREES, 4, 5,
                        lambda p, d: _lambda_presentation(p, [d]), "y", "exterior x polynomial")


def check_gamma_tables():
    return _check_grids(GAMMA_EXTERIOR, GAMMA_DEGREES, 2, 4, _gamma_presentation, "x",
                        "divided-power x exterior")


def check_hz_pipeline():
    window = BidegreeWindow(3, 6)
    grid = page_grid(standard_page(LAMBDA_POLY, 0, [1]), window)
    for p in (2, 3, 5):
        result = hz_e2_pipeline(p, window)
        if result.table.entries != grid:
            return False, f"table mismatch at p={p}"
        if result.description != f"Λ(τ)⊗F_{p}[ω], ||τ||=(0,1), ||ω||=(1,1)":
            return False, f"identification string wrong at p={p}: {result.description}"
    return True, "pipeline reproduces the (0,1)/(1,1) grid at p=2,3,5"


def check_collapse_certificates():
    for d in LAMBDA_DEGREES:
        for p in CHARACTERISTICS:
            cert = analyze(standard_page(LAMBDA_POLY, p, [d]), max_t=10 * d)
            if cert.verdict != "collapses" or cert.obstructions:
                return False, f"single-generator case |y|={d}, p={p} did not collapse"
    # two generators of degrees 3 and 5: the two known low-degree obstructions
    cert3 = analyze(standard_page(LAMBDA_POLY, 3, [3, 5]), max_t=SWEEP_MAX_T)
    want_src = (0, 1, 1, 0)   # y2*w1 in generator order y1, y2, w1, w2
    want_tgt = (0, 0, 3, 0)   # w1^3
    if cert3.verdict != "obstructed" or len(cert3.obstructions) != 1:
        return False, f"p=3 case: expected exactly one obstruction, got {len(cert3.obstructions)}"
    o = cert3.obstructions[0]
    if (o.source, o.target, o.page) != (want_src, want_tgt, 2):
        return False, "p=3 case: obstruction is not d_2: y2*w1 -> w1^3"
    cert2 = analyze(standard_page(LAMBDA_POLY, 2, [3, 5]), max_t=SWEEP_MAX_T)
    hits = [
        o for o in cert2.obstructions
        if (o.source, o.target, o.page) == ((0, 1, 0, 1), (0, 0, 4, 0), 3)
    ]
    if not hits:
        return False, "p=2 case: missing d_3: y2*w2 -> w1^4"
    for degrees in ([2], [4], [2, 4]):
        for p in (0, 3):
            cert = analyze(standard_page(GAMMA_EXTERIOR, p, degrees), max_t=SWEEP_MAX_T)
            if cert.verdict != "collapses" or cert.argument is None:
                return False, f"divided-power case {degrees}, p={p} lacks the column argument"
    return True, "single-generator collapse, both known obstructions, column argument"


def check_hypothesis_sweep():
    verified = 0
    for a, b in combinations_with_replacement(range(3, 16, 2), 2):
        for p in SWEEP_PRIMES:
            e2 = standard_page(LAMBDA_POLY, p, [a, b])
            if all(exton2_hypotheses(e2).values()):
                if analyze(e2, SWEEP_MAX_T).obstructions:
                    return False, f"hypotheses hold but candidates survive: |y|=({a},{b}), p={p}"
                verified += 1
    return True, f"{verified} hypothesis-clean cases have empty candidate lists"


# -- oracles: coalgebra axioms and cosimplicial identities --------------------


def apply_coproduct_to_slot(C: CoalgebraPresentation, terms: dict, slot: int) -> dict:
    """Apply the coproduct to one slot of tensor-monomial terms.

    Keys are tuples of monomials; the slot splits into two adjacent slots.
    The coproduct has degree 0, so no Koszul sign appears.
    """
    sums: dict = {}
    for tup, coeff in terms.items():
        head, tail = tup[:slot], tup[slot + 1:]
        for ab, c in C.coproduct_monomial(tup[slot]).items():
            key = head + ab + tail
            sums[key] = sums.get(key, 0) + coeff * c
    return reduced_sums(sums, C.field.characteristic)


def coassociativity_ok(C: CoalgebraPresentation, max_t: int = 24) -> bool:
    """(coproduct x Id).coproduct == (Id x coproduct).coproduct on the basis."""
    for t in range(max_t + 1):
        for m in C.basis_in_degree(t):
            once = C.coproduct_monomial(m)  # keyed by the pairs (a, b)
            if apply_coproduct_to_slot(C, once, 0) != apply_coproduct_to_slot(C, once, 1):
                return False
    return True


def counitality_ok(C: CoalgebraPresentation, max_t: int = 24) -> bool:
    """(counit x Id).coproduct == Id == (Id x counit).coproduct on the basis."""
    p = C.field.characteristic
    for t in range(max_t + 1):
        for m in C.basis_in_degree(t):
            left: dict = {}
            right: dict = {}
            for (a, b), c in C.coproduct_monomial(m).items():
                if not any(a):
                    left[b] = left.get(b, 0) + c
                if not any(b):
                    right[a] = right.get(a, 0) + c
            if reduced_sums(left, p) != {m: 1} or reduced_sums(right, p) != {m: 1}:
                return False
    return True


def cocommutativity_ok(C: CoalgebraPresentation, max_t: int = 24) -> bool:
    """twist.coproduct == coproduct, with the Koszul sign in the twist."""
    p = C.field.characteristic
    for t in range(max_t + 1):
        for m in C.basis_in_degree(t):
            expansion = C.coproduct_monomial(m)
            twisted: dict = {}
            for (a, b), c in expansion.items():
                if (C.degree(a) * C.degree(b)) % 2:
                    c = -c
                twisted[(b, a)] = twisted.get((b, a), 0) + c
            if reduced_sums(twisted, p) != expansion:
                return False
    return True


def codegeneracy_terms(C: CoalgebraPresentation, i: int, s: int, tup: tuple) -> dict:
    """Image of one basis tuple (s+2 factors) under the i-th codegeneracy, 0 <= i <= s."""
    if not 0 <= i <= s:
        raise IndexError(f"codegeneracy index {i} outside [0, {s}]")
    if len(tup) != s + 2:
        raise ValueError("codegeneracy input must have s+2 factors")
    if any(tup[i + 1]):
        return {}
    return {tup[: i + 1] + tup[i + 2:]: 1}


IdentityReport = namedtuple("IdentityReport", "passed checked failure", defaults=(None,))
IdentityReport.__doc__ = (
    "Outcome of the cosimplicial identity scan; failures are data, not errors."
)


def verify_cosimplicial_identities(
    C: CoalgebraPresentation, window: BidegreeWindow
) -> IdentityReport:
    """Check all coface/codegeneracy identities in the window, level by level.

    Every coface and codegeneracy preserves the internal degree, so each map
    is built once per level s, over every t <= max_t, as a list of columns:
    level s lists the tuples of spots (s, 0), ..., (s, max_t) one after
    another, and a column is a tuple of (row, coefficient) pairs, the row
    counted in the target level.  Each side of an identity is composed into
    one flat dict keyed column * R + row, R the size of its target level
    (`cochain.compose_columns`), and the two sides are compared as dicts.  On a
    mismatch the least differing key, divided by R, is the first differing
    column; the failure names its t, and `checked` counts the identities up
    to it in the per-spot order (family, s, i, j, then t), as if each spot
    were compared on its own.

    Each image term is looked up in its own spot (s+1, t), not in one index
    of the whole level, so a term of another internal degree is not read as
    a row of the level: it raises KeyError, as any image term outside the
    target basis does.  A map is built for its whole level the first time an
    identity needs it, so such a term at any t raises then, before that
    identity is compared: a mismatch of the identity at a lower t, which the
    per-spot order would report, is not reported.  An identity whose source
    spot is empty compares two maps out of a zero space, so it is counted in
    `checked` and has no column to compare.  The tensor bases, spot indexes
    and codegeneracy level maps are kept in `C.oracle_memo`, by window.
    """
    max_s, max_t = window.max_s, window.max_t
    bases = _window_bases(C, max_s + 1, max_t, normalized=False)
    p = C.field.characteristic
    starts = {}  # level -> first column of each spot (s, t), then the level's size
    for s in range(max_s + 2):
        firsts = [0]
        for t in range(max_t + 1):
            firsts.append(firsts[-1] + len(bases[(s, t)]))
        starts[s] = firsts
    # (i, s) -> the columns of coface i out of level s, of codegeneracy i into it;
    # the codegeneracies and the row index of each spot (level, t) are field-free
    cofaces: dict = {}
    indexes, codegeneracies = C.oracle_memo.setdefault((max_s, max_t), ({}, {}))

    def level_columns(source: int, target: int, terms, i: int, s: int) -> list:
        """The columns terms(C, i, s, tup) of every tuple of level `source`,
        each term looked up in its own spot of level `target`."""
        columns, image = [], partial(terms, C, i, s)
        for t in range(max_t + 1):
            tups = bases[(source, t)]
            if not tups:
                continue
            index = indexes.get((target, t))
            if index is None:
                first = starts[target][t]
                index = indexes[(target, t)] = {
                    tup: first + r for r, tup in enumerate(bases[(target, t)])
                }
            columns += image_columns(tups, index, image)
        return columns

    def cf(i, s):
        columns = cofaces.get((i, s))
        if columns is None:
            columns = cofaces[(i, s)] = level_columns(s, s + 1, coface_terms, i, s)
        return columns

    def cd(i, s):
        columns = codegeneracies.get((i, s))
        if columns is None:
            columns = codegeneracies[(i, s)] = level_columns(s + 1, s, codegeneracy_terms, i, s)
        return columns

    checked = 0

    def mismatch(family, i, j, s, source, target, lhs, rhs) -> IdentityReport | None:
        """None, counting the identity at every t, if the two sides agree;
        else the failure at the least t whose columns differ."""
        nonlocal checked
        if lhs != rhs:  # as integer sums; they may still agree mod p
            lhs, rhs = reduced_sums(lhs, p), reduced_sums(rhs, p)
        if lhs == rhs:
            checked += max_t + 1
            return None
        key = min(k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))
        t = bisect_right(starts[source], key // starts[target][-1]) - 1
        return IdentityReport(
            passed=False, checked=checked + t + 1,
            failure={"family": family, "i": i, "j": j, "s": s, "t": t},
        )

    # coface-coface: delta_j . delta_i = delta_i . delta_{j-1} for i < j
    for s in range(max_s):
        rows = starts[s + 2][-1]
        for i in range(s + 2):
            for j in range(i + 1, s + 3):
                lhs = compose_columns(cf(j, s + 1), cf(i, s), rows)
                rhs = compose_columns(cf(i, s + 1), cf(j - 1, s), rows)
                if bad := mismatch("coface-coface", i, j, s, s, s + 2, lhs, rhs):
                    return bad
    # codegeneracy-codegeneracy: sigma_j . sigma_i = sigma_i . sigma_{j+1} for i <= j
    for s in range(max_s):
        rows = starts[s][-1]
        for i in range(s + 2):
            for j in range(i, s + 1):
                lhs = compose_columns(cd(j, s), cd(i, s + 1), rows)
                rhs = compose_columns(cd(i, s), cd(j + 1, s + 1), rows)
                if bad := mismatch("codegeneracy-codegeneracy", i, j, s, s + 2, s, lhs, rhs):
                    return bad
    # mixed: sigma_j . delta_i
    for s in range(max_s + 1):
        rows = starts[s][-1]
        identity = {c * rows + c: 1 for c in range(rows)}
        for i in range(s + 2):
            for j in range(s + 1):
                lhs = compose_columns(cd(j, s), cf(i, s), rows)
                if i == j or i == j + 1:
                    rhs = identity
                elif i < j:
                    rhs = compose_columns(cf(i, s - 1), cd(j - 1, s - 1), rows)
                else:
                    rhs = compose_columns(cf(i - 1, s - 1), cd(j, s - 1), rows)
                if bad := mismatch("mixed", i, j, s, s, s, lhs, rhs):
                    return bad
    return IdentityReport(passed=True, checked=checked)


def _structural_corpus(p: int):
    yield "Lambda(3)", _lambda_presentation(p, [3]), BidegreeWindow(4, 15), BidegreeWindow(3, 12)
    yield "Lambda(5)", _lambda_presentation(p, [5]), BidegreeWindow(4, 25), BidegreeWindow(2, 12)
    yield "Lambda(7)", _lambda_presentation(p, [7]), BidegreeWindow(4, 35), BidegreeWindow(2, 15)
    yield "k[w2]", _poly_presentation(p, 2), BidegreeWindow(4, 12), BidegreeWindow(2, 8)
    yield "k[w4]", _poly_presentation(p, 4), BidegreeWindow(4, 20), BidegreeWindow(2, 12)
    yield "Gamma(2)", _gamma_presentation(p, 2), BidegreeWindow(3, 12), BidegreeWindow(2, 8)
    yield "Gamma(4)", _gamma_presentation(p, 4), BidegreeWindow(3, 16), BidegreeWindow(2, 12)
    yield "Lambda(3,5)", _lambda_presentation(p, [3, 5]), BidegreeWindow(3, 16), BidegreeWindow(2, 10)
    # H_*(CP^2): the one closed-form table that loses classes to the map by
    # N = 3, at (1,6), (2,6), (3,12) and (4,12), unless p = 3
    yield "Gamma_2(2)", _gamma_presentation(p, 2, 2), BidegreeWindow(4, 12), BidegreeWindow(2, 8)


def _spot_counts(C: CoalgebraPresentation, window: BidegreeWindow, normalized: bool) -> dict:
    """The size of every spot (s, t), s <= max_s + 1, counted from the basis
    sizes alone: with a(q) the Poincaré series of the connected C, a full
    spot holds [q^t] a^(s+1) tuples and a normalized one [q^t] a (a - 1)^s."""
    a = [len(C.basis_in_degree(t)) for t in range(window.max_t + 1)]
    factor = [0] + a[1:] if normalized else a
    series, counts = a, {}
    for s in range(window.max_s + 2):
        counts.update(((s, t), n) for t, n in enumerate(series))
        series = [
            sum(series[u] * factor[t - u] for u in range(t + 1)) for t in range(len(a))
        ]
    return counts


def check_structural_suite():
    # over() shares what depends on the cogenerators alone across the fields
    corpus = list(_structural_corpus(0))
    for p in CHARACTERISTICS:
        for label, shared, window, id_window in corpus:
            C = shared.over(Field(p))
            where = f"{label} over characteristic {p}"
            if not (
                coassociativity_ok(C) and counitality_ok(C) and cocommutativity_ok(C)
            ):
                return False, f"coalgebra axiom fails: {where}"
            cx = build_complex(C, window)  # raises if d.d != 0
            table = cohh_table(cx)
            if kunneth_table(C, window).entries != table.entries:
                return False, f"factor route differs from the cobar complex: {where}"
            if not euler_check(cx, table).passed:
                return False, f"Euler check fails: {where}"
            for t in range(window.max_t + 1):
                if table.dim(0, t) != len(C.basis_in_degree(t)):
                    return False, f"row s=0 differs from the coalgebra dims: {where}"
            report = verify_cosimplicial_identities(C, id_window)
            if not report.passed:
                f = report.failure
                return False, (
                    f"cosimplicial identity fails: {where}: FAIL {f['family']} identity "
                    f"at (i,j)=({f['i']},{f['j']}), s={f['s']}, t={f['t']}"
                )
    # normalized and full complexes have the counted spots and agree on cohomology
    window = BidegreeWindow(3, 12)
    shared = _lambda_presentation(0, [3])
    counts = {flag: _spot_counts(shared, window, flag) for flag in (True, False)}
    for p in CHARACTERISTICS:
        C = shared.over(Field(p))
        tables = []
        for flag in (True, False):
            cx = build_complex(C, window, normalized=flag)
            if {key: len(tups) for key, tups in cx.spots.items()} != counts[flag]:
                kind = "normalized" if flag else "full"
                return False, f"{kind} spot sizes differ from the count over characteristic {p}"
            tables.append(cohh_table(cx).entries)
        if tables[0] != tables[1]:
            return False, f"normalized/full cohomology differ over characteristic {p}"
    return True, (
        "d.d=0, identities, axioms, Euler, normalization and the factor route "
        "agree on the corpus"
    )


def basis_filter(C: CoalgebraPresentation, max_t: int, keep) -> dict:
    """Reference for the closed forms: the basis monomials m with keep(m), per
    nonempty degree 1..max_t, read off the enumerated basis."""
    return {
        t: ms
        for t in range(1, max_t + 1)
        if (ms := [m for m in C.basis_in_degree(t) if keep(m)])
    }


def check_closed_forms():
    """The closed forms against the reduced-coproduct and exponent-sum basis
    filters, and each reported primitive against the primitive equation.  At
    max_t = 3 most cogenerators lie above the window."""
    for p, max_t in product(CHARACTERISTICS, (3, 30)):
        truncated = CoalgebraPresentation(
            Field(p), [Cogenerator("w", POLYNOMIAL, 2, truncation=GAMMA_TRUNCATION)]
        )
        for C in [truncated, *(corpus[1] for corpus in _structural_corpus(p))]:
            where = f"{[g.name for g in C.cogenerators]}, p={p}, max_t={max_t}"
            prims = primitives(C, max_t).by_degree
            if prims != basis_filter(C, max_t, lambda m: not C.reduced_coproduct(m)):
                return False, f"primitives differ from the basis filter: {where}"
            unit = C.unit()
            for ms in prims.values():
                for m in ms:
                    delta = dict(C.coproduct_monomial(m))
                    for key in ((unit, m), (m, unit)):
                        delta[key] = delta.get(key, 0) - 1
                    if reduced_sums(delta, C.field.characteristic):
                        return False, f"reported primitive is not primitive: {where}"
            if DIVIDED_POWER in (g.kind for g in C.cogenerators):
                continue
            A = AlgebraPresentation(C.field, C.cogenerators)
            if indecomposables(A, max_t).by_degree != basis_filter(
                A, max_t, lambda m: sum(m) == 1
            ):
                return False, f"indecomposables differ from the basis filter: {where}"
    return True, "primitive and indecomposable closed forms hold to degree 30"


# -- independent all-pairs oracle for the collapse enumeration -----------------


def _all_e2_monomials(e2: E2Presentation, max_t: int) -> list:
    gens = e2.generators
    out = []
    exps = [0] * len(gens)

    def rec(i: int, t: int):
        if i == len(gens):
            out.append(tuple(exps))
            return
        g = gens[i]
        cap = (max_t - t) // g.t
        if g.kind == EXTERIOR:
            cap = min(cap, 1)
        for e in range(cap + 1):
            exps[i] = e
            rec(i + 1, t + e * g.t)
        exps[i] = 0

    rec(0, 0)
    return out


def _is_char_power(e: int, p: int) -> bool:
    if e < 1:
        return False
    if p == 0:
        return e == 1
    while e % p == 0:
        e //= p
    return e == 1


def brute_force_feasible(e2: E2Presentation, max_t: int) -> set:
    """All-pairs scan over E2 basis monomials: bidegree law, then the
    indecomposable-source and primitive-target predicates."""
    gens = e2.generators
    poly_idx = [i for i, g in enumerate(gens) if g.kind == POLYNOMIAL]
    monos = _all_e2_monomials(e2, max_t)

    def indecomposable(m):
        return sum(m[i] for i in poly_idx) == 1

    def primitive(m):
        support = [i for i, e in enumerate(m) if e]
        if len(support) != 1:
            return False
        i = support[0]
        if gens[i].kind == EXTERIOR:
            return m[i] == 1
        return _is_char_power(m[i], e2.characteristic)

    sources = [m for m in monos if indecomposable(m)]
    targets = [m for m in monos if primitive(m)]
    found = set()
    for u in sources:
        us, ut = e2.bidegree(u)
        for v in targets:
            vs, vt = e2.bidegree(v)
            r = vs - us
            if r >= 2 and vt - ut == r - 1:
                found.add((u, v, r))
    return found


def check_oracle_equivalence():
    cases = 0
    for degrees in ([3], [5], [7], [3, 5]):
        for p in CHARACTERISTICS:
            e2 = standard_page(LAMBDA_POLY, p, degrees)
            fast = {
                (w, o.target, o.page)
                for o in analyze(e2, SWEEP_MAX_T).obstructions
                for w in o.witnesses
            }
            slow = brute_force_feasible(e2, SWEEP_MAX_T)
            if fast != slow:
                return False, f"enumeration disagrees with the all-pairs scan: {degrees}, p={p}"
            cases += 1
    return True, f"{cases} presentations agree with the all-pairs scan"


ACCEPTANCE_CHECKS = (
    ("lambda-grid-reproduction", check_lambda_tables),
    ("divided-power-grid-reproduction", check_gamma_tables),
    ("hz-pipeline", check_hz_pipeline),
    ("collapse-certificates", check_collapse_certificates),
    ("hypothesis-feasibility-sweep", check_hypothesis_sweep),
    ("structural-invariants", check_structural_suite),
    ("primitive-indecomposable-closed-forms", check_closed_forms),
    ("collapse-oracle-equivalence", check_oracle_equivalence),
)


def run_selftest() -> list:
    """Run every acceptance check, also after one fails or raises
    `InvariantFailure`, which is reported as that check's failure, not the
    run's.  The CLI exits 1 on the same error raised anywhere else."""
    results = []
    for name, fn in ACCEPTANCE_CHECKS:
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except InvariantFailure as exc:
            passed, detail = False, str(exc) or type(exc).__name__
        results.append(CheckResult(name, passed, detail, time.perf_counter() - t0))
    return results
