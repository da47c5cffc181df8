"""The cosimplicial cobar object of a coalgebra, truncated to a window.

Level s holds tensor powers with s+1 factors (coefficients in slot 0), each a
tuple of monomials; `tensor_bases` lists every spot of a window in one pass.
Cofaces 0..s apply the coproduct to one slot; coface s+1 applies it to slot 0
and then cycles the first factor to the last with the Koszul sign
(`twist_first_to_last`).  The differential is the alternating sum of the
cofaces (`differential_terms`).

The normalized complex keeps the tuples with no unit factor in slots >= 1,
and its differential is generated without the terms that cancel
(`normalized_differential_terms`).  Write the coproduct of a positive-degree
c as c|1 + 1|c + the reduced coproduct of c, which the presentation caches
(`CoalgebraPresentation.reduced_coproduct`).  On a normalized tuple the term
with c_i|1 from coface i and the term with 1|c_(i+1) from coface i+1 are the
same tuple with opposite signs, and so are c_s|1 from coface s and the twist
of 1|c_0 from coface s+1.  Every other unit-bearing term puts the unit in a
slot >= 1 and cancels likewise, so what is left is the reduced coproducts, the
1|c_0 of coface 0 and the twist of c_0|1 of coface s+1: exactly the
normalized terms of the full sum.  The full complex keeps `differential_terms`,
so the two stay independent.  The codegeneracies, which apply the counit in an
interior slot, serve only the cosimplicial identity scan, so they live with it
in `selftest`.

Every cobar map has one layout: its columns in order, each a tuple of (row,
value) pairs, each value an integer sum reduced once by `coalg.reduced_sums`,
so equal maps have equal columns.  `image_columns` is the one routine that
turns image terms into rows, for the differentials (a `SparseMatrix` stores
only its columns) and for the identity scan's level maps in `selftest`;
`compose_columns` composes stored columns, for the d.d check
(`first_square_failure`) and the scan alike.  `rank`, the only elimination,
groups the columns into sparse rows, mod p over odd F_p and fraction-free over
Q, and packs each into an int bitset over F_2; no dense matrix or kernel is
built.  An empty spot costs nothing: its differential is a zero-shape matrix
built without a target index, and its rank is 0 without any elimination.
Every coefficient is an integer combination of binomials and signs, so over Q
a complex is the integral one, and an identity checked on it holds over Z.

This module is the cobar oracle.  `selftest`, the tests and the benchmark
replay build complexes with it; `cohh cohh` loads it only for the one factor
kind without a closed form, a polynomial cogenerator over F_p truncated at
n >= p, which the grammar cannot express.  `BidegreeWindow`,
`WindowTooSmall`, `reduced_sums` and the reduced coproduct live in `coalg`,
the presentation module.
"""

from __future__ import annotations

from functools import partial
from math import gcd

from .coalg import (
    BidegreeWindow,
    CoalgebraPresentation,
    Field,
    WindowTooSmall,
    reduced_sums,
)
from .errors import InvariantFailure


class SparseMatrix:
    """Sparse matrix over a fixed field, stored only as its columns, each a
    tuple of (row, nonzero canonical value) pairs: the layout
    `compose_columns` takes.  `cols` and `entries` are read-only views."""

    __slots__ = ("field", "rows", "columns")

    def __init__(self, field: Field, rows: int, columns):
        self.field = field
        self.rows = rows
        self.columns = columns

    @property
    def cols(self) -> int:
        return len(self.columns)

    @property
    def entries(self) -> dict:
        return {(r, c): v for c, column in enumerate(self.columns) for r, v in column}


def compose_columns(outer, inner, rows: int) -> dict:
    """outer . inner (apply inner first), each map a sequence of columns of
    (row, coefficient) pairs, as one dict {column * rows + row: integer sum
    of products}, rows the size of outer's target.  The sums are not
    reduced: each caller reduces them with `reduced_sums` where it must."""
    sums: dict = {}
    base = 0
    for column in inner:
        for k, v in column:
            for r, w in outer[k]:
                key = base + r
                if key in sums:
                    sums[key] += v * w
                else:
                    sums[key] = v * w
        base += rows
    return sums


def image_columns(tuples, index: dict, image) -> list:
    """The column of each tuple: image(tup), a dict of canonical nonzero
    values, as a tuple of (index[term], value) pairs.  This is the one place
    an image term becomes a row; a term missing from `index` raises."""
    columns = []
    for tup in tuples:
        terms = image(tup)
        try:
            if len(terms) > 1:
                columns.append(tuple([(index[key], c) for key, c in terms.items()]))
            elif terms:  # one term, as every nonzero codegeneracy image
                (key, c), = terms.items()
                columns.append(((index[key], c),))
            else:
                columns.append(())
        except KeyError as exc:
            raise KeyError(f"image term {exc.args[0]} missing from the target basis") from None
    return columns


def _primitive(row: dict) -> dict:
    """Divide a sparse integer row by the gcd of its entries."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return {c: v // g for c, v in row.items()}


def rank(m: SparseMatrix) -> int:
    """Exact rank by sparse Gaussian elimination on a dict of rows.

    Rows, grouped from the columns, are taken shortest first; each is
    reduced against the stored pivot rows (keyed by leading column) until
    its leading column has no pivot or the row vanishes, and is then stored
    as the pivot of that column.  Over F_p the rows hold residues and every
    pivot row is scaled to lead 1; over Q they hold the integer entries,
    updated fraction-free, and every pivot row is stored with content 1, so
    the rank is exact in both cases.  No dense row or kernel is ever built.

    Over F_2 each stored column is packed instead, into an int bitset over
    the rows (the word-packed elimination of M4RI: Albrecht, Bard and Hart,
    ACM TOMS 37(1), 2010), taken fewest bits first and reduced by XOR
    against pivots keyed by their lowest set bit.  The cobar spots have
    fewer columns than rows and fill in over F_2, where the XOR of two ints
    runs the word loop in C.
    """
    if not any(m.columns):
        return 0
    p = m.field.characteristic
    if p == 2:
        packed = []
        for column in m.columns:
            bits = 0
            for r, _ in column:
                bits |= 1 << r
            packed.append(bits)
        lows: dict = {}  # index of the lowest set bit -> pivot column
        for col in sorted(packed, key=int.bit_count):
            while col:
                low = (col & -col).bit_length()
                piv = lows.get(low)
                if piv is None:
                    lows[low] = col
                    break
                col ^= piv
        return len(lows)
    grouped: dict = {}
    for c, column in enumerate(m.columns):
        for r, v in column:
            if r in grouped:
                grouped[r][c] = v
            else:
                grouped[r] = {c: v}
    pivots: dict = {}  # leading column -> pivot row
    for row in sorted(grouped.values(), key=len):
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                break
            f = row[lead]
            if p:
                for c, v in piv.items():
                    x = (row.get(c, 0) - f * v) % p
                    if x:
                        row[c] = x
                    else:
                        del row[c]
            else:  # row <- a*row - f*piv, a and f divided by their gcd
                a = piv[lead]
                g = gcd(a, f)
                a //= g
                f //= g
                if a != 1:
                    for c in row:
                        row[c] *= a
                for c, v in piv.items():
                    x = row.get(c, 0) - f * v
                    if x:
                        row[c] = x
                    else:
                        del row[c]
        if row:
            if p:
                inv = pow(row[lead], -1, p)
                if inv != 1:
                    row = {c: v * inv % p for c, v in row.items()}
            else:
                row = _primitive(row)
            pivots[lead] = row
    return len(pivots)


class DifferentialNotSquareZero(InvariantFailure):
    """d composed with d is nonzero at some bigraded spot."""


def tensor_bases(
    C: CoalgebraPresentation, max_s: int, max_t: int, normalized: bool
) -> dict:
    """Ordered bases of every spot (s, t), 0 <= s <= max_s, 0 <= t <= max_t.

    Spot (s, t) holds the tuples of s+1 monomials of total degree t; when
    normalized, slots 1..s hold positive-degree monomials only.  A spot lists
    its tuples slot by slot from the left: degree ascending, then the
    monomial's position in `basis_in_degree`.  The tails (slots 1..k) of
    every degree are grown one slot at a time, each k+1-slot tail a monomial
    put in front of a k-slot tail, so each tail is built once per window.
    """
    if max_s < 0 or max_t < 0:
        return {}
    degrees = [(d, basis) for d in range(max_t + 1) if (basis := C.basis_in_degree(d))]

    def prepend(tails: list, lo: int) -> list:
        """The nonempty spots, as (degree, tuples) ascending, of each monomial
        of degree >= lo put in front of each tail of `tails`, which are listed
        likewise; the monomial degrees ascend, so each spot fills in order."""
        out: dict = {}
        for d, basis in degrees:
            if d < lo:
                continue
            for t, rest in tails:
                if d + t > max_t:
                    break
                tups = [(m,) + tail for m in basis for tail in rest]
                if d + t in out:
                    out[d + t] += tups
                else:
                    out[d + t] = tups
        return sorted(out.items())

    tails = [(0, [()])]  # no slots yet
    spots = {(s, t): [] for s in range(max_s + 1) for t in range(max_t + 1)}
    for s in range(max_s + 1):
        row = prepend(tails, 0)
        for t, tups in row:
            spots[(s, t)] = tups
        if s < max_s:
            # without normalization a tail is any spot one slot shorter
            tails = prepend(tails, 1) if normalized else row
    return spots


def _window_bases(C: CoalgebraPresentation, max_s: int, max_t: int, normalized: bool) -> dict:
    """`tensor_bases(C, max_s, max_t, normalized)`, kept in `C.oracle_memo`."""
    key = (max_s, max_t, normalized)
    bases = C.oracle_memo.get(key)
    if bases is None:
        bases = C.oracle_memo[key] = tensor_bases(C, max_s, max_t, normalized)
    return bases


def tensor_basis(C: CoalgebraPresentation, s: int, t: int, normalized: bool) -> list:
    """Ordered basis of spot (s, t), as listed by `tensor_bases`."""
    if s < 0 or t < 0:
        return []
    return tensor_bases(C, s, t, normalized)[(s, t)]


def twist_first_to_last(C: CoalgebraPresentation, terms: dict) -> dict:
    """Cycle the first tensor factor to the last with the Koszul sign.

    The terms share one internal degree, as the image of one tuple does, so
    a first factor of degree d crosses a rest of degree total - d: the sign
    is -1 exactly when d is odd and the total even, and never when every
    degree is even or p = 2.  The coefficients are canonical and nonzero,
    and the cycle is one-to-one, so each is stored as given or negated."""
    if not terms:
        return {}
    degree, p = C.degree, C.field.characteristic
    if C.even or p == 2 or sum(map(degree, next(iter(terms)))) % 2:
        return {tup[1:] + tup[:1]: coeff for tup, coeff in terms.items()}
    out: dict = {}
    for tup, coeff in terms.items():
        first = tup[0]
        if degree(first) % 2:
            coeff = -coeff % p if p else -coeff
        out[tup[1:] + (first,)] = coeff
    return out


def coface_terms(C: CoalgebraPresentation, i: int, s: int, tup: tuple) -> dict:
    """Image of one basis tuple (s+1 factors) under the i-th coface, 0 <= i <= s+1.

    The coproduct terms of the split slot are stored as they are: each is
    canonical, and no two collide, since a term (a, b) of m has a + b = m.
    """
    if not 0 <= i <= s + 1:
        raise IndexError(f"coface index {i} outside [0, {s + 1}]")
    # i = 0 is the right coaction on the coefficient slot, which for C as its
    # own coefficients is again the coproduct; coface s+1 starts with the
    # left coaction, the same split of slot 0.
    slot = i if i <= s else 0
    head, tail = tup[:slot], tup[slot + 1:]
    split = {head + ab + tail: c for ab, c in C.coproduct_monomial(tup[slot]).items()}
    if i <= s:
        return split
    return twist_first_to_last(C, split)


def differential_terms(C: CoalgebraPresentation, tup: tuple) -> dict:
    """Alternating sum of all cofaces on one tuple, before any normalization."""
    s = len(tup) - 1
    sums: dict = {}
    for i in range(s + 2):
        for key, c in coface_terms(C, i, s, tup).items():
            sums[key] = sums.get(key, 0) + (-c if i % 2 else c)
    return reduced_sums(sums, C.field.characteristic)


def normalized_differential_terms(C: CoalgebraPresentation, tup: tuple) -> dict:
    """The differential of a normalized tuple, generating only the kept terms.

    Equal to `differential_terms` on every normalized tuple (c_0|...|c_s):
    coface 0 gives [1|c_0|...] plus the reduced coproduct of c_0 in slots 0
    and 1, interior coface i gives (-1)^i times the reduced coproduct of c_i,
    and coface s+1 gives (-1)^(s+1) times the twist of [c_0|1|...] plus the
    reduced coproduct of c_0.
    """
    s = len(tup) - 1
    sums: dict = {}
    for i in range(1, s + 1):
        head, tail = tup[:i], tup[i + 1:]
        sign = -1 if i % 2 else 1
        for a, b, c in C.reduced_coproduct(tup[i]):
            key = head + (a, b) + tail
            sums[key] = sums.get(key, 0) + sign * c
    first, rest = tup[0], tup[1:]
    if any(first):  # a unit c_0 adds no normalized term
        unit = C.unit()
        wrapped = {(first, unit) + rest: 1}
        key = (unit, first) + rest
        sums[key] = sums.get(key, 0) + 1
        for a, b, c in C.reduced_coproduct(first):
            key = (a, b) + rest
            sums[key] = sums.get(key, 0) + c
            wrapped[key] = c
        sign = 1 if s % 2 else -1
        for key, c in twist_first_to_last(C, wrapped).items():
            sums[key] = sums.get(key, 0) + sign * c
    return reduced_sums(sums, C.field.characteristic)


def _matrix_from_terms(C, source_basis, target_basis, expand) -> SparseMatrix:
    """The matrix whose column j holds expand(source_basis[j]) in target_basis,
    by `image_columns`; an empty source builds no index.  The columns are
    kept as a tuple, which the garbage collector can stop tracking."""
    if not source_basis:
        return SparseMatrix(C.field, len(target_basis), ())
    index = {tup: r for r, tup in enumerate(target_basis)}
    columns = tuple(image_columns(source_basis, index, expand))
    return SparseMatrix(C.field, len(target_basis), columns)


class CochainComplex:
    """Bigraded complex with one sparse differential matrix per (s, t) spot."""

    __slots__ = ("presentation", "window", "spots", "differentials")

    def __init__(
        self,
        presentation: CoalgebraPresentation,
        window: BidegreeWindow,
        spots: dict,          # (s, t) -> basis tuples, for 0 <= s <= max_s + 1
        differentials: dict,  # (s, t) -> SparseMatrix spot(s,t) -> spot(s+1,t)
    ):
        self.presentation = presentation
        self.window = window
        self.spots = spots
        self.differentials = differentials


def build_complex(
    C: CoalgebraPresentation,
    window: BidegreeWindow,
    normalized: bool = True,
    check: bool = True,
) -> CochainComplex:
    """Assemble bases and differentials for all spots inside the window.

    The bases of spots 0..max_s+1 do not depend on the field: they come from
    one `tensor_bases` pass per cogenerator list.  The normalized
    differential comes from `normalized_differential_terms`, which emits
    only normalized tuples; the full one from `differential_terms`.  An
    image term outside the target basis raises KeyError: nothing is
    projected away.  Each differential is stored as the columns that
    `image_columns` makes of its source tuples; a spot with an empty source
    builds no index and calls neither.  With check=True every composable
    pair of differentials is verified to compose to zero
    (`first_square_failure`); a failure raises DifferentialNotSquareZero.
    """
    if window.max_s < 0 or window.max_t < 0:
        raise WindowTooSmall(f"window {window} has a negative bound")
    spots = _window_bases(C, window.max_s + 1, window.max_t, normalized)
    expand = partial(normalized_differential_terms if normalized else differential_terms, C)
    diffs = {
        (s, t): _matrix_from_terms(C, spots[(s, t)], spots[(s + 1, t)], expand)
        for s in range(window.max_s + 1)
        for t in range(window.max_t + 1)
    }
    cx = CochainComplex(C, window, spots, diffs)
    if check and (bad := first_square_failure(cx)) is not None:
        raise DifferentialNotSquareZero(f"d.d != 0 first fails at (s,t)={bad}")
    return cx


def first_square_failure(cx: CochainComplex) -> tuple | None:
    """First (s, t) where d(s+1,t) . d(s,t) is nonzero, or None.  Where both
    maps have entries, their stored columns are composed by
    `compose_columns` and the sums reduced."""
    diffs, p = cx.differentials, cx.presentation.field.characteristic
    for t in range(cx.window.max_t + 1):
        for s in range(cx.window.max_s):
            inner, outer = diffs[(s, t)], diffs[(s + 1, t)]
            if any(inner.columns) and any(outer.columns) and reduced_sums(
                compose_columns(outer.columns, inner.columns, outer.rows), p
            ):
                return (s, t)
    return None
