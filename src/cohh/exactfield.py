"""Sparse exact linear algebra over F_p or Q: the oracle's matrices and ranks.

Scalars are plain Python ints.  `Field` (a checked characteristic, 0 or a
prime, with one method, `scalar`, which reduces an int into the field) and
`add_term`, the one accumulator, live in `coalg`, the presentation module
that every production command loads; they are re-exported here.  Every
stored value (a coproduct coefficient, a term of a linear combination, a
matrix entry) is a canonical residue in [1, p) over F_p, or a nonzero int over
Q.  Callers multiply and negate plain ints and leave the rest to `add_term`.
`SparseMatrix.compose`, the hot loop of the d.d = 0 check, sums its products
as ints and reduces each sum once.  So equality of stored values is
structural equality, which the d.d = 0 check, the identity scan and the axiom
checks rely on.  Every coefficient the program produces is an integer
combination of binomials and signs, so over Q the scalars never leave Z: a
complex over Q is the integral complex, and an identity checked on it holds
over Z.

`rank` is the only elimination: sparse rows reduced in place, mod p inline
over F_p and fraction-free over Q.  No dense matrix, echelon form or kernel is
ever built.  This module belongs to the cobar oracle (`cochain`, `selftest`,
the tests): `cohh cohh` loads it only to rank the one factor kind that has no
closed form, and `hz` for the one rank of its Tor.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Optional

from .coalg import CompositeCharacteristic, Field, _is_prime, add_term  # re-exported
from .errors import InvalidInput  # re-exported


class SparseMatrix:
    """Sparse matrix over a fixed field; only nonzero entries are stored.

    Equal when field, shape and entries are; unhashable, as entries is a dict."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries: Optional[dict] = None):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = {} if entries is None else entries  # (row, col) -> nonzero int

    def __eq__(self, other):
        if other.__class__ is not SparseMatrix:
            return NotImplemented
        return (self.field, self.rows, self.cols, self.entries) == (
            other.field, other.rows, other.cols, other.entries
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"SparseMatrix(field={self.field!r}, rows={self.rows!r}, "
            f"cols={self.cols!r}, entries={self.entries!r})"
        )

    @classmethod
    def from_triples(
        cls, fld: Field, rows: int, cols: int, triples: Iterable[tuple]
    ) -> "SparseMatrix":
        """Build from (row, col, value) triples; repeats are summed."""
        entries: dict = {}
        for r, c, v in triples:
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
            add_term(entries, (r, c), v, fld)
        return cls(fld, rows, cols, entries)

    def is_zero(self) -> bool:
        return not self.entries

    def compose(self, inner: "SparseMatrix") -> "SparseMatrix":
        """self @ inner (apply inner first).  The products are summed as ints
        and each sum is reduced once."""
        if inner.rows != self.cols:
            raise ValueError("composition shape mismatch")
        fld = self.field
        if not self.entries or not inner.entries:
            return SparseMatrix(fld, self.rows, inner.cols)
        by_row: dict = {}
        for (r, c), v in inner.entries.items():
            by_row.setdefault(r, []).append((c, v))
        sums: dict = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                key = (r, c)
                sums[key] = sums.get(key, 0) + v * w
        scalar = fld.scalar
        entries = {key: x for key, v in sums.items() if (x := scalar(v))}
        return SparseMatrix(fld, self.rows, inner.cols, entries)


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

    Rows are taken shortest first; each is reduced against the stored pivot
    rows (keyed by leading column) until its leading column has no pivot or
    the row vanishes, and is then stored as the pivot of that column.  Over
    F_p the rows hold residues and every pivot row is scaled to lead 1; over Q
    they hold the integer entries as given, updated fraction-free, and every
    pivot row is stored with content 1, so the rank is exact in both cases.
    No dense row and no kernel is ever built.
    """
    p = m.field.characteristic
    grouped: dict = {}
    for (r, c), v in m.entries.items():
        grouped.setdefault(r, {})[c] = v
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
