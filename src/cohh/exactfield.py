"""Exact scalar arithmetic over F_p / Q and sparse exact linear algebra.

Scalars are plain Python ints (canonical residues in [0, p)) for prime
characteristic and ``fractions.Fraction`` (always in lowest terms) for
characteristic zero, so equality of scalars is structural equality and no
rounding can occur anywhere.

`rank` eliminates sparse rows in place and is what every rank-only caller
uses; `row_reduce` builds the dense reduced echelon form and kernel basis for
the one caller that needs a kernel, `hopfstruct.primitives`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Union

Scalar = Union[int, Fraction]


class CompositeCharacteristic(ValueError):
    """Requested characteristic is neither 0 nor a prime."""


class InvalidInput(ValueError):
    """Input the program refuses; the CLI reports it as an input error (exit 2)."""


# Miller-Rabin with the first twelve prime bases decides primality exactly for
# every n below this bound (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_BASES_EXACT_BELOW = 318_665_857_834_031_151_167_461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n it cannot decide exactly."""
    if n >= _PRIME_BASES_EXACT_BELOW:
        raise InvalidInput(
            f"characteristic {n} is too large: primality is decided exactly "
            f"only below {_PRIME_BASES_EXACT_BELOW}"
        )
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """F_p for a prime p, or the rationals when characteristic == 0."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int):
        if characteristic != 0 and not _is_prime(characteristic):
            raise CompositeCharacteristic(
                f"characteristic must be 0 or a prime, got {characteristic}"
            )
        self.characteristic = characteristic

    def __repr__(self) -> str:
        return "Q" if self.characteristic == 0 else f"F_{self.characteristic}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.characteristic == self.characteristic

    def __hash__(self) -> int:
        return hash(("Field", self.characteristic))

    @property
    def zero(self) -> Scalar:
        return 0 if self.characteristic else Fraction(0)

    @property
    def one(self) -> Scalar:
        return 1 if self.characteristic else Fraction(1)

    def scalar(self, x: Union[int, Fraction]) -> Scalar:
        """Canonicalize an integer (or Fraction, char 0 only) into the field."""
        p = self.characteristic
        if p:
            if isinstance(x, Fraction):
                if x.denominator % p == 0:
                    raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
                return x.numerator * pow(x.denominator, -1, p) % p
            return x % p
        return Fraction(x)

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        p = self.characteristic
        return (a + b) % p if p else a + b

    def neg(self, a: Scalar) -> Scalar:
        p = self.characteristic
        return (-a) % p if p else -a

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        p = self.characteristic
        return (a * b) % p if p else a * b

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        p = self.characteristic
        return pow(a, -1, p) if p else Fraction(1) / a

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))


@dataclass(frozen=True)
class SparseMatrix:
    """Sparse matrix over a fixed field; only nonzero entries are stored."""

    field: Field
    rows: int
    cols: int
    entries: dict = field(default_factory=dict)  # (row, col) -> nonzero Scalar

    @classmethod
    def from_triples(
        cls, fld: Field, rows: int, cols: int, triples: Iterable[tuple]
    ) -> "SparseMatrix":
        """Build from (row, col, value) triples; repeats are summed."""
        entries: dict = {}
        for r, c, v in triples:
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
            v = fld.add(entries.get((r, c), fld.zero), fld.scalar(v))
            if fld.is_zero(v):
                entries.pop((r, c), None)
            else:
                entries[(r, c)] = v
        return cls(fld, rows, cols, entries)

    @classmethod
    def zero(cls, fld: Field, rows: int, cols: int) -> "SparseMatrix":
        return cls(fld, rows, cols, {})

    @classmethod
    def identity(cls, fld: Field, n: int) -> "SparseMatrix":
        return cls(fld, n, n, {(i, i): fld.one for i in range(n)})

    def is_zero(self) -> bool:
        return not self.entries

    def apply(self, vec: list) -> list:
        """Matrix-vector product (vec indexed by columns)."""
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != cols {self.cols}")
        fld = self.field
        out = [fld.zero] * self.rows
        for (r, c), v in self.entries.items():
            if not fld.is_zero(vec[c]):
                out[r] = fld.add(out[r], fld.mul(v, vec[c]))
        return out

    def compose(self, inner: "SparseMatrix") -> "SparseMatrix":
        """self @ inner (apply inner first)."""
        if inner.rows != self.cols:
            raise ValueError("composition shape mismatch")
        fld = self.field
        by_row: dict = {}
        for (r, c), v in inner.entries.items():
            by_row.setdefault(r, []).append((c, v))
        entries: dict = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                key = (r, c)
                s = fld.add(entries.get(key, fld.zero), fld.mul(v, w))
                if fld.is_zero(s):
                    entries.pop(key, None)
                else:
                    entries[key] = s
        return SparseMatrix(fld, self.rows, inner.cols, entries)

    def equals(self, other: "SparseMatrix") -> bool:
        return (
            (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def to_dense(self) -> list:
        dense = [[self.field.zero] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            dense[r][c] = v
        return dense


def _primitive_int_row(row: list) -> list:
    """Scale a row of Fractions/ints to integers with content 1."""
    den = 1
    for v in row:
        if isinstance(v, Fraction):
            d = v.denominator
            den = den * d // gcd(den, d)
    ints = [int(v * den) for v in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _integer_row(row: dict) -> dict:
    """Scale a sparse row of Fractions/ints to integers with content 1."""
    den = 1
    for v in row.values():
        d = v.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    return _primitive(
        {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    )


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
    they hold integers, updated fraction-free, and every pivot row is stored
    with content 1, so the rank is exact in both cases.  No dense row and no
    kernel is ever built.
    """
    p = m.field.characteristic
    grouped: dict = {}
    for (r, c), v in m.entries.items():
        grouped.setdefault(r, {})[c] = v
    pivots: dict = {}  # leading column -> pivot row
    for row in sorted(grouped.values(), key=len):
        if not p:
            row = _integer_row(row)
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


def _rref(rows: list, fld: Field) -> tuple:
    """In-place reduced row echelon form; returns (rank, pivot columns).

    Pivoting takes the first nonzero entry in column order; exact arithmetic
    needs no pivot-size selection and this keeps kernel bases deterministic.
    The arithmetic is inlined rather than routed through Field methods because
    it runs on every dense entry.  Only `row_reduce`, for kernels, comes here;
    ranks go through `rank`.  Over Q the elimination is fraction-free
    (cross-multiplied primitive integer rows, normalized to canonical Fractions
    only at the end) to stop coefficient blow-up on deep windows.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    p = fld.characteristic
    if p == 0:
        for i in range(nrows):
            rows[i] = _primitive_int_row(rows[i])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        row_r = rows[r]
        if p:
            lead = row_r[c]
            if lead != 1:
                inv = pow(lead, -1, p)
                rows[r] = row_r = [(inv * v) % p for v in row_r]
            for i in range(nrows):
                if i != r:
                    f = rows[i][c]
                    if f:
                        rows[i] = [(a - f * b) % p for a, b in zip(rows[i], row_r)]
        else:
            lead = row_r[c]
            for i in range(nrows):
                if i != r:
                    f = rows[i][c]
                    if f:
                        new = [lead * a - f * b for a, b in zip(rows[i], row_r)]
                        g = 0
                        for v in new:
                            g = gcd(g, v)
                        if g > 1:
                            new = [v // g for v in new]
                        rows[i] = new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if p == 0:
        for i, c in enumerate(pivots):
            lead = rows[i][c]
            rows[i] = [Fraction(v, lead) for v in rows[i]]
        for i in range(len(pivots), nrows):
            rows[i] = [Fraction(0)] * ncols
    return r, pivots


@dataclass
class Echelon:
    """Result of row reduction: rank, pivot columns, canonical kernel basis."""

    rank: int
    pivots: list
    kernel: list  # canonical basis of ker(m), vectors of length cols
    rref: list    # nonzero RREF rows of the matrix


def row_reduce(m: SparseMatrix) -> Echelon:
    """Reduced echelon form, rank, and canonical kernel basis of a matrix.

    The kernel basis is the standard free-column construction off the RREF
    (pivoting on the first nonzero entry in column order), which is unique,
    so identical matrices always yield identical bases.
    """
    fld = m.field
    dense = m.to_dense()
    rank, pivots = _rref(dense, fld)
    rref_rows = dense[:rank]
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    kernel = []
    for fc in free_cols:
        vec = [fld.zero] * m.cols
        vec[fc] = fld.one
        for i, pc in enumerate(pivots):
            vec[pc] = fld.neg(rref_rows[i][fc])
        kernel.append(vec)
    return Echelon(rank=rank, pivots=pivots, kernel=kernel, rref=rref_rows)
