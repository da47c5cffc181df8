"""Dense Gaussian elimination: an independent rank oracle for the tests.

Over Q it eliminates in `Fraction`s with ordinary division, over F_p with
modular inverses, on a full dense copy of the matrix; it shares no code with
the sparse, fraction-free `cochain.rank` it checks.  `from_triples` builds the
`SparseMatrix` of a hand-written or random matrix, in the one layout every
cobar map has, a list of columns of (row, value) pairs; `matrix_product`
builds the product of two, for matrices of low rank.
"""

from fractions import Fraction

from cohh.coalg import reduced_sums
from cohh.cochain import SparseMatrix


def from_triples(fld, rows: int, cols: int, triples) -> SparseMatrix:
    """A `SparseMatrix` from (row, col, value) triples; repeats are summed."""
    sums: dict = {}
    for r, c, v in triples:
        if not (0 <= r < rows and 0 <= c < cols):
            raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
        sums[(r, c)] = sums.get((r, c), 0) + v
    columns = [[] for _ in range(cols)]
    for (r, c), v in reduced_sums(sums, fld.characteristic).items():
        columns[c].append((r, v))
    return SparseMatrix(fld, rows, [tuple(column) for column in columns])


def matrix_product(a, b) -> SparseMatrix:
    """a @ b (apply b first), each entry the sum of its products over every
    pair of entries that meet, reduced by `from_triples`."""
    return from_triples(a.field, a.rows, b.cols, [
        (r, c, v * w)
        for c, column in enumerate(b.columns)
        for k, w in column
        for r, v in a.columns[k]
    ])


def dense_rank(m) -> int:
    """Rank of a `SparseMatrix` by dense row reduction."""
    p = m.field.characteristic
    rows = [[0] * m.cols for _ in range(m.rows)]
    for c, column in enumerate(m.columns):
        for r, v in column:
            rows[r][c] = v if p else Fraction(v)
    rank = 0
    for c in range(m.cols):
        pivot = next((i for i in range(rank, m.rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][c]
        for i in range(rank + 1, m.rows):
            f = rows[i][c]
            if f:
                if p:
                    f = f * pow(lead, -1, p) % p
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
                else:
                    f /= lead
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank
