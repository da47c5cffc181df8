"""Dense Gaussian elimination: an independent rank oracle for the tests.

Over Q it eliminates in `Fraction`s with ordinary division, over F_p with
modular inverses, on a full dense copy of the matrix; it shares no code with
the sparse, fraction-free `exactfield.rank` it checks.
"""

from fractions import Fraction


def dense_rank(m) -> int:
    """Rank of a `SparseMatrix` by dense row reduction."""
    p = m.field.characteristic
    rows = [[0] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
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
