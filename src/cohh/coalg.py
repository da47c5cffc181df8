"""Graded cocommutative coalgebra presentations with exact coproduct/counit.

Three cogenerator families are supported: polynomial (basis w^j, binomial
coproduct), exterior (basis 1, y with primitive coproduct), and divided power
(basis gamma_j(x), shuffle-free coproduct with unit coefficients).  Tensor
products of cogenerators expand multiplicatively with the Koszul sign rule:
transposing homogeneous factors u, v multiplies by (-1)^(|u||v|).

A basis monomial is its exponent tuple over the cogenerator list, in list
order: 0 or 1 for an exterior cogenerator, j for w^j or gamma_j(x).  The unit
is the all-zero tuple.  Elements are dicts keyed by monomials (or by tuples of
monomials, for tensor powers) with plain int coefficients: canonical residues
in [1, p) over F_p, nonzero ints over Q.  Code here multiplies and negates
ints and accumulates every term through `add_term`, the one place where
coefficients are reduced and vanishing terms dropped.

A presentation caches, per argument, its basis in each degree, the coproduct
of each monomial and the degree of each monomial; the Koszul sign of every
twisted cobar term reads the degree of each of its factors.

This is the presentation module: the one module every production command
loads beyond the CLI.  Besides the presentation it holds the names those
commands share: `Field` with its primality test, `add_term`, and the
`BidegreeWindow` with its default bounds.  It imports only `errors`, `math`
and `typing`.  `exactfield` re-exports `Field`, `add_term` and
`CompositeCharacteristic`, and `cochain` re-exports `BidegreeWindow` and
`WindowTooSmall`; each name is defined here alone.  The cobar machinery
(`cochain`, and `exactfield`'s `SparseMatrix` and `rank`) is the oracle:
`selftest`, the tests and the benchmark replay load it, `hz` loads
`exactfield` for its one rank, and `cohh cohh` loads it only for the one
factor kind without a closed form, which the grammar cannot express.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Optional

from .errors import InvalidInput

DEFAULT_MAX_S = 6
DEFAULT_MAX_T = 24


class CompositeCharacteristic(InvalidInput):
    """Requested characteristic is neither 0 nor a prime."""


class WindowTooSmall(InvalidInput):
    """Bidegree window has a negative bound."""


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
    """F_p for a prime p, or Q when characteristic == 0."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int):
        if characteristic != 0 and not _is_prime(characteristic):
            raise CompositeCharacteristic(
                f"characteristic must be 0 or a prime, got {characteristic}"
            )
        self.characteristic = characteristic

    def __eq__(self, other):
        if other.__class__ is not Field:
            return NotImplemented
        return self.characteristic == other.characteristic

    def __hash__(self):
        return hash(self.characteristic)

    def __repr__(self):
        return f"Field(characteristic={self.characteristic!r})"

    def scalar(self, x: int) -> int:
        """Canonicalize an integer into the field: its residue mod p, or itself."""
        p = self.characteristic
        return x % p if p else x


def add_term(acc: dict, key, coeff: int, fld: Field):
    """acc[key] += coeff in the field, dropping the key when the sum vanishes."""
    s = fld.scalar(acc.get(key, 0) + coeff)
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


class BidegreeWindow(NamedTuple):
    """Finite truncation: cosimplicial degrees s <= max_s, internal degrees t <= max_t."""

    max_s: int = DEFAULT_MAX_S
    max_t: int = DEFAULT_MAX_T

POLYNOMIAL = "polynomial"
EXTERIOR = "exterior"
DIVIDED_POWER = "divided_power"
KINDS = (POLYNOMIAL, EXTERIOR, DIVIDED_POWER)


class NotConnected(InvalidInput):
    """Presentation has basis outside degree 0's single unit (degree < 1 cogenerator)."""


class ParityViolation(InvalidInput):
    """Exterior cogenerators must be odd, polynomial/divided-power even (char != 2)."""


class Cogenerator(NamedTuple):
    """One named cogenerator; truncation caps the exponent (divided powers: max j)."""

    name: str
    kind: str
    degree: int
    truncation: Optional[int] = None


class CoalgebraPresentation:
    """A connected graded coalgebra given by typed cogenerators over a field."""

    def __init__(self, field: Field, cogenerators):
        self.field = field
        self.cogenerators = tuple(cogenerators)
        names = [c.name for c in self.cogenerators]
        if len(set(names)) != len(names):
            raise InvalidInput(f"duplicate cogenerator names in {names}")
        for cog in self.cogenerators:
            if cog.kind not in KINDS:
                raise ValueError(f"unknown cogenerator kind {cog.kind!r}")
            if cog.degree < 1:
                raise NotConnected(
                    f"cogenerator {cog.name} has degree {cog.degree}; "
                    "connectedness requires positive degrees"
                )
            if field.characteristic != 2:
                odd = cog.degree % 2 == 1
                if cog.kind == EXTERIOR and not odd:
                    raise ParityViolation(
                        f"exterior cogenerator {cog.name} must have odd degree, "
                        f"got {cog.degree}"
                    )
                if cog.kind in (POLYNOMIAL, DIVIDED_POWER) and odd:
                    raise ParityViolation(
                        f"{cog.kind} cogenerator {cog.name} must have even degree, "
                        f"got {cog.degree}"
                    )
            if cog.truncation is not None and cog.truncation < 1:
                raise ValueError(f"truncation of {cog.name} must be >= 1")
        self._basis_cache: dict = {}
        self._coproduct_cache: dict = {}
        self._degree_cache: dict = {}

    # -- monomials ---------------------------------------------------------

    def unit(self) -> tuple:
        return (0,) * len(self.cogenerators)

    def _validate_monomial(self, m: tuple):
        if len(m) != len(self.cogenerators):
            raise ValueError("monomial exponent vector has the wrong length")
        for cog, e in zip(self.cogenerators, m):
            if e < 0:
                raise ValueError(f"negative exponent on {cog.name}")
            if cog.kind == EXTERIOR and e > 1:
                raise ValueError(f"exterior exponent on {cog.name} exceeds 1")
            if cog.truncation is not None and e > cog.truncation:
                raise ValueError(f"exponent on {cog.name} exceeds truncation")

    def degree(self, m: tuple) -> int:
        d = self._degree_cache.get(m)
        if d is None:
            d = self._degree_cache[m] = sum(
                e * c.degree for e, c in zip(m, self.cogenerators)
            )
        return d

    def format_monomial(self, m: tuple) -> str:
        parts = []
        for cog, e in zip(self.cogenerators, m):
            if e == 0:
                continue
            if e == 1:
                parts.append(cog.name)
            elif cog.kind == DIVIDED_POWER:
                parts.append(f"gamma_{e}({cog.name})")
            else:
                parts.append(f"{cog.name}^{e}")
        return "*".join(parts) if parts else "1"

    # -- basis enumeration ---------------------------------------------------

    def basis_in_degree(self, t: int) -> list:
        """All monomials of internal degree t, in lexicographic exponent order."""
        if t < 0:
            return []
        if t in self._basis_cache:
            return self._basis_cache[t]
        cogs = self.cogenerators
        out = []
        acc = [0] * len(cogs)

        def rec(idx: int, remaining: int):
            if idx == len(cogs):
                if remaining == 0:
                    out.append(tuple(acc))
                return
            cog = cogs[idx]
            cap = remaining // cog.degree
            if cog.kind == EXTERIOR:
                cap = min(cap, 1)
            if cog.truncation is not None:
                cap = min(cap, cog.truncation)
            for e in range(cap + 1):
                acc[idx] = e
                rec(idx + 1, remaining - e * cog.degree)
            acc[idx] = 0

        rec(0, t)
        self._basis_cache[t] = out
        return out

    # -- coproduct ----------------------------------------------------------

    def _single_coproduct(self, cog: Cogenerator, e: int) -> list:
        """Coproduct terms of one cogenerator power: [(left_exp, coefficient)]."""
        if cog.kind == POLYNOMIAL:
            terms: dict = {}
            for k in range(e + 1):
                add_term(terms, k, comb(e, k), self.field)
            return list(terms.items())
        # exterior (e <= 1) and divided power both split with unit coefficients
        return [(k, 1) for k in range(e + 1)]

    def coproduct_monomial(self, m: tuple) -> dict:
        """Coproduct of a basis monomial as {(left, right): coefficient}."""
        if m in self._coproduct_cache:
            return self._coproduct_cache[m]
        self._validate_monomial(m)
        # partial terms: (left exps, right exps, right degree, coefficient)
        partial = [((), (), 0, 1)]
        for cog, e in zip(self.cogenerators, m):
            nxt = []
            for left, right, rdeg, coeff in partial:
                for k, ck in self._single_coproduct(cog, e):
                    c = coeff * ck
                    # Koszul sign: the left factor g^k crosses the right part
                    if (rdeg * k * cog.degree) % 2:
                        c = -c
                    nxt.append(
                        (left + (k,), right + (e - k,), rdeg + (e - k) * cog.degree, c)
                    )
            partial = nxt
        result: dict = {}
        for left, right, _, coeff in partial:
            add_term(result, (left, right), coeff, self.field)
        self._coproduct_cache[m] = result
        return result


# -- linear-combination helpers ---------------------------------------------


def apply_coproduct_to_slot(C: CoalgebraPresentation, terms: dict, slot: int) -> dict:
    """Apply the coproduct to one slot of tensor-monomial terms.

    Keys are tuples of monomials; the slot splits into two adjacent slots.
    The coproduct has degree 0, so no Koszul sign appears.
    """
    fld = C.field
    out: dict = {}
    for tup, coeff in terms.items():
        for (a, b), c in C.coproduct_monomial(tup[slot]).items():
            key = tup[:slot] + (a, b) + tup[slot + 1:]
            add_term(out, key, coeff * c, fld)
    return out
