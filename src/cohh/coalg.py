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
in [1, p) over F_p, nonzero ints over Q.  Code sums plain ints and reduces
each sum once with `reduced_sums`, the one rule by which an integer becomes a
field element and a vanishing term is dropped; only `cochain.rank`'s
elimination and `cochain.twist_first_to_last`'s negation keep their own
inline arithmetic.

A presentation caches, per argument, its basis in each degree, the coproduct
of each monomial, its reduced coproduct (the terms with both sides of
positive degree, whose kernel is the primitives and which the normalized
cobar differential is made of) and the degree of each monomial; the Koszul
sign of every twisted cobar term reads the degree of each of its factors.
Its field-free `oracle_memo` holds what the cobar oracle derives from the
cogenerators alone: tensor bases, spot indexes and codegeneracy maps.  `over`
shares it with the basis and degree caches, so each is worked out once per
cogenerator list.

This is the presentation module: the one module every production command
loads beyond the CLI.  Besides the presentation it holds the names those
commands share: `Field` with its primality test, `reduced_sums`,
`BidegreeWindow`, whose bounds every caller gives (the CLI's defaults live in
`cli.COMMANDS`), `format_monomial`, and the E2 page record, `E2Presentation`,
with the one shape vocabulary (`shape()`), the named page of a shape
(`standard_page`) and its identification line (`describe`): identification
returns a page and `collapse` certifies one.  It imports only `collections`,
`errors`, `itertools` and `math`.  The cobar machinery, with its
`SparseMatrix` and `rank`, is the oracle, `cochain`: `selftest`, the tests
and the benchmark replay load it, and `cohh cohh` loads it only for the one
factor kind without a closed form, which the grammar cannot express.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import zip_longest
from math import comb

from .errors import InvalidInput

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


def reduced_sums(sums: dict, p: int) -> dict:
    """The integer sums reduced into characteristic p, with the zeros dropped;
    over Q, sums with no zero are returned as they are."""
    if p:
        return {key: x for key, v in sums.items() if (x := v % p)}
    return sums if all(sums.values()) else {key: v for key, v in sums.items() if v}


BidegreeWindow = namedtuple("BidegreeWindow", "max_s max_t")
BidegreeWindow.__doc__ = (
    "Finite truncation: cosimplicial degrees s <= max_s, internal degrees t <= max_t."
)

POLYNOMIAL = "polynomial"
EXTERIOR = "exterior"
DIVIDED_POWER = "divided_power"
KINDS = (POLYNOMIAL, EXTERIOR, DIVIDED_POWER)


def format_monomial(generators, exponents: tuple) -> str:
    """The monomial with `exponents` on the named `generators`, as
    `y*w^3*gamma_2(x)`: a divided power g^e prints as gamma_e(g), any other
    power as g^e, and the unit as 1."""
    parts = []
    for g, e in zip(generators, exponents):
        if e == 0:
            continue
        if e == 1:
            parts.append(g.name)
        elif g.kind == DIVIDED_POWER:
            parts.append(f"gamma_{e}({g.name})")
        else:
            parts.append(f"{g.name}^{e}")
    return "*".join(parts) if parts else "1"


class NotConnected(InvalidInput):
    """Presentation has basis outside degree 0's single unit (degree < 1 cogenerator)."""


class ParityViolation(InvalidInput):
    """Exterior cogenerators must be odd, polynomial/divided-power even (char != 2)."""


Cogenerator = namedtuple("Cogenerator", "name kind degree truncation", defaults=(None,))
Cogenerator.__doc__ = (
    "One named cogenerator; truncation caps the exponent (divided powers: max j)."
)


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
        # with every degree even no Koszul sign arises
        self.even = all(cog.degree % 2 == 0 for cog in self.cogenerators)
        self._basis_cache: dict = {}
        self._coproduct_cache: dict = {}
        self._reduced_cache: dict = {}
        self._degree_cache: dict = {}
        self.oracle_memo: dict = {}

    def over(self, field: Field) -> "CoalgebraPresentation":
        """The same cogenerators over another field.  The basis, the degrees
        and the oracle memo do not depend on the field, so the two
        presentations share them; the coproduct and the reduced coproduct,
        whose coefficients do, are computed apart."""
        other = CoalgebraPresentation(field, self.cogenerators)
        other._basis_cache = self._basis_cache
        other._degree_cache = self._degree_cache
        other.oracle_memo = self.oracle_memo
        return other

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
        return format_monomial(self.cogenerators, m)

    # -- basis enumeration ---------------------------------------------------

    def basis_in_degree(self, t: int) -> list:
        """All monomials of internal degree t, in lexicographic exponent order."""
        if t < 0:
            return []
        basis = self._basis_cache.get(t)
        if basis is None:
            partial = [((), t)]  # leading exponents, and the degree they leave
            for cog in self.cogenerators:
                cap = 1 if cog.kind == EXTERIOR else cog.truncation
                grown = []
                for exps, left in partial:
                    top = left // cog.degree if cap is None else min(left // cog.degree, cap)
                    grown += [(exps + (e,), left - e * cog.degree) for e in range(top + 1)]
                partial = grown
            basis = self._basis_cache[t] = [exps for exps, left in partial if not left]
        return basis

    # -- coproduct ----------------------------------------------------------

    def _single_coproduct(self, cog: Cogenerator, e: int) -> list:
        """Coproduct terms of one cogenerator power: [(left_exp, coefficient)]."""
        if cog.kind == POLYNOMIAL:
            # a binomial that vanishes mod p drops out before it is multiplied
            binomials = {k: comb(e, k) for k in range(e + 1)}
            return list(reduced_sums(binomials, self.field.characteristic).items())
        # exterior (e <= 1) and divided power both split with unit coefficients
        return [(k, 1) for k in range(e + 1)]

    def coproduct_monomial(self, m: tuple) -> dict:
        """Coproduct of a basis monomial as {(left, right): coefficient}.

        The coefficients are multiplied out as ints and reduced once: no two
        terms share a key, since a term (a, b) of m has a + b = m."""
        result = self._coproduct_cache.get(m)
        if result is not None:
            return result
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
        result = self._coproduct_cache[m] = reduced_sums(
            {(left, right): coeff for left, right, _, coeff in partial},
            self.field.characteristic,
        )
        return result

    def reduced_coproduct(self, m: tuple) -> list:
        """The coproduct terms (a, b, c) of m with both sides of positive degree."""
        bars = self._reduced_cache.get(m)
        if bars is None:
            bars = self._reduced_cache[m] = [
                (a, b, c) for (a, b), c in self.coproduct_monomial(m).items()
                if any(a) and any(b)
            ]
        return bars


# -- the E2 page -----------------------------------------------------------------

LAMBDA_POLY = "lambda_poly"
GAMMA_EXTERIOR = "gamma_exterior"
TRIVIAL = "trivial"
OTHER = "other"
# Per named shape: (name stem, kind) of the column-0 and column-1 generators.
_STANDARD = {
    LAMBDA_POLY: (("y", EXTERIOR), ("w", POLYNOMIAL)),
    GAMMA_EXTERIOR: (("x", DIVIDED_POWER), ("z", EXTERIOR)),
}


class WrongShape(InvalidInput):
    """E2 presentation does not have the shape this operation analyzes."""


E2Generator = namedtuple("E2Generator", "name kind s t")


class E2Presentation:
    """Symbolic E2 page: generators with bidegrees over a fixed characteristic."""

    __slots__ = ("characteristic", "generators")

    def __init__(self, characteristic: int, generators):
        Field(characteristic)  # refuses a characteristic that is not 0 or a prime
        self.characteristic = characteristic
        self.generators = tuple(generators)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise InvalidInput(f"duplicate generator names in {names}")
        for g in self.generators:
            if g.t < 1:
                raise InvalidInput(f"generator {g.name} must have positive internal degree")
            if g.kind == POLYNOMIAL and g.s != 1:
                raise WrongShape(f"polynomial generator {g.name} must sit in column 1")
            if g.kind == DIVIDED_POWER and g.s != 0:
                raise WrongShape(f"divided-power generator {g.name} must sit in column 0")
            if g.kind == EXTERIOR and g.s not in (0, 1):
                raise WrongShape(f"exterior generator {g.name} must sit in column 0 or 1")
            if characteristic != 2 and g.kind == EXTERIOR and g.s == 0 and g.t % 2 == 0:
                raise WrongShape(
                    f"column-0 exterior generator {g.name} must have odd internal degree"
                )

    def __eq__(self, other):
        if other.__class__ is not E2Presentation:
            return NotImplemented
        return (self.characteristic, self.generators) == (other.characteristic, other.generators)

    @property
    def exterior(self) -> list:
        """The column-0 exterior generators."""
        return [g for g in self.generators if g.kind == EXTERIOR and g.s == 0]

    @property
    def polynomial(self) -> list:
        """The polynomial generators, each in column 1 (`__init__` checks)."""
        return [g for g in self.generators if g.kind == POLYNOMIAL]

    def shape(self) -> str:
        kinds = {(g.kind, g.s) for g in self.generators}
        if not kinds:
            return TRIVIAL
        for shape, ((_, base), (_, top)) in _STANDARD.items():
            if kinds <= {(base, 0), (top, 1)}:
                return shape
        return OTHER

    # exponent vectors are plain tuples aligned with self.generators
    def bidegree(self, exponents: tuple) -> tuple:
        s = sum(e * g.s for e, g in zip(exponents, self.generators))
        t = sum(e * g.t for e, g in zip(exponents, self.generators))
        return (s, t)

    def format_monomial(self, exponents: tuple) -> str:
        return format_monomial(self.generators, exponents)

    def describe(self, coefficients: str = "k") -> str:
        """The page as an identification line over the field `coefficients`,
        as `Λ(y1)⊗k[w1], ||y1||=(0,3), ||w1||=(1,3)` or `Γ[x1]⊗Λ(z1), ...`:
        the i-th generator of column 0 before the i-th of column 1."""
        shape = self.shape()
        if shape == TRIVIAL:
            return "k (trivial)"
        if shape == OTHER:
            raise WrongShape("E2 page mixes generator kinds beyond the recognized shapes")
        columns = [[g for g in self.generators if g.s == s] for s in (0, 1)]
        base, top = (",".join(g.name for g in column) for column in columns)
        head = (f"Λ({base})⊗{coefficients}[{top}]" if shape == LAMBDA_POLY
                else f"Γ[{base}]⊗Λ({top})")
        listed = [g for pair in zip_longest(*columns) for g in pair if g is not None]
        return ", ".join([head, *(f"||{g.name}||=({g.s},{g.t})" for g in listed)])


def standard_page(shape: str, characteristic: int, degrees, names=None) -> E2Presentation:
    """The named page of `shape` (LAMBDA_POLY or GAMMA_EXTERIOR) on `degrees`:
    a column-0 generator at (0, d) for each degree d, then a column-1
    generator at (1, d) for each, named by `names` in that order, or by
    default y1.., w1.. on Λ(y)⊗k[w] and x1.., z1.. on Γ[x]⊗Λ(z)."""
    (base, base_kind), (top, top_kind) = _STANDARD[shape]
    n = len(degrees)
    names = names or [f"{stem}{i + 1}" for stem in (base, top) for i in range(n)]
    places = [(base_kind, 0)] * n + [(top_kind, 1)] * n
    return E2Presentation(characteristic, [
        E2Generator(name, kind, s, d)
        for name, (kind, s), d in zip(names, places, [*degrees, *degrees])
    ])
