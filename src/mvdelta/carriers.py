"""Concrete MV-algebra carriers and ideal/radical computations.

A *carrier* bundles an element domain with the MV operations; the term
evaluator and every higher-level routine talk to carriers through the
small interface of :class:`Carrier` (zero, oplus, neg, equality, order,
optional constants and the midpoint (x + y)/2).  The derived
connectives odot, ominus, dist, join, meet and nfold are defined once
for the whole package, on :class:`Carrier`, from oplus and neg (nfold by
binary doubling), and so is the eventually constant delta, from the
midpoint: delta(p1, ..., pk; c) = midpoint(p1, delta(p2, ..., pk; c)),
folded in from the tail.  The n-fold halving ``halve_n`` is one delta
call, or a closed form: ``x / 2^n`` on the unit interval, factor by
factor on products, a scaling on the piecewise-linear functions.

Provided here: the unit interval of exact rationals, finite Lukasiewicz
chains ``{0, 1/n, ..., 1}``, finite direct products, and Chang's
algebra, realised as the unit interval of the lexicographic group Z x Z
with unit (1, 0).  Elements (0, k) with k >= 1 are the infinitesimals.

Every finite routine runs on ``carrier.chain_factors``, built once per
instance: the carrier as a product of chains {0, 1/n, ..., 1}, nested to
any depth, with its one listing of the elements.  Each chain is checked
on its own operations, O(n^2), never O(|A|^2), where the chain factors
are built, so no routine answers on an unchecked chain.  Ideals, the
radical and the infinitesimal test run factor by factor; good sequences
run on the integer oplus and order tables that :func:`index_tables`
composes from the checked chains.  A finite carrier past
``TABLE_ENTRY_BUDGET`` table entries is refused before any work
(:class:`TableBudgetExceeded`), its chains unchecked.
"""

from __future__ import annotations

import itertools
import math
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property

from .rationals import ONE, Q01, ZERO, parse_q01

__all__ = [
    "CarrierError",
    "CarrierMismatch",
    "DeltaUnsupported",
    "ConstUnsupported",
    "Carrier",
    "TABLE_ENTRY_BUDGET",
    "MAX_NESTING",
    "OverBudget",
    "TableBudgetExceeded",
    "WorkBudgetExceeded",
    "check_work",
    "UnitInterval",
    "FiniteChain",
    "ProductAlg",
    "ChangElem",
    "ChangAlgebra",
    "Q01_CARRIER",
    "CHANG",
    "carrier_from_spec",
    "is_ideal",
    "principal_ideal",
    "enumerate_ideals",
    "maximal_ideals",
    "projection",
    "Radical",
    "radical",
    "index_tables",
    "InfinitesimalCertificate",
    "is_infinitesimal",
    "halving_witness",
]


class CarrierError(Exception):
    pass


class CarrierMismatch(CarrierError):
    pass


class DeltaUnsupported(CarrierError):
    pass


class ConstUnsupported(CarrierError):
    pass


class OverBudget(Exception):
    """Work refused before it starts, its size or estimated cost being past a budget."""


class WorkBudgetExceeded(OverBudget):
    """Work whose estimated steps pass its limit, refused before it runs."""


def check_work(what: str, estimate: int, limit: int) -> None:
    if estimate > limit:
        raise WorkBudgetExceeded(
            f"work budget exceeded: {what} needs about {Decimal(estimate):.2e} steps, "
            f"over the limit of {limit}"
        )


# |A|^2 table entries at most: 1,024 elements.
TABLE_ENTRY_BUDGET = 2**20


class TableBudgetExceeded(OverBudget, CarrierError):
    """A finite carrier too large to tabulate, refused before any element is listed."""


class Carrier(ABC):
    """Abstract MV-algebra carrier.

    Subclasses implement zero/oplus/neg and may override const,
    midpoint, leq, and the finite-enumeration hooks.  The derived
    connectives are defined once here from oplus and neg, and delta from
    midpoint; a carrier without a midpoint refuses every delta.
    """

    @property
    @abstractmethod
    def spec(self) -> str:
        """Canonical spec string, e.g. ``chain:2`` or ``prod(chain:2,chain:3)``."""

    @abstractmethod
    def zero(self):
        ...

    @abstractmethod
    def oplus(self, x, y):
        ...

    @abstractmethod
    def neg(self, x):
        ...

    def one(self):
        return self.neg(self.zero())

    def eq(self, x, y) -> bool:
        return x == y

    def leq(self, x, y) -> bool:
        # x <= y  iff  neg(x) oplus y = 1
        return self.eq(self.oplus(self.neg(x), y), self.one())

    def const(self, q: Q01):
        raise ConstUnsupported(f"carrier {self.spec} has no element for constant {q}")

    def midpoint(self, x, y):
        """(x + y) / 2, which never truncates: the one step of delta."""
        raise DeltaUnsupported(f"carrier {self.spec} does not support delta")

    def delta(self, prefix, tail):
        """The midpoints folded in from the tail; delta(; c) is midpoint(c, c)."""
        acc = tail if prefix else self.midpoint(tail, tail)
        for p in reversed(prefix):
            acc = self.midpoint(p, acc)
        return acc

    # Derived connectives.

    def odot(self, x, y):
        return self.neg(self.oplus(self.neg(x), self.neg(y)))

    def ominus(self, x, y):
        # x odot neg(y), with the double negation cancelled.
        return self.neg(self.oplus(self.neg(x), y))

    def dist(self, x, y):
        return self.oplus(self.ominus(x, y), self.ominus(y, x))

    def join(self, x, y):
        return self.oplus(self.neg(self.oplus(self.neg(x), y)), y)

    def meet(self, x, y):
        return self.neg(self.join(self.neg(x), self.neg(y)))

    def nfold(self, n: int, x):
        """x oplus ... oplus x (n times), by binary doubling: O(log n) oplus
        calls, valid because oplus is associative and commutative."""
        if n < 1:
            raise ValueError(f"nfold requires n >= 1, got {n}")
        out, power = None, x
        while True:
            if n & 1:
                out = power if out is None else self.oplus(out, power)
            n >>= 1
            if not n:
                return out
            power = self.oplus(power, power)

    def halve_n(self, n: int, x):
        """The n-fold halving x / 2^n, as delta(0, ..., 0, x, 0, ...) with x
        in place n; carriers with a closed form override it."""
        if n < 1:
            raise ValueError(f"halfn requires n >= 1, got {n}")
        zero = self.zero()
        return self.delta([zero] * (n - 1) + [x], zero)

    # Finite-enumeration hooks.

    def is_finite(self) -> bool:
        return False

    def elements(self) -> list:
        raise CarrierError(f"carrier {self.spec} is not enumerable")

    def size(self) -> int:
        """Number of elements, computed without listing them."""
        raise CarrierError(f"carrier {self.spec} is not enumerable")

    def tabulable_size(self) -> int:
        """The number of elements, once it has passed the table budget."""
        size = self.size()
        if size * size > TABLE_ENTRY_BUDGET:
            raise TableBudgetExceeded(
                f"table budget exceeded: {self.spec} has {size} elements, "
                f"over the limit of {math.isqrt(TABLE_ENTRY_BUDGET)} "
                f"({TABLE_ENTRY_BUDGET} table entries)"
            )
        return size

    @cached_property
    def chain_factors(self) -> _ChainFactors:
        """This finite carrier as a product of chains, kept by this instance."""
        return _ChainFactors(self)

    # Element text I/O for reports and the CLI.

    def format_element(self, x) -> str:
        return str(x)

    def parse_element(self, text: str):
        raise CarrierError(f"carrier {self.spec} has no element literal syntax")

    def __repr__(self):
        return f"<carrier {self.spec}>"


@dataclass(frozen=True)
class UnitInterval(Carrier):
    """The standard MV-algebra: exact rationals in [0, 1]."""

    @property
    def spec(self) -> str:
        return "q01"

    def zero(self) -> Q01:
        return ZERO

    # Exact Q01 arguments take int kernels: Fraction.__new__ reduces, no range check.
    def oplus(self, x: Q01, y: Q01) -> Q01:
        if type(x) is Q01 and type(y) is Q01:
            b, d = x._denominator, y._denominator
            n, m = x._numerator * d + y._numerator * b, b * d
            return ONE if n >= m else Fraction.__new__(Q01, n, m)
        return Q01(min(x + y, 1))

    def neg(self, x: Q01) -> Q01:
        if type(x) is Q01:
            return Fraction.__new__(Q01, x._denominator - x._numerator, x._denominator)
        return Q01(1 - x)

    def leq(self, x: Q01, y: Q01) -> bool:
        return x <= y

    def const(self, q: Q01) -> Q01:
        return q

    def midpoint(self, x: Q01, y: Q01) -> Q01:
        if type(x) is Q01 and type(y) is Q01:
            b, d = x._denominator, y._denominator
            return Fraction.__new__(Q01, x._numerator * d + y._numerator * b, 2 * b * d)
        return Q01((x + y) / 2)

    def nfold(self, n: int, x: Q01) -> Q01:  # min(n x, 1) in one step
        if type(x) is Q01 and type(n) is int and n >= 1:
            m = n * x._numerator
            return ONE if m >= x._denominator else Fraction.__new__(Q01, m, x._denominator)
        return super().nfold(n, x)

    def halve_n(self, n: int, x: Q01) -> Q01:
        if type(x) is Q01 and type(n) is int and n >= 0:
            return Fraction.__new__(Q01, x._numerator, x._denominator << n)
        return Q01(x / 2**n)

    def parse_element(self, text: str) -> Q01:
        return parse_q01(text)


@dataclass(frozen=True)
class FiniteChain(Carrier):
    """The chain {0, 1/n, ..., 1}; elements are stored as integers 0..n.

    ``n = 0`` gives the trivial (one-element) algebra with 0 = 1.
    """

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"chain denominator must be >= 0, got {self.n}")

    @property
    def spec(self) -> str:
        return f"chain:{self.n}"

    def _check(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x <= self.n:
            raise CarrierMismatch(f"{x!r} is not an element of {self.spec}")
        return x

    def zero(self) -> int:
        return 0

    def oplus(self, x: int, y: int) -> int:
        n = self.n
        # Exact ints in range need no _check; anything else gets its error.
        if type(x) is int and type(y) is int and 0 <= x <= n and 0 <= y <= n:
            return x + y if x + y < n else n
        self._check(x), self._check(y)
        return min(x + y, n)

    def neg(self, x: int) -> int:
        return self.n - (x if type(x) is int and 0 <= x <= self.n else self._check(x))

    def leq(self, x: int, y: int) -> bool:
        if not (type(x) is type(y) is int and 0 <= x <= self.n and 0 <= y <= self.n):
            self._check(x), self._check(y)
        return x <= y

    def const(self, q: Q01) -> int:
        if self.n == 0:
            return 0
        if self.n % q.denominator != 0:
            raise ConstUnsupported(f"constant {q} is not a multiple of 1/{self.n}")
        return q.numerator * (self.n // q.denominator)

    def is_finite(self) -> bool:
        return True

    def elements(self) -> list[int]:
        return list(range(self.n + 1))

    def size(self) -> int:
        return self.n + 1

    def format_element(self, x) -> str:
        self._check(x)
        if self.n == 0:
            return "0"
        return str(Fraction(x, self.n))

    def parse_element(self, text: str) -> int:
        q = parse_q01(text)
        return self._check(self.const(q)) if self.n else 0


@dataclass(frozen=True)
class ProductAlg(Carrier):
    """Finite direct product; elements are tuples, all operations componentwise."""

    factors: tuple[Carrier, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("product needs at least one factor")

    @property
    def spec(self) -> str:
        return "prod(" + ",".join(f.spec for f in self.factors) + ")"

    def _check(self, x):
        if not isinstance(x, tuple) or len(x) != len(self.factors):
            raise CarrierMismatch(f"{x!r} is not an element of {self.spec}")
        return x

    def zero(self) -> tuple:
        return tuple(f.zero() for f in self.factors)

    def oplus(self, x, y) -> tuple:
        self._check(x), self._check(y)
        return tuple(f.oplus(a, b) for f, a, b in zip(self.factors, x, y))

    def neg(self, x) -> tuple:
        self._check(x)
        return tuple(f.neg(a) for f, a in zip(self.factors, x))

    def eq(self, x, y) -> bool:
        self._check(x), self._check(y)
        return all(f.eq(a, b) for f, a, b in zip(self.factors, x, y))

    def leq(self, x, y) -> bool:
        self._check(x), self._check(y)
        return all(f.leq(a, b) for f, a, b in zip(self.factors, x, y))

    def const(self, q: Q01) -> tuple:
        return tuple(f.const(q) for f in self.factors)

    def midpoint(self, x, y) -> tuple:
        self._check(x), self._check(y)
        return tuple(f.midpoint(a, b) for f, a, b in zip(self.factors, x, y))

    def halve_n(self, n: int, x) -> tuple:
        self._check(x)
        return tuple(f.halve_n(n, a) for f, a in zip(self.factors, x))

    def is_finite(self) -> bool:
        return all(f.is_finite() for f in self.factors)

    def elements(self) -> list[tuple]:
        return [tuple(t) for t in itertools.product(*(f.elements() for f in self.factors))]

    def size(self) -> int:
        return math.prod(f.size() for f in self.factors)

    def format_element(self, x) -> str:
        self._check(x)
        return "(" + ", ".join(f.format_element(a) for f, a in zip(self.factors, x)) + ")"

    def parse_element(self, text: str) -> tuple:
        text = text.strip(" ")
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"product element must be a tuple literal, got {text!r}")
        parts = _split_top_level(text[1:-1])
        if len(parts) != len(self.factors):
            raise ValueError(
                f"expected {len(self.factors)} components, got {len(parts)} in {text!r}"
            )
        return tuple(f.parse_element(p.strip(" ")) for f, p in zip(self.factors, parts))


@dataclass(frozen=True, order=True)
class ChangElem:
    """Element (level, offset) of Chang's algebra, lexicographically ordered.

    Level 0 holds 0 and the infinitesimals (0, k) with k >= 1; level 1
    holds the co-infinitesimals (1, -k) up to the unit (1, 0).
    """

    level: int
    offset: int

    def __post_init__(self):
        if self.level == 0:
            if self.offset < 0:
                raise ValueError(f"level-0 element needs offset >= 0, got {self.offset}")
        elif self.level == 1:
            if self.offset > 0:
                raise ValueError(f"level-1 element needs offset <= 0, got {self.offset}")
        else:
            raise ValueError(f"level must be 0 or 1, got {self.level}")

    def __str__(self):
        return f"({self.level},{self.offset})"


#: A Chang element literal ``(level,offset)``: ASCII digits, an optional minus.
_CHANG_RE = re.compile(r"\( *(-?[0-9]+) *, *(-?[0-9]+) *\)")


@dataclass(frozen=True)
class ChangAlgebra(Carrier):
    """Chang's algebra: the unit interval of Z x_lex Z with unit (1, 0).

    Addition is componentwise and truncated at the unit in the
    lexicographic order; negation is unit-minus.
    """

    @property
    def spec(self) -> str:
        return "chang"

    def _check(self, x) -> ChangElem:
        if not isinstance(x, ChangElem):
            raise CarrierMismatch(f"{x!r} is not an element of {self.spec}")
        return x

    def zero(self) -> ChangElem:
        return ChangElem(0, 0)

    def one(self) -> ChangElem:
        return ChangElem(1, 0)

    def oplus(self, x: ChangElem, y: ChangElem) -> ChangElem:
        self._check(x), self._check(y)
        level = x.level + y.level
        offset = x.offset + y.offset
        if level > 1 or (level == 1 and offset > 0):
            return ChangElem(1, 0)
        return ChangElem(level, offset)

    def neg(self, x: ChangElem) -> ChangElem:
        self._check(x)
        return ChangElem(1 - x.level, -x.offset)

    def leq(self, x: ChangElem, y: ChangElem) -> bool:
        self._check(x), self._check(y)
        return (x.level, x.offset) <= (y.level, y.offset)

    def const(self, q: Q01) -> ChangElem:
        if q == 0:
            return ChangElem(0, 0)
        if q == 1:
            return ChangElem(1, 0)
        raise ConstUnsupported(f"Chang's algebra has no element for constant {q}")

    def format_element(self, x) -> str:
        return str(self._check(x))

    def parse_element(self, text: str) -> ChangElem:
        text = text.strip(" ")
        m = _CHANG_RE.fullmatch(text)
        if m is None:
            raise ValueError(f"Chang element must look like (level,offset), got {text!r}")
        return ChangElem(int(m[1]), int(m[2]))


Q01_CARRIER = UnitInterval()
CHANG = ChangAlgebra()


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not nested inside parentheses or brackets,
    nor inside a double-quoted (JSON) string."""
    parts, depth, start, quoted, escaped = [], 0, 0, False, False
    for i, ch in enumerate(text):
        if escaped:
            escaped = False
        elif quoted:
            escaped, quoted = ch == "\\", ch != '"'
        elif ch == '"':
            quoted = True
        elif ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced brackets in {text!r}")
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ValueError(f"unbalanced brackets in {text!r}")
    last = text[start:]
    if last.strip() or parts:
        parts.append(last)
    return parts


#: The deepest bracket nesting of a carrier spec or a JSON breakpoint
#: list; deeper text is refused before any of it is built.
MAX_NESTING = 64


def _nesting_depth(text: str) -> int:
    """The deepest nesting of the brackets ``([{`` in text."""
    return max(itertools.accumulate(((ch in "([{") - (ch in ")]}") for ch in text), initial=0))


def carrier_from_spec(spec: str) -> Carrier:
    """Build a carrier from a spec string.

    Accepted: ``q01``, ``chain:n``, ``chang``, ``prod(spec, ...)``, ``pl``.
    A ``prod(`` nested more than ``MAX_NESTING`` deep is refused first.
    """
    depth = _nesting_depth(spec)
    if depth > MAX_NESTING:
        raise ValueError(f"carrier spec nested {depth} deep, over the limit of {MAX_NESTING}")
    spec = spec.strip(" ")
    if spec == "q01":
        return Q01_CARRIER
    if spec == "chang":
        return CHANG
    if spec == "pl":
        from .plfunc import PL_CARRIER

        return PL_CARRIER
    if spec.startswith("chain:"):
        digits = spec[len("chain:"):]
        try:
            if digits.isascii() and digits.isdigit():
                return FiniteChain(int(digits))
        except ValueError:  # more digits than Python converts to an int
            pass
        raise ValueError(f"bad chain spec {spec!r}")
    if spec.startswith("prod(") and spec.endswith(")"):
        inner = _split_top_level(spec[len("prod(") : -1])
        if not inner:
            raise ValueError("empty product spec")
        return ProductAlg(tuple(carrier_from_spec(p) for p in inner))
    raise ValueError(f"unknown carrier spec {spec!r}")


# --- Ideals, radical, infinitesimals, index tables -------------------------


def _chains(carrier: Carrier) -> list[FiniteChain]:
    """The chain factors of a finite carrier, left to right through nested products."""
    if isinstance(carrier, FiniteChain):
        return [carrier]
    if not isinstance(carrier, ProductAlg):
        raise CarrierError(f"{carrier.spec} is not a product of finite chains")
    return [c for f in carrier.factors for c in _chains(f)]


class _ChainFactors:
    """A finite carrier, once its size has passed the table budget and
    each of its chains :func:`_check_chain`, as a product of chains of
    ``sizes`` n + 1, and its one listing ``elements`` (last factor fastest,
    so ``elements[i]`` has numerator ``i // strides[p] % sizes[p]`` in
    chain p).  It refers to no carrier, so the carrier that keeps it is
    freed without the cycle collector."""

    def __init__(self, carrier: Carrier):
        carrier.tabulable_size()
        chains = _chains(carrier)
        for chain in chains:
            _check_chain(chain)
        self.sizes = [c.n + 1 for c in chains]
        self.elements = carrier.elements()
        self.strides = [math.prod(self.sizes[p + 1 :]) for p in range(len(self.sizes))]
        self.nontrivial = [p for p, m in enumerate(self.sizes) if m > 1]

    @cached_property
    def index(self) -> dict:
        return {x: i for i, x in enumerate(self.elements)}

    def ideal(self, zeroed) -> frozenset:
        """The ideal that is {0} at the factors in zeroed and whole elsewhere
        (every ideal of a product of chains is one of these)."""
        indices = [0]
        for p, m in enumerate(self.sizes):
            ks = range(1 if p in zeroed else m)
            indices = [i * m + k for i in indices for k in ks]
        return frozenset(map(self.elements.__getitem__, indices))


def projection(carrier: Carrier, ideal: frozenset) -> dict:
    """The value table of the projection of a finite carrier onto the
    nontrivial chain factor {0, 1/n, ..., 1} at which every member of the
    ideal is 0, followed by k -> k/n, which the chain's check showed to be
    a homomorphism: by value, in element order within a value."""
    factors = carrier.chain_factors
    members = [i for i, x in enumerate(factors.elements) if x in ideal]
    if len(members) == len(factors.elements):
        raise CarrierError("ideal is not proper; quotient is trivial")
    strides, sizes = factors.strides, factors.sizes
    zeroed = [p for p in factors.nontrivial if not any(i // strides[p] % sizes[p] for i in members)]
    if len(zeroed) != 1:
        raise AssertionError("quotient by the ideal is not a chain")
    (p,) = zeroed
    n, stride = sizes[p] - 1, strides[p]
    by_value: list[list] = [[] for _ in range(n + 1)]
    for i, x in enumerate(factors.elements):
        by_value[i // stride % (n + 1)].append(x)
    values = [Q01(k, n) for k in range(n + 1)]
    return {x: v for v, xs in zip(values, by_value) for x in xs}


def _ideal_order(ideal: frozenset):
    return len(ideal), sorted(map(repr, ideal))


def _first_excess(chain: FiniteChain, oplus, x: int, limit: int) -> int | None:
    """The least n <= limit at which the n-fold sum of x (by the given oplus)
    is not below neg(x) in the chain's own order, or None."""
    negx, s = chain.neg(x), x
    for n in range(1, limit + 1):
        if not chain.leq(s, negx):
            return n
        s = oplus(s, x)
    return None


def _check_chain(chain: FiniteChain) -> None:
    """Check on the chain's own operations ((n+1)^2 oplus calls) that
    k -> k/n is a homomorphism into [0,1], i.e. in numerators zero is 0,
    neg k = n - k and k oplus j = min(k + j, n); then that bounded
    multiples, summed in that checked table, find its radical {0}."""
    n, ks = chain.n, range(chain.n + 1)
    capped = [min(s, n) for s in range(2 * n + 1)]
    sums_agree = all(
        list(map(chain.oplus, itertools.repeat(k), ks)) == capped[k : k + n + 1] for k in ks
    )
    if chain.zero() != 0 or list(map(chain.neg, ks)) != list(reversed(ks)) or not sums_agree:
        raise AssertionError(f"k -> k/{n} failed the homomorphism check on {chain.spec}")
    if any(_first_excess(chain, lambda s, y: capped[s + y], x, n + 1) is None for x in ks[1:]):
        raise AssertionError(f"radical cross-check failed on {chain.spec}: an infinitesimal found")


def index_tables(carrier: Carrier) -> tuple[list, list]:
    """The oplus and order tables of a finite carrier on the indices of
    ``carrier.chain_factors.elements``, composed from its checked chain
    factors.  Chain p of m elements adds numerators capped at m - 1 and
    orders them as integers; element (u, k), k in chain p, gets index
    u*m + k, last factor fastest."""
    oplus, leq = [[0]], [[True]]
    for m in carrier.chain_factors.sizes:
        ks = range(m)
        capped = [*ks, *[m - 1] * (m - 1)]  # capped[k + j] = min(k + j, m - 1)
        # Each index is looked up in ids, so the |A|^2 entries share one
        # int object per index instead of each holding a new one.
        ids = list(range(len(oplus) * m))
        oplus = [
            [ids[v + s] for v in scaled for s in capped[k : k + m]]
            for scaled in ([u * m for u in row] for row in oplus)
            for k in ks
        ]
        leq = [[t and k <= j for t in row for j in ks] for row in leq for k in ks]
    return oplus, leq


def _components(carrier: Carrier, *xs) -> list[list[int]]:
    """The components of each x in the carrier's chain factors.  The
    carrier's own order check runs first, so a non-element raises what the
    carrier raises (CarrierMismatch for chains and products)."""
    for x in xs:
        carrier.leq(x, x)
    factors = carrier.chain_factors
    radix = list(zip(factors.strides, factors.sizes))
    return [[factors.index[x] // s % m for s, m in radix] for x in xs]


def is_ideal(carrier: Carrier, subset: frozenset) -> bool:
    """Whether subset is an ideal: a product of {0} or the whole chain at
    each chain factor, the only ideals of a finite product of chains."""
    if carrier.zero() not in subset:
        return False
    spans = [set(column) for column in zip(*_components(carrier, *subset))]
    return len(subset) == math.prod(map(len, spans)) and all(
        span == {0} or len(span) == m for span, m in zip(spans, carrier.chain_factors.sizes)
    )


def principal_ideal(carrier: Carrier, a) -> frozenset:
    """Smallest ideal containing a: {0} at the factors where a is 0."""
    (components,) = _components(carrier, a)
    return carrier.chain_factors.ideal([p for p, k in enumerate(components) if not k])


def enumerate_ideals(carrier: Carrier) -> list[frozenset]:
    """All ideals of a finite carrier: every product of {0} or the whole
    chain at each chain factor, by size, then by the sorted reprs of
    their elements."""
    factors = carrier.chain_factors
    nontrivial = factors.nontrivial
    zeroed = (z for r in range(len(nontrivial) + 1) for z in itertools.combinations(nontrivial, r))
    return sorted(map(factors.ideal, zeroed), key=_ideal_order)


def maximal_ideals(carrier: Carrier) -> list[frozenset]:
    """The kernels of the projections onto the nontrivial chain factors,
    in the order of :func:`enumerate_ideals`."""
    factors = carrier.chain_factors
    return sorted((factors.ideal([p]) for p in factors.nontrivial), key=_ideal_order)


@dataclass(frozen=True)
class Radical:
    """Radical ideal description: an explicit set or a closed form."""

    carrier_spec: str
    kind: str  # "finite" or "closed-form"
    elements: frozenset | None
    description: str

    def contains(self, carrier: Carrier, x) -> bool:
        if self.elements is not None:
            return x in self.elements
        if self.carrier_spec == "chang":
            return isinstance(x, ChangElem) and x.level == 0
        if self.carrier_spec == "pl":
            return carrier.eq(x, carrier.zero())
        raise CarrierError(f"no membership test for radical of {self.carrier_spec}")


def radical(carrier: Carrier) -> Radical:
    """Radical ideal: intersection of maximal ideals.

    A finite carrier is a product of chains, whose maximal ideals, the
    projection kernels, meet in {0}; that is returned once its chain
    factors are built, each checked by :func:`_check_chain`, which also
    finds the chain's radical {0} by bounded multiples ``n*x <= neg(x)``.
    Chang's algebra and the piecewise-linear carrier use closed forms.
    """
    if isinstance(carrier, ChangAlgebra):
        return Radical("chang", "closed-form", None, "{(0,k) : k >= 0}")
    if carrier.spec == "pl":
        return Radical("pl", "closed-form", None, "{0} (semisimple)")
    if not carrier.is_finite():
        raise CarrierError(f"no radical computation for carrier {carrier.spec}")
    zero = carrier.chain_factors.elements[0]
    description = "{" + carrier.format_element(zero) + "}"
    return Radical(carrier.spec, "finite", frozenset({zero}), description)


@dataclass(frozen=True)
class InfinitesimalCertificate:
    verdict: bool
    reason: str
    failing_n: int | None = None


def is_infinitesimal(carrier: Carrier, x) -> InfinitesimalCertificate:
    """Decide whether x is infinitesimal (nonzero with n*x <= neg(x) for all n).

    Exact for Chang's algebra (closed form) and for finite carriers,
    factor by factor with each chain's own oplus and order: the multiples
    stabilise within the carrier size, which bounds the search, and the
    first n to fail is the least over the components.
    """
    if isinstance(carrier, ChangAlgebra):
        carrier._check(x)
        if x == ChangElem(0, 0):
            return InfinitesimalCertificate(False, "zero is not infinitesimal")
        if x.level == 0:
            return InfinitesimalCertificate(
                True, "closed form: every multiple stays at level 0, below neg(x) at level 1"
            )
        return InfinitesimalCertificate(False, "x exceeds neg(x) already at n = 1", failing_n=1)
    if not carrier.is_finite():
        raise CarrierError(f"no exact infinitesimal test for carrier {carrier.spec}")
    (ks,) = _components(carrier, x)
    if not any(ks):
        return InfinitesimalCertificate(False, "zero is not infinitesimal")
    limit = len(carrier.chain_factors.elements)
    firsts = [_first_excess(c, c.oplus, k, limit) for c, k in zip(_chains(carrier), ks) if k]
    n = min((n for n in firsts if n is not None), default=None)
    if n is not None:
        return InfinitesimalCertificate(False, f"{n}-fold sum exceeds neg(x)", failing_n=n)
    return InfinitesimalCertificate(
        True, f"multiples stabilise below neg(x) within the carrier bound {limit}"
    )


def halving_witness(x: ChangElem) -> ChangElem | None:
    """Exact solve for y with y oplus y = x and y odot y = 0 in Chang's algebra.

    Level-0 candidates (0, k) always satisfy y odot y = 0 and double to
    (0, 2k); level-1 candidates never satisfy y odot y = 0.  Hence only
    even level-0 elements admit a witness.
    """
    CHANG._check(x)
    if x.level == 0 and x.offset % 2 == 0:
        y = ChangElem(0, x.offset // 2)
    else:
        return None
    if CHANG.oplus(y, y) != x or CHANG.odot(y, y) != CHANG.zero():
        raise AssertionError(f"halving witness check failed for {x}")
    return y
