"""Independent oracles the tests check the library against.

Nothing in the package imports this module; it searches directly for
what the library constructs, so a disagreement points at a fault in
one of the two.
"""

import itertools
import math
import random
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

from mvdelta import terms
from mvdelta.carriers import (
    Q01_CARRIER,
    Carrier,
    CarrierMismatch,
    FiniteChain,
    InfinitesimalCertificate,
    Radical,
)
from mvdelta.decide import Counterexample
from mvdelta.goodseq import (
    ChainIsoReport,
    GammaReport,
    GoodSeq,
    XiElem,
    gs_add,
    is_good,
    xi_add,
    xi_eq,
    xi_from_element,
    xi_leq,
    xi_meet,
    xi_sub,
    xi_unit,
    xi_zero,
)
from mvdelta.linarith import CONSTRAINT_CAP, BudgetExceeded
from mvdelta.plfunc import IsbellHypothesisError
from mvdelta.rationals import Q01
from mvdelta.spectrum import EtaReport, Hom, SpectrumResult
from mvdelta.terms import (
    Const,
    Delta,
    Dist,
    Equation,
    EvSeq,
    Half,
    HalfN,
    Join,
    Meet,
    Neg,
    NFold,
    Odot,
    Ominus,
    Oplus,
    ParseError,
    Term,
    UnboundVariable,
    Var,
)


def evaluate_by_recursion(t: Term, assignment, carrier):
    """Evaluate an already-expanded term over a carrier by structural
    recursion, one carrier call per tree node (shared subterms included)."""
    match t:
        case Var(name):
            try:
                return assignment[name]
            except KeyError:
                raise UnboundVariable(name) from None
        case Const(value):
            return carrier.const(value)
        case Neg(arg):
            return carrier.neg(evaluate_by_recursion(arg, assignment, carrier))
        case Oplus(l, r):
            return carrier.oplus(
                evaluate_by_recursion(l, assignment, carrier),
                evaluate_by_recursion(r, assignment, carrier),
            )
        case Delta(EvSeq(prefix, tail)):
            values = [evaluate_by_recursion(p, assignment, carrier) for p in prefix]
            return carrier.delta(values, evaluate_by_recursion(tail, assignment, carrier))
        case NFold(n, arg):
            return carrier.nfold(n, evaluate_by_recursion(arg, assignment, carrier))
        case HalfN(n, arg):
            return carrier.halve_n(n, evaluate_by_recursion(arg, assignment, carrier))
    raise TypeError(f"term not in core form: {t!r}")


# Each sugar node as core nodes over its expanded arguments.
_SUGAR = {
    Odot: lambda l, r: Neg(Oplus(Neg(l), Neg(r))),
    Ominus: lambda l, r: Neg(Oplus(Neg(l), r)),  # x odot neg(y)
    Dist: lambda l, r: Oplus(_SUGAR[Ominus](l, r), _SUGAR[Ominus](r, l)),
    Join: lambda l, r: Oplus(Neg(Oplus(Neg(l), r)), r),
    Meet: lambda l, r: Neg(_SUGAR[Join](Neg(l), Neg(r))),
    Half: lambda arg: Delta(EvSeq((arg,), Const(Q01(0)))),
}


def expand_by_recursion(t: Term) -> Term:
    """t with each sugar node rewritten by its template over its expanded
    arguments, by structural recursion; the counted nodes stay counted."""
    match t:
        case Var() | Const():
            return t
        case Neg(arg):
            return Neg(expand_by_recursion(arg))
        case Oplus(l, r):
            return Oplus(expand_by_recursion(l), expand_by_recursion(r))
        case NFold(n, arg) | HalfN(n, arg):
            return type(t)(n, expand_by_recursion(arg))
        case Delta(EvSeq(prefix, tail)):
            return Delta(EvSeq(tuple(map(expand_by_recursion, prefix)), expand_by_recursion(tail)))
        case Half(arg):
            return _SUGAR[Half](expand_by_recursion(arg))
    return _SUGAR[type(t)](expand_by_recursion(t.left), expand_by_recursion(t.right))


def sample_falsify_reference(lhs, rhs, relation="eq", trials=1000, seed=0, depth=8):
    """The sampling search of ``decide.sample_falsify``, evaluated with
    ``evaluate_by_recursion`` on ``Q01`` values: the same rng draws in
    the same order, so both must return the same first failing sample."""
    le, re_ = expand_by_recursion(lhs), expand_by_recursion(rhs)
    variables = sorted(terms.free_vars(le) | terms.free_vars(re_))
    rng = random.Random(seed)
    grid = 2**depth
    for _ in range(trials):
        assignment = {v: Q01(rng.randint(0, grid), grid) for v in variables}
        lv = evaluate_by_recursion(le, assignment, Q01_CARRIER)
        rv = evaluate_by_recursion(re_, assignment, Q01_CARRIER)
        bad = (lv != rv) if relation == "eq" else (not lv <= rv)
        if bad:
            return Counterexample(assignment, lv, rv)
    return None


def nfold_by_loop(carrier: Carrier, n: int, x):
    """x oplus x oplus ... oplus x, n - 1 oplus calls from the left."""
    out = x
    for _ in range(n - 1):
        out = carrier.oplus(out, x)
    return out


def halve_n_by_loop(carrier: Carrier, n: int, x):
    """n successive halvings delta(x; 0)."""
    for _ in range(n):
        x = carrier.delta([x], carrier.zero())
    return x


def tables_by_operations(carrier: Carrier) -> SimpleNamespace:
    """A finite carrier on the indices of ``carrier.elements()``: the
    listing, zero, and the neg, oplus and order tables, read off the
    carrier's own operations (|A|^2 calls each of oplus and leq)."""
    elems = carrier.elements()
    index = {x: i for i, x in enumerate(elems)}
    return SimpleNamespace(
        elements=elems,
        zero=index[carrier.zero()],
        neg=[index[carrier.neg(x)] for x in elems],
        oplus=[[index[carrier.oplus(x, y)] for y in elems] for x in elems],
        leq=[[carrier.leq(x, y) for y in elems] for x in elems],
    )


def brute_force_ideals(carrier: Carrier) -> list[frozenset]:
    """Every subset that contains zero, is down-closed and is closed
    under oplus, tested with the carrier's own operations."""
    elems = carrier.elements()
    found = []
    for size in range(1, len(elems) + 1):
        for combo in itertools.combinations(elems, size):
            subset = frozenset(combo)
            if carrier.zero() not in subset:
                continue
            if any(carrier.leq(y, x) and y not in subset for x in subset for y in elems):
                continue
            if any(carrier.oplus(x, y) not in subset for x in subset for y in subset):
                continue
            found.append(subset)
    return found


def _hom_sort_key(carrier: Carrier, hom: Hom):
    """Homs in the order of their values, element by element."""
    return tuple(hom.table[x] for x in carrier.elements())


def _verify_hom(carrier: Carrier, table: dict) -> bool:
    elems = carrier.elements()
    if table[carrier.zero()] != 0:
        return False
    for x in elems:
        if table[carrier.neg(x)] != Q01(1 - table[x]):
            return False
        for y in elems:
            if table[carrier.oplus(x, y)] != Q01(min(table[x] + table[y], 1)):
                return False
    return True


def brute_force_homs(carrier: Carrier) -> list[Hom]:
    """Independent search for all homomorphisms into [0,1].

    The image of a finite carrier is a finite subalgebra of the unit
    interval, i.e. some chain {0, 1/m, ..., 1}; try every m and extend
    partial value tables with forced-value propagation.
    """
    elems = carrier.elements()
    n = len(elems)
    if n == 1:
        return []
    found: dict[tuple, Hom] = {}

    def propagate(table: dict, m: int) -> bool:
        changed = True
        while changed:
            changed = False
            for x in list(table):
                nx = carrier.neg(x)
                want = Q01(1 - table[x])
                if table.get(nx, want) != want:
                    return False
                if nx not in table:
                    table[nx] = want
                    changed = True
                for y in list(table):
                    z = carrier.oplus(x, y)
                    want = Q01(min(table[x] + table[y], 1))
                    if table.get(z, want) != want:
                        return False
                    if z not in table:
                        table[z] = want
                        changed = True
        return True

    def search(table: dict, m: int):
        missing = [x for x in elems if x not in table]
        if not missing:
            if _verify_hom(carrier, table):
                key = tuple(table[x] for x in elems)
                found.setdefault(key, Hom(carrier, dict(table)))
            return
        x = missing[0]
        for k in range(m + 1):
            trial = dict(table)
            trial[x] = Q01(k, m)
            if propagate(trial, m):
                search(trial, m)

    for m in range(1, n):
        base = {carrier.zero(): Q01(0)}
        if propagate(base, m):
            search(base, m)
    return sorted(found.values(), key=lambda h: _hom_sort_key(carrier, h))


# --- The finite layer on |A|^2 tables ------------------------------------------
# Ideals, homs, the radical and eta as the library computed them before it
# went factor by factor: on integer tables read off the carrier's own
# operations (tables_by_operations), every ideal as the down-set
# of a stable multiple, each hom by ranking the classes of the quotient,
# and the radical cross-checked by every element's bounded multiples.


def is_rank_hom(tables, rank: list[int], m: int) -> bool:
    """Whether x -> rank[x] / m is a homomorphism into [0,1], checked on
    numerators: rank[0] = 0, rank[neg x] = m - rank[x] and
    rank[x oplus y] = min(rank[x] + rank[y], m) for all x, y."""
    if rank[tables.zero] != 0:
        return False
    capped = [min(k, m) for k in range(2 * m + 1)]
    for x, rx in enumerate(rank):
        if rank[tables.neg[x]] != m - rx:
            return False
        # One comparison per row: capped[rx:][ry] is min(rx + ry, m).
        row = map(rank.__getitem__, tables.oplus[x])
        if list(row) != list(map(capped[rx:].__getitem__, rank)):
            return False
    return True


class FiniteByTables:
    """The finite layer of one carrier on its |A|^2 tables."""

    def __init__(self, carrier: Carrier):
        t = self.tables = tables_by_operations(carrier)
        self.carrier = carrier
        self.index = {x: i for i, x in enumerate(t.elements)}
        size = range(len(t.elements))
        self.below = [frozenset(j for j in size if t.leq[j][i]) for i in size]

    def _position(self, x) -> int:
        self.carrier.leq(x, x)  # a non-element raises what the carrier raises
        return self.index[x]

    def _subset(self, positions) -> frozenset:
        return frozenset(map(self.tables.elements.__getitem__, positions))

    def _ominus(self, i: int, j: int) -> int:
        t = self.tables
        return t.neg[t.oplus[t.neg[i]][j]]

    def _is_ideal(self, s: frozenset) -> bool:
        """Contains 0, is down-closed and is closed under oplus."""
        oplus, below = self.tables.oplus, self.below
        return self.tables.zero in s and all(
            below[i] <= s and s.issuperset(map(oplus[i].__getitem__, s)) for i in s
        )

    def _principal(self, a: int) -> frozenset:
        """Down-set of the value at which the sums a, 2a, 3a, ... settle."""
        s = a
        while (t := self.tables.oplus[s][a]) != s:
            s = t
        return self.below[s]

    def is_ideal(self, subset: frozenset) -> bool:
        if self.carrier.zero() not in subset:
            return False
        return self._is_ideal(frozenset(map(self._position, subset)))

    def principal_ideal(self, a) -> frozenset:
        return self._subset(self._principal(self._position(a)))

    def ideals(self) -> list[frozenset]:
        seen = {self._principal(a) for a in range(len(self.tables.elements))}
        assert all(map(self._is_ideal, seen)), self.carrier.spec
        return sorted(map(self._subset, seen), key=lambda s: (len(s), sorted(map(repr, s))))

    def maximal_ideals(self) -> list[frozenset]:
        proper = [i for i in self.ideals() if len(i) < len(self.tables.elements)]
        return [i for i in proper if not any(i < j for j in proper)]

    def holder_hom(self, ideal: frozenset) -> Hom:
        """Rank the quotient classes, map rank r of m+1 to r/m, check it."""
        t = self.tables
        members = {i for i, x in enumerate(t.elements) if x in ideal}
        classes: list[list[int]] = []
        for x in range(len(t.elements)):
            for cls in classes:
                if t.oplus[self._ominus(x, cls[0])][self._ominus(cls[0], x)] in members:
                    cls.append(x)
                    break
            else:
                classes.append([x])
        ordered: list[list[int]] = []
        for cls in classes:  # x/I <= y/I iff (x ominus y) falls in the ideal
            at = len(ordered)
            for i, other in enumerate(ordered):
                if self._ominus(cls[0], other[0]) in members:
                    if self._ominus(other[0], cls[0]) not in members:
                        at = i
                        break
                else:
                    assert self._ominus(other[0], cls[0]) in members, "quotient not a chain"
            ordered.insert(at, cls)
        m = len(ordered) - 1
        rank = [0] * len(t.elements)
        for r, cls in enumerate(ordered):
            for x in cls:
                rank[x] = r
        assert m > 0 and is_rank_hom(t, rank, m), self.carrier.spec
        values = [Q01(r, m) for r in range(m + 1)]
        table = {t.elements[x]: values[r] for r, cls in enumerate(ordered) for x in cls}
        hom = Hom(self.carrier, table)
        assert hom.kernel() == ideal, self.carrier.spec
        return hom

    def homs(self) -> list[Hom]:
        homs = [self.holder_hom(m) for m in self.maximal_ideals()]
        return sorted(homs, key=lambda h: _hom_sort_key(self.carrier, h))

    def spectrum(self) -> SpectrumResult:
        maxes = self.maximal_ideals()

        def v_indices(subset) -> tuple[int, ...]:
            return tuple(i for i, m in enumerate(maxes) if frozenset(subset) <= m)

        closed = sorted({v_indices(ideal) for ideal in self.ideals()})
        basis = sorted({v_indices([a]) for a in self.tables.elements})
        homs = tuple(self.holder_hom(m) for m in maxes)
        return SpectrumResult(self.carrier, tuple(maxes), homs, tuple(closed), tuple(basis))

    def is_infinitesimal(self, x, bound: int | None = None) -> InfinitesimalCertificate:
        t = self.tables
        i = self._position(x)
        if i == t.zero:
            return InfinitesimalCertificate(False, "zero is not infinitesimal")
        limit = bound if bound is not None else len(t.elements)
        negx, s = t.neg[i], i
        for n in range(1, limit + 1):
            if not t.leq[s][negx]:
                return InfinitesimalCertificate(False, f"{n}-fold sum exceeds neg(x)", failing_n=n)
            s = t.oplus[s][i]
        return InfinitesimalCertificate(
            True, f"multiples stabilise below neg(x) within the carrier bound {limit}"
        )

    def radical(self) -> Radical:
        elems = self.tables.elements
        inter = frozenset(elems).intersection(*self.maximal_ideals())
        by_multiples = frozenset(
            x for x in elems if self.is_infinitesimal(x, bound=len(elems)).verdict
        ) | {self.carrier.zero()}
        assert inter == by_multiples, self.carrier.spec
        description = "{" + ", ".join(sorted(self.carrier.format_element(x) for x in inter)) + "}"
        return Radical(self.carrier.spec, "finite", inter, description)

    def eta(self) -> EtaReport:
        elems = self.tables.elements
        homs = self.homs()
        values = {a: tuple(h.table[a] for h in homs) for a in elems}
        kernel = frozenset(a for a, v in values.items() if all(c == 0 for c in v))
        product = set(itertools.product(*(sorted(h.image()) for h in homs)))
        surjective = set(values.values()) == product if homs else len(elems) == 1
        return EtaReport(
            self.carrier,
            values,
            len(set(values.values())) == len(elems),
            self.radical().elements == {self.carrier.zero()},
            kernel,
            surjective,
        )


# A chain with one oplus entry replaced: every check the library runs on a
# carrier's own operations must notice it.


@dataclass(frozen=True)
class WrongSum(FiniteChain):
    """A chain with one oplus entry replaced."""

    x: int = 0
    y: int = 0
    wrong: int = 0

    def oplus(self, x, y):
        right = super().oplus(x, y)
        return self.wrong if (x, y) == (self.x, self.y) else right


# The good-sequence round trips as they ran on the carrier's own
# operations, one checked oplus/odot call per term of every monoid sum,
# with no sum kept; goodseq runs them on the indices of the elements.


def enumerate_good_seqs_by_operations(carrier: Carrier, max_len: int) -> list[GoodSeq]:
    """All good sequences of length <= max_len over a finite carrier.

    Built by extending shorter good sequences; trailing zeros are never
    appended (after a zero entry, goodness forces zeros forever), so
    each sequence is produced exactly once in trimmed form.
    """
    if not carrier.is_finite():
        raise CarrierMismatch(f"enumeration needs a finite carrier, not {carrier.spec}")
    zero = carrier.zero()
    nonzero = [e for e in carrier.elements() if not carrier.eq(e, zero)]
    out = [GoodSeq(carrier, ())]
    frontier = [()]
    for _ in range(max_len):
        grown = []
        for entries in frontier:
            for e in nonzero:
                if entries and not carrier.eq(carrier.oplus(entries[-1], e), entries[-1]):
                    continue
                grown.append(entries + (e,))
        out.extend(GoodSeq(carrier, entries) for entries in grown)
        frontier = grown
    return out


def gamma_of_xi_by_operations(carrier: Carrier, max_len: int = 3) -> GammaReport:
    """Round trip through the enveloping group of a finite carrier.

    Enumerates formal differences of short good sequences lying between
    zero and the unit, groups them into semantic classes, and checks
    that the embedding a -> [(a)] is a bijection onto those classes
    carrying oplus to truncated sum and neg to unit-minus.
    """
    elems = carrier.elements()
    unit = xi_unit(carrier)
    zero = xi_zero(carrier)
    seqs = enumerate_good_seqs_by_operations(carrier, max_len)

    classes: list[XiElem] = []
    for pos in seqs:
        for neg in seqs:
            x = XiElem(pos, neg)
            if not (xi_leq(zero, x) and xi_leq(x, unit)):
                continue
            if not any(xi_eq(x, c) for c in classes):
                classes.append(x)

    images = [xi_from_element(carrier, a) for a in elems]
    injective = all(
        not xi_eq(images[i], images[j])
        for i in range(len(elems))
        for j in range(i + 1, len(elems))
    )
    surjective = all(any(xi_eq(c, img) for img in images) for c in classes)
    bijective = injective and surjective and len(classes) == len(elems)

    def truncated_sum(x: XiElem, y: XiElem) -> XiElem:
        return xi_meet(xi_add(x, y), unit)

    preserves_oplus = all(
        xi_eq(
            xi_from_element(carrier, carrier.oplus(a, b)),
            truncated_sum(xi_from_element(carrier, a), xi_from_element(carrier, b)),
        )
        for a in elems
        for b in elems
    )
    preserves_neg = all(
        xi_eq(
            xi_from_element(carrier, carrier.neg(a)),
            xi_sub(unit, xi_from_element(carrier, a)),
        )
        for a in elems
    )
    return GammaReport(
        carrier.spec, len(elems), len(classes), bijective, preserves_oplus, preserves_neg
    )


def xi_chain_iso_by_operations(n: int, bound) -> ChainIsoReport:
    """Sum-of-entries isomorphism for good sequences over the chain {0..n}/n.

    Enumerates every good sequence with entry sum <= bound (a rational),
    and checks that the sum is a bijection onto the multiples of 1/n in
    [0, bound] and turns monoid addition into rational addition whenever
    the result stays inside the window.
    """
    if n < 1:
        raise ValueError(f"chain order must be >= 1, got {n}")
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    chain = FiniteChain(n)

    seqs: list[GoodSeq] = []
    frontier: list[tuple] = [()]
    seqs.append(GoodSeq(chain, ()))
    while frontier:
        grown = []
        for entries in frontier:
            if entries and entries[-1] != n:
                continue  # goodness forces zeros after a non-top entry
            for e in range(1, n + 1):
                candidate = entries + (e,)
                ok, _ = is_good(chain, candidate)
                if not ok:
                    continue
                if Fraction(sum(candidate), n) > bound:
                    continue
                grown.append(candidate)
        seqs.extend(GoodSeq(chain, entries) for entries in grown)
        frontier = grown

    def entry_sum(seq: GoodSeq) -> Fraction:
        return Fraction(sum(seq.entries), n)

    sums = [entry_sum(s) for s in seqs]
    expected = {Fraction(k, n) for k in range(int(bound * n) + 1) if Fraction(k, n) <= bound}
    sums_bijective = len(sums) == len(set(sums)) and set(sums) == expected

    additive = True
    for a in seqs:
        for b in seqs:
            total = entry_sum(a) + entry_sum(b)
            if total > bound:
                continue
            if entry_sum(gs_add(a, b)) != total:
                additive = False
    return ChainIsoReport(n, bound, len(seqs), sums_bijective, additive)


# --- the Fraction linear-arithmetic engine ---------------------------------
#
# The engine the decider ran before it moved to integer rows: affine forms
# as dicts of Fractions, constraints rescaled through Fraction, the same
# pruning and Fourier-Motzkin order.  ``linarith.feasible`` must return the
# same feasibility and the identical witness on every system.


@dataclass(frozen=True)
class AffineForm:
    """Linear form sum(coeffs[v] * v) + constant; absent variable = zero coefficient."""

    coeffs: tuple[tuple[str, Fraction], ...]  # sorted by variable, no zeros
    constant: Fraction

    @staticmethod
    def make(coeffs: dict[str, Fraction], constant) -> "AffineForm":
        items = tuple(sorted((v, Fraction(c)) for v, c in coeffs.items() if c != 0))
        return AffineForm(items, Fraction(constant))

    @staticmethod
    def variable(name: str) -> "AffineForm":
        return AffineForm(((name, Fraction(1)),), Fraction(0))

    @staticmethod
    def const(value) -> "AffineForm":
        return AffineForm((), Fraction(value))

    def coeff(self, var: str) -> Fraction:
        for v, c in self.coeffs:
            if v == var:
                return c
        return Fraction(0)

    def vars(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.coeffs)

    def add(self, other: "AffineForm") -> "AffineForm":
        out = dict(self.coeffs)
        for v, c in other.coeffs:
            out[v] = out.get(v, Fraction(0)) + c
        return AffineForm.make(out, self.constant + other.constant)

    def sub(self, other: "AffineForm") -> "AffineForm":
        return self.add(other.scale(Fraction(-1)))

    def scale(self, factor: Fraction) -> "AffineForm":
        factor = Fraction(factor)
        if factor == 0:
            return AffineForm((), Fraction(0))
        return AffineForm(
            tuple((v, c * factor) for v, c in self.coeffs), self.constant * factor
        )

    def negate_about_one(self) -> "AffineForm":
        """1 - self, the image of a form under the MV involution."""
        return AffineForm.const(1).sub(self)

    def eval(self, point: dict[str, Fraction]) -> Fraction:
        total = self.constant
        for v, c in self.coeffs:
            total += c * point[v]
        return total


@dataclass(frozen=True)
class Constraint:
    """form >= 0 (strict=False) or form > 0 (strict=True), the form scaled
    to coprime integer coefficients; ground forms are kept as given."""

    form: AffineForm
    strict: bool = False

    def __post_init__(self):
        coeffs = [c for _, c in self.form.coeffs]
        if coeffs:
            lcm = math.lcm(*(c.denominator for c in coeffs))
            gcd = math.gcd(*(c.numerator for c in coeffs))
            if lcm != gcd:
                object.__setattr__(self, "form", self.form.scale(Fraction(lcm, gcd)))
        # Guards are merged through sets, so the hash is computed once.
        object.__setattr__(self, "_hash", hash((self.form, self.strict)))

    def __hash__(self) -> int:
        return self._hash

    def complement(self) -> "Constraint":
        """The constraint that holds exactly where this one fails."""
        return Constraint(self.form.scale(-1), not self.strict)

    def over_box(self) -> bool | None:
        """True if this holds on the whole box 0 <= v <= 1, False if it
        fails on all of it, None if it splits the box."""
        lo = hi = self.form.constant
        for _, c in self.form.coeffs:
            if c < 0:
                lo += c
            else:
                hi += c
        if hi < 0 or (hi == 0 and self.strict):
            return False
        if lo > 0 or (lo == 0 and not self.strict):
            return True
        return None


def box_constraints(variables) -> list[Constraint]:
    """0 <= v <= 1 for each variable."""
    out = []
    for v in sorted(variables):
        out.append(Constraint(AffineForm.variable(v)))
        out.append(Constraint(AffineForm.variable(v).negate_about_one()))
    return out


def _is_box(c: Constraint) -> bool:
    if c.strict or len(c.form.coeffs) != 1:
        return False
    (_, coeff), const = c.form.coeffs[0], c.form.constant
    return (coeff == 1 and const == 0) or (coeff == -1 and const == 1)


class _Infeasible(Exception):
    pass


def _prune(constraints) -> list[Constraint]:
    """Drop redundant constraints; raise _Infeasible on a ground or box conflict."""
    best: dict = {}
    for c in constraints:
        if not _is_box(c):
            holds = c.over_box()
            if holds is False:
                raise _Infeasible
            if holds:
                continue
        prev = best.get(c.form.coeffs)
        if prev is None or c.form.constant < prev.form.constant or (
            c.form.constant == prev.form.constant and c.strict and not prev.strict
        ):
            best[c.form.coeffs] = c
    return list(best.values())


def _eliminate(constraints: list[Constraint], var: str) -> list[Constraint]:
    lowers, uppers, rest = [], [], []
    for c in constraints:
        a = c.form.coeff(var)
        if a > 0:
            lowers.append((a, c))
        elif a < 0:
            uppers.append((a, c))
        else:
            rest.append(c)
    combined = rest
    for a, cl in lowers:
        for b, cu in uppers:
            form = cl.form.scale(-b).add(cu.form.scale(a))
            combined.append(Constraint(form, cl.strict or cu.strict))
            if len(combined) > CONSTRAINT_CAP:
                raise BudgetExceeded(
                    f"Fourier-Motzkin grew past {CONSTRAINT_CAP} constraints"
                )
    return combined


def feasible_by_fractions(constraints) -> dict[str, Fraction] | None:
    """Exact feasibility over the rationals; returns a witness point or None.

    The input must bound every variable both ways (the callers always
    include box constraints), so back-substitution never meets an
    unbounded stage.
    """
    variables = sorted({v for c in constraints for v in c.form.vars()})
    try:
        current = _prune(constraints)
    except _Infeasible:
        return None
    stages: list[tuple[str, list[Constraint]]] = []
    for var in variables:
        stages.append((var, current))
        try:
            current = _prune(_eliminate(current, var))
        except _Infeasible:
            return None
    # All variables eliminated; _prune already validated the ground facts.
    point: dict[str, Fraction] = {}
    for var, system in reversed(stages):
        lo = hi = None
        lo_strict = hi_strict = False
        for c in system:
            a = c.form.coeff(var)
            if a == 0:
                continue
            residue = c.form.constant
            for v, coeff in c.form.coeffs:
                if v != var:
                    residue += coeff * point[v]
            bound = -residue / a
            if a > 0:
                if lo is None or bound > lo or (bound == lo and c.strict):
                    lo, lo_strict = bound, c.strict or (bound == lo and lo_strict)
            else:
                if hi is None or bound < hi or (bound == hi and c.strict):
                    hi, hi_strict = bound, c.strict or (bound == hi and hi_strict)
        if lo is None or hi is None:
            raise AssertionError(f"variable {var} is unbounded; box constraints missing")
        if lo == hi:
            if lo_strict or hi_strict:
                raise AssertionError("empty interval after feasible elimination")
            point[var] = lo
        elif lo < hi:
            point[var] = (lo + hi) / 2
        else:
            raise AssertionError("inverted interval after feasible elimination")
    return point


# --- The term parser by recursive descent --------------------------------------
#
# ``terms.parse`` and ``terms.parse_equation`` by recursive descent, one
# Python frame per nesting level: the same grammar, terms, messages and
# positions, except that nesting past the recursion limit raises
# RecursionError.

_UNARY = {"neg": Neg, "half": Half}
_BINARY = {"oplus": Oplus, "odot": Odot, "ominus": Ominus, "dist": Dist, "join": Join, "meet": Meet}
_INT_FIRST = {"halfn": HalfN, "nfold": NFold}
RESERVED = frozenset(_UNARY) | frozenset(_BINARY) | frozenset(_INT_FIRST) | {"delta"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<name>[a-z][a-z0-9_]*)
  | (?P<int>[0-9]+(?:/[0-9]+)?)
  | (?P<leq><=)
  | (?P<punct>[(),;=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class _Tok:
    kind: str  # "name", "int", "punct" (single char), "leq", "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tok_kind = "punct" if kind == "punct" else kind
            toks.append(_Tok(tok_kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.next()
        if tok.text != text:
            got = tok.text or "end of input"
            raise ParseError(f"expected {text!r}, got {got!r}", tok.line, tok.col)
        return tok

    def parse_int(self) -> int:
        tok = self.next()
        if tok.kind != "int" or "/" in tok.text:
            raise ParseError(f"expected integer, got {tok.text!r}", tok.line, tok.col)
        return int(tok.text)

    def parse_rat(self, first: _Tok) -> Q01:
        # A rational p/q is one token, with no whitespace around the "/".
        num, _, den = first.text.partition("/")
        if den and int(den) == 0:
            raise ParseError("zero denominator", first.line, first.col + len(num) + 1)
        try:
            return Q01(int(num), int(den or 1))
        except ValueError as exc:
            raise ParseError(str(exc), first.line, first.col) from None

    def parse_term(self) -> Term:
        tok = self.next()
        if tok.kind == "int":
            return Const(self.parse_rat(tok))
        if tok.kind != "name":
            got = tok.text or "end of input"
            raise ParseError(f"expected term, got {got!r}", tok.line, tok.col)
        name = tok.text
        if name not in RESERVED:
            return Var(name)
        self.expect("(")
        if name in _UNARY:
            arg = self.parse_term()
            self.expect(")")
            return _UNARY[name](arg)
        if name in _BINARY:
            left = self.parse_term()
            self.expect(",")
            right = self.parse_term()
            self.expect(")")
            return _BINARY[name](left, right)
        if name in _INT_FIRST:
            n_tok = self.peek()
            n = self.parse_int()
            self.expect(",")
            arg = self.parse_term()
            self.expect(")")
            try:
                return _INT_FIRST[name](n, arg)
            except ValueError as exc:
                raise ParseError(str(exc), n_tok.line, n_tok.col) from None
        # delta
        prefix = []
        if self.peek().text != ";":
            if self.peek().text == ")":
                raise ParseError(
                    "delta needs an argument list 'delta(p1, ..., pk; tail)'",
                    tok.line,
                    tok.col,
                )
            prefix.append(self.parse_term())
            while self.peek().text == ",":
                self.next()
                prefix.append(self.parse_term())
        self.expect(";")
        tail = self.parse_term()
        self.expect(")")
        return Delta(EvSeq(tuple(prefix), tail))

    def parse_relation(self) -> str:
        tok = self.next()
        if tok.text == "=":
            return "eq"
        if tok.text == "<=":
            return "leq"
        got = tok.text or "end of input"
        raise ParseError(f"expected '=' or '<=', got {got!r}", tok.line, tok.col)

    def expect_eof(self):
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)


def parse_by_recursion(text: str) -> Term:
    """``terms.parse`` by recursive descent, one Python frame per nesting level."""
    parser = _Parser(text)
    term = parser.parse_term()
    parser.expect_eof()
    return term


def parse_equation_by_recursion(text: str) -> Equation:
    """``terms.parse_equation`` by recursive descent."""
    parser = _Parser(text)
    lhs = parser.parse_term()
    relation = parser.parse_relation()
    rhs = parser.parse_term()
    parser.expect_eof()
    return Equation(lhs, relation, rhs)


# --- The piecewise-linear functions in Fraction breakpoints ---------------------
# The library's former bodies: a function is a canonical tuple of
# (Fraction x, Fraction y) breakpoints, every intermediate is a point list
# evaluated by bisection, and every result is canonicalised again.


def _pl_canonical(points) -> tuple:
    out = [points[0]]
    for p in points[1:]:
        while len(out) >= 2:
            a, b = out[-2], out[-1]
            if (b[1] - a[1]) * (p[0] - b[0]) == (p[1] - b[1]) * (b[0] - a[0]):
                out.pop()
            else:
                break
        out.append(p)
    return tuple(out)


def _raw_eval(points, xs, x: Fraction) -> Fraction:
    i = bisect_right(xs, x)
    if i == len(xs):
        return points[-1][1]
    (x0, y0), (x1, y1) = points[i - 1], points[i]
    if x == x0:
        return y0
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def _combine_raw(fns, coeffs) -> list:
    """Pointwise linear combination sum(c_i * f_i)."""
    xs = sorted({x for f in fns for x, _ in f})
    cached = [(f, [x for x, _ in f]) for f in fns]
    out = []
    for x in xs:
        y = Fraction(0)
        for (f, fxs), c in zip(cached, coeffs):
            y += Fraction(c) * _raw_eval(f, fxs, x)
        out.append((x, y))
    return out


def _insert_crossings(points, level: Fraction) -> list:
    out = [points[0]]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if (y0 - level) * (y1 - level) < 0:
            out.append((x0 + (level - y0) * (x1 - x0) / (y1 - y0), level))
        out.append((x1, y1))
    return out


def _clip_above(points, level) -> list:
    level = Fraction(level)
    return [(x, min(y, level)) for x, y in _insert_crossings(points, level)]


def _clip_below(points, level) -> list:
    level = Fraction(level)
    return [(x, max(y, level)) for x, y in _insert_crossings(points, level)]


def pl_eval_by_fractions(f, x) -> Fraction:
    return _raw_eval(f, [p[0] for p in f], Fraction(x))


def pl_delta_by_fractions(prefix, tail) -> tuple:
    k = len(prefix)
    coeffs = [Fraction(1, 2**i) for i in range(1, k + 1)] + [Fraction(1, 2**k)]
    points = _combine_raw([*prefix, tail], coeffs)
    if any(y < 0 or y > 1 for _, y in points):
        raise AssertionError("delta combination left the unit interval")
    return _pl_canonical(points)


def pl_scale_by_fractions(r, f) -> tuple:
    return _pl_canonical([(x, Fraction(r) * y) for x, y in f])


def pl_precompose_by_fractions(f, phi) -> tuple:
    xs = {x for x, _ in phi}
    f_breaks = [x for x, _ in f]
    for (u, a), (v, b) in zip(phi, phi[1:]):
        if a == b:
            continue
        lo, hi = (a, b) if a < b else (b, a)
        for c in f_breaks:
            if lo < c < hi:
                xs.add(u + (c - a) * (v - u) / (b - a))
    return _pl_canonical(
        [(x, pl_eval_by_fractions(f, pl_eval_by_fractions(phi, x))) for x in sorted(xs)]
    )


def pl_uniform_dist_by_fractions(f, g) -> Fraction:
    return max(abs(y) for _, y in _combine_raw([f, g], [1, -1]))


def pl_leq_by_fractions(f, g) -> bool:
    return all(y >= 0 for _, y in _combine_raw([g, f], [1, -1]))


class PLByFractions(Carrier):
    """The piecewise-linear functions as canonical Fraction point tuples."""

    spec = "pl-by-fractions"

    def zero(self):
        return (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))

    def oplus(self, x, y):
        return _pl_canonical(_clip_above(_combine_raw([x, y], [1, 1]), 1))

    def neg(self, x):
        return tuple((a, 1 - b) for a, b in x)

    def leq(self, x, y):
        return pl_leq_by_fractions(x, y)

    def delta(self, prefix, tail):
        return pl_delta_by_fractions(prefix, tail)


PL_BY_FRACTIONS = PLByFractions()


def pl_increasing_approx_by_fractions(target, depth: int) -> list:
    out = []
    for i in range(1, depth + 1):
        shift = Fraction(3, 2 ** (i + 2))
        out.append(_pl_canonical(_clip_below([(x, y - shift) for x, y in target], 0)))
    return out


def pl_isbell_reconstruct_by_fractions(seq) -> tuple:
    """The reconstruction, raising IsbellHypothesisError as the library does."""
    zero = PL_BY_FRACTIONS.zero()
    norm1 = pl_uniform_dist_by_fractions(seq[0], zero)
    if norm1 > Fraction(1, 2):
        raise IsbellHypothesisError(1, norm1, "first entry has norm above 1/2")
    previous, increments = zero, []
    for i, current in enumerate(seq, start=1):
        if not pl_leq_by_fractions(previous, current):
            gap = pl_uniform_dist_by_fractions(previous, current)
            raise IsbellHypothesisError(i, gap, "sequence is not increasing")
        if i >= 2:
            gap = pl_uniform_dist_by_fractions(current, previous)
            if gap > Fraction(1, 2**i):
                raise IsbellHypothesisError(i, gap, f"step exceeds the bound 1/{2**i}")
        scaled = _combine_raw([PL_BY_FRACTIONS.ominus(current, previous)], [2**i])
        if any(y < 0 or y > 1 for _, y in scaled):
            raise IsbellHypothesisError(
                i, max(y for _, y in scaled), "scaled increment left [0, 1]"
            )
        increments.append(_pl_canonical(scaled))
        previous = current
    return pl_delta_by_fractions(increments, increments[-1])
