"""Independent oracles the tests check the library against.

Nothing in the package imports this module; it searches directly for
what the library constructs, so a disagreement points at a fault in
one of the two.
"""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

from mvdelta import terms
from mvdelta.carriers import Q01_CARRIER, Carrier, CarrierMismatch, FiniteChain
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
from mvdelta.rationals import Q01
from mvdelta.spectrum import Hom, _hom_sort_key
from mvdelta.terms import Const, Delta, EvSeq, HalfN, Neg, NFold, Oplus, Term, UnboundVariable, Var


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


def sample_falsify_reference(lhs, rhs, relation="eq", trials=1000, seed=0, depth=8):
    """The sampling search of ``decide.sample_falsify``, evaluated with
    ``evaluate_by_recursion`` on ``Q01`` values: the same rng draws in
    the same order, so both must return the same first failing sample."""
    le, re_ = terms.expand(lhs), terms.expand(rhs)
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
    """The fields of ``carrier.tables``, read off the carrier's own
    operations: |A|^2 calls each of oplus and leq."""
    elems = carrier.elements()
    index = {x: i for i, x in enumerate(elems)}
    size = range(len(elems))
    leq = [[carrier.leq(x, y) for y in elems] for x in elems]
    return SimpleNamespace(
        elements=elems,
        index=index,
        zero=index[carrier.zero()],
        neg=[index[carrier.neg(x)] for x in elems],
        oplus=[[index[carrier.oplus(x, y)] for y in elems] for x in elems],
        leq=leq,
        below=[frozenset(j for j in size if leq[j][i]) for i in size],
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


# The good-sequence round trips as they ran on the carrier's own
# operations, one checked oplus/odot call per term of every monoid sum,
# with no sum kept; goodseq runs them on the carrier's tables.


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
