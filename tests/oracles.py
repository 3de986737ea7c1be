"""Independent oracles the tests check the library against.

Nothing in the package imports this module; it searches directly for
what the library constructs, so a disagreement points at a fault in
one of the two.
"""

import itertools
import random
from types import SimpleNamespace

from mvdelta import terms
from mvdelta.carriers import Q01_CARRIER, Carrier
from mvdelta.decide import Counterexample
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
