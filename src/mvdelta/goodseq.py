"""Good sequences, their monoid, and the enveloping-group construction.

A *good sequence* over a carrier is a finite (trailing zeros trimmed)
list whose consecutive entries satisfy ``a_i oplus a_{i+1} = a_i``.
Good sequences add by the convolution-like formula below and form a
cancellative lattice-ordered monoid; formal differences of good
sequences then form a lattice-ordered group whose unit interval
recovers the original algebra.  This module implements the desk-scale
mechanics: the monoid operations, formal differences with cross-sum
equality, the embedding ``a -> [(a)]``, and two exhaustive round-trip
verifications for finite carriers.

The element-level operations (``gs_*``, ``xi_*``) run the convolution
and the goodness test on the carrier's own operations; the round trips
run ``_Indices``, a separate kernel that the tests check against them,
on the indices of a finite carrier's elements: a good sequence is a
tuple of indices, oplus and the order are rows of
``carriers.index_tables``, neg complements an index, odot is one table
built from neg and oplus, and each monoid sum is computed and checked
once per call.  Both round trips estimate their work from the sizes
before their pair loops and refuse it past ``WORK_BUDGET``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .carriers import (
    Carrier, CarrierMismatch, FiniteChain, WorkBudgetExceeded, check_work, index_tables
)

__all__ = [
    "GoodSeq",
    "NotGoodSequence",
    "is_good",
    "good_seq",
    "gs_add",
    "gs_leq",
    "gs_join",
    "gs_meet",
    "XiElem",
    "xi_zero",
    "xi_unit",
    "xi_from_element",
    "xi_add",
    "xi_negate",
    "xi_sub",
    "xi_eq",
    "xi_leq",
    "xi_join",
    "xi_meet",
    "GammaReport",
    "gamma_of_xi",
    "enumerate_good_seqs",
    "ChainIsoReport",
    "xi_chain_iso",
    "WORK_BUDGET",
    "WorkBudgetExceeded",
]

#: Largest estimated work of one round trip, in steps of its pair loops
#: (0.05 to 0.2 microseconds each on a 2-vCPU VM, so an admitted round
#: trip takes at most about 2 s).
WORK_BUDGET = 10**7

#: The most entries of a good sequence that ``gamma_of_xi`` enumerates.
GAMMA_WINDOW = 3


class NotGoodSequence(ValueError):
    def __init__(self, index: int):
        super().__init__(f"goodness fails at index {index}")
        self.index = index


@dataclass(frozen=True)
class GoodSeq:
    carrier: Carrier
    entries: tuple


def is_good(carrier: Carrier, entries) -> tuple[bool, int | None]:
    """Check a_i oplus a_{i+1} = a_i for all consecutive pairs.

    Returns (True, None) or (False, first failing index).
    """
    entries = list(entries)
    for i in range(len(entries) - 1):
        if not carrier.eq(carrier.oplus(entries[i], entries[i + 1]), entries[i]):
            return False, i
    return True, None


def _trim(carrier: Carrier, entries) -> tuple:
    entries = list(entries)
    zero = carrier.zero()
    while entries and carrier.eq(entries[-1], zero):
        entries.pop()
    return tuple(entries)


def _checked(K: Carrier, out: list, what: str) -> tuple:
    ok, index = is_good(K, out)
    if not ok:
        raise AssertionError(f"{what} at index {index}")
    return _trim(K, out)


def good_seq(carrier: Carrier, entries) -> GoodSeq:
    """Validated, trailing-zero-trimmed good sequence."""
    ok, index = is_good(carrier, entries)
    if not ok:
        raise NotGoodSequence(index)
    return GoodSeq(carrier, _trim(carrier, entries))


def _same_carrier(a: GoodSeq, b: GoodSeq) -> Carrier:
    if a.carrier != b.carrier:
        raise CarrierMismatch(
            f"mixing sequences over {a.carrier.spec} and {b.carrier.spec}"
        )
    return a.carrier


def _sum(K: Carrier, a: tuple, b: tuple) -> tuple:
    """Monoid sum c_i = a_i + (a_{i-1} . b_1) + ... + (a_1 . b_{i-1}) + b_i,
    written with oplus for + and odot for dots, of two entry tuples over the
    carrier K; the result is checked good."""
    zero = K.zero()
    a, b = (*a, *[zero] * len(b)), (*b, *[zero] * len(a))
    oplus, odot = K.oplus, K.odot
    out = []
    for i in range(len(a)):
        acc = oplus(a[i], b[i])
        for j in range(i):
            acc = oplus(acc, odot(a[i - j - 1], b[j]))
        out.append(acc)
    return _checked(K, out, "monoid sum produced a non-good sequence")


def gs_add(a: GoodSeq, b: GoodSeq) -> GoodSeq:
    """Monoid sum of two good sequences over one carrier (see ``_sum``)."""
    K = _same_carrier(a, b)
    return GoodSeq(K, _sum(K, a.entries, b.entries))


def _leq(K: Carrier, a: tuple, b: tuple) -> bool:
    return all(K.leq(x, y) for x, y in zip_longest(a, b, fillvalue=K.zero()))


def gs_leq(a: GoodSeq, b: GoodSeq) -> bool:
    """Componentwise order after zero-padding the shorter sequence."""
    return _leq(_same_carrier(a, b), a.entries, b.entries)


def _pointwise(K: Carrier, a: tuple, b: tuple, op) -> tuple:
    out = [op(x, y) for x, y in zip_longest(a, b, fillvalue=K.zero())]
    return _checked(K, out, "pointwise lattice operation broke goodness")


def gs_join(a: GoodSeq, b: GoodSeq) -> GoodSeq:
    K = _same_carrier(a, b)
    return GoodSeq(K, _pointwise(K, a.entries, b.entries, K.join))


def gs_meet(a: GoodSeq, b: GoodSeq) -> GoodSeq:
    K = _same_carrier(a, b)
    return GoodSeq(K, _pointwise(K, a.entries, b.entries, K.meet))


@dataclass(frozen=True, eq=False)
class XiElem:
    """Formal difference pos - neg of good sequences.

    Equality is the cross-sum test (the monoid is cancellative), so
    ``==`` is semantic equality, not representation equality.
    """

    pos: GoodSeq
    neg: GoodSeq

    def __eq__(self, other):
        if not isinstance(other, XiElem):
            return NotImplemented
        return xi_eq(self, other)

    __hash__ = None


def xi_zero(carrier: Carrier) -> XiElem:
    empty = GoodSeq(carrier, ())
    return XiElem(empty, empty)


def xi_unit(carrier: Carrier) -> XiElem:
    return XiElem(good_seq(carrier, [carrier.one()]), GoodSeq(carrier, ()))


def xi_from_element(carrier: Carrier, a) -> XiElem:
    """The embedding a -> [(a)] of the algebra into its enveloping group."""
    return XiElem(good_seq(carrier, [a]), GoodSeq(carrier, ()))


def xi_add(x: XiElem, y: XiElem) -> XiElem:
    return XiElem(gs_add(x.pos, y.pos), gs_add(x.neg, y.neg))


def xi_negate(x: XiElem) -> XiElem:
    return XiElem(x.neg, x.pos)


def xi_sub(x: XiElem, y: XiElem) -> XiElem:
    return xi_add(x, xi_negate(y))


def xi_eq(x: XiElem, y: XiElem) -> bool:
    return gs_add(x.pos, y.neg).entries == gs_add(y.pos, x.neg).entries


def xi_leq(x: XiElem, y: XiElem) -> bool:
    return gs_leq(gs_add(x.pos, y.neg), gs_add(y.pos, x.neg))


def xi_join(x: XiElem, y: XiElem) -> XiElem:
    return XiElem(
        gs_join(gs_add(x.pos, y.neg), gs_add(y.pos, x.neg)), gs_add(x.neg, y.neg)
    )


def xi_meet(x: XiElem, y: XiElem) -> XiElem:
    return XiElem(
        gs_meet(gs_add(x.pos, y.neg), gs_add(y.pos, x.neg)), gs_add(x.neg, y.neg)
    )


class _Indices:
    """The round trips' kernel for a finite carrier, on the indices 0..|A|-1
    of ``chain_factors.elements``: zero is 0, ``neg[i]`` is |A| - 1 - i
    (each mixed-radix digit complemented), and ``oplus``, ``odot``
    (neg(oplus(neg i, neg j))) and ``order`` (i <= j) are rows of tables.
    A good sequence is a tuple of indices; ``sum`` and ``meet`` check
    goodness and trim, as ``_sum`` and ``_pointwise`` do on elements."""

    def __init__(self, carrier: Carrier):
        oplus, self.order = index_tables(carrier)
        neg = list(range(len(oplus) - 1, -1, -1))
        self.oplus, self.neg = oplus, neg
        self.odot = [[neg[s] for s in map(oplus[a].__getitem__, neg)] for a in neg]

    def _checked(self, out: list, what: str) -> tuple:
        oplus = self.oplus
        for i in range(len(out) - 1):
            if oplus[out[i]][out[i + 1]] != out[i]:
                raise AssertionError(f"{what} at index {i}")
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def sum(self, a: tuple, b: tuple) -> tuple:
        """The monoid sum of ``_sum``, one table row lookup per term."""
        oplus, odot = self.oplus, self.odot
        a, b = (*a, *[0] * len(b)), (*b, *[0] * len(a))
        out = []
        for i in range(len(a)):
            acc = oplus[a[i]][b[i]]
            for j in range(i):
                acc = oplus[acc][odot[a[i - j - 1]][b[j]]]
            out.append(acc)
        return self._checked(out, "monoid sum produced a non-good sequence")

    def leq(self, a: tuple, b: tuple) -> bool:
        order = self.order
        for x, y in zip_longest(a, b, fillvalue=0):
            if not order[x][y]:
                return False
        return True

    def meet(self, a: tuple, b: tuple) -> tuple:
        """Entrywise neg(join(neg x, neg y)), the meet of ``Carrier.meet``."""
        oplus, neg = self.oplus, self.neg
        out = [neg[oplus[neg[oplus[x][neg[y]]]][neg[y]]] for x, y in zip_longest(a, b, fillvalue=0)]
        return self._checked(out, "pointwise lattice operation broke goodness")


def _good_seqs(K: _Indices, max_len: int) -> list[tuple]:
    """All good index sequences of length <= max_len, built by extending
    shorter ones; trailing zeros are never appended (after a zero entry,
    goodness forces zeros forever), so each comes once in trimmed form."""
    oplus, nonzero = K.oplus, range(1, len(K.oplus))
    out, frontier = [()], [()]
    for _ in range(max_len):
        frontier = [s + (e,) for s in frontier for e in nonzero
                    if not s or oplus[s[-1]][e] == s[-1]]
        out += frontier
    return out


def enumerate_good_seqs(carrier: Carrier, max_len: int) -> list[GoodSeq]:
    """All good sequences of length <= max_len over a finite carrier,
    enumerated on the indices of its elements and mapped back to them."""
    if not carrier.is_finite():
        raise CarrierMismatch(f"enumeration needs a finite carrier, not {carrier.spec}")
    seqs = _good_seqs(_Indices(carrier), max_len)
    elements = carrier.chain_factors.elements
    return [GoodSeq(carrier, tuple(map(elements.__getitem__, s))) for s in seqs]


@dataclass(frozen=True)
class GammaReport:
    carrier_spec: str
    algebra_size: int
    window_classes: int
    bijective: bool
    preserves_oplus: bool
    preserves_neg: bool

    @property
    def ok(self) -> bool:
        return self.bijective and self.preserves_oplus and self.preserves_neg


def gamma_of_xi(carrier: Carrier) -> GammaReport:
    """Round trip through the enveloping group of a finite carrier.

    Enumerates formal differences of good sequences of at most
    ``GAMMA_WINDOW`` entries between zero and the unit, groups them into
    semantic classes, and checks that the embedding a -> [(a)] is a
    bijection onto them carrying oplus to truncated sum and neg to unit-minus.

    A formal difference is a (pos, neg) pair of index tuples, and each
    monoid sum is computed once per call.  Raises WorkBudgetExceeded,
    before the pair loops, when the sequence pairs times the classes pass
    WORK_BUDGET, and before any element is listed when a lower bound from
    |A| alone does (after the table budget).
    """
    elements = carrier.tabulable_size()
    # () and each (a) with a nonzero are good: at least |A| sequences.
    check_work(f"gamma_of_xi({carrier.spec})", elements**2 * (elements + 1), WORK_BUDGET)
    K = _Indices(carrier)
    size = range(len(K.neg))
    sums: dict[tuple, tuple] = {}

    def add(a: tuple, b: tuple) -> tuple:
        s = sums.get((a, b))
        if s is None:
            s = sums[a, b] = K.sum(a, b)
        return s

    # xi_eq and xi_meet on (pos, neg) pairs.
    def eq(x, y) -> bool:
        return add(x[0], y[1]) == add(y[0], x[1])

    def meet(x, y):
        return K.meet(add(x[0], y[1]), add(y[0], x[1])), add(x[1], y[1])

    images = [((a,) if a else (), ()) for a in size]
    unit = images[-1]
    seqs = _good_seqs(K, GAMMA_WINDOW)
    # Every pair of sequences is tested against the classes found so far.
    check_work(f"gamma_of_xi({carrier.spec})", len(seqs) ** 2 * (len(size) + 1), WORK_BUDGET)

    # x = (pos, neg) lies between zero and the unit iff () + neg <= pos + ()
    # and pos + () <= unit + neg (xi_leq), sums taken once per sequence.
    bounds = [(add((), s), add(s, ()), add(unit[0], s)) for s in seqs]
    classes: list[tuple] = []
    for pos, (_, pos_plus, _) in zip(seqs, bounds):
        for neg, (plus_neg, _, unit_plus_neg) in zip(seqs, bounds):
            if not (K.leq(plus_neg, pos_plus) and K.leq(pos_plus, unit_plus_neg)):
                continue
            for c_pos, c_neg in classes:  # eq((pos, neg), c)
                if add(pos, c_neg) == add(c_pos, neg):
                    break
            else:
                classes.append((pos, neg))

    injective = all(not eq(images[i], images[j]) for i in size for j in range(i + 1, len(size)))
    surjective = all(any(eq(c, img) for img in images) for c in classes)
    bijective = injective and surjective and len(classes) == len(size)

    def truncated_sum(x, y):  # xi_meet(xi_add(x, y), unit)
        return meet((add(x[0], y[0]), add(x[1], y[1])), unit)

    preserves_oplus = all(
        eq(images[K.oplus[a][b]], truncated_sum(images[a], images[b])) for a in size for b in size
    )
    preserves_neg = all(  # images[neg a] against xi_sub(unit, images[a])
        eq(images[K.neg[a]], (add(unit[0], x[1]), add(unit[1], x[0])))
        for a, x in enumerate(images)
    )
    return GammaReport(
        carrier.spec, len(size), len(classes), bijective, preserves_oplus, preserves_neg
    )


@dataclass(frozen=True)
class ChainIsoReport:
    n: int
    bound: Fraction
    sequences: int
    sums_bijective: bool
    additive: bool

    @property
    def ok(self) -> bool:
        return self.sums_bijective and self.additive


def xi_chain_iso(n: int, bound) -> ChainIsoReport:
    """Sum-of-entries isomorphism for good sequences over the chain {0..n}/n.

    Enumerates every good sequence with entry sum <= bound (a rational),
    and checks that the sum is a bijection onto the multiples of 1/n in
    [0, bound] and turns monoid addition into rational addition whenever
    the result stays inside the window.

    On the chain's indices k is the element k/n, so entry sums are
    numerators over n, compared with cap = floor(bound * n).  Raises
    WorkBudgetExceeded, before the chain is checked, when the chain check
    and its three tables (4 (n+1)^2 steps) plus the sequence pairs times
    their squared length pass WORK_BUDGET (after the table budget).
    """
    if n < 1:
        raise ValueError(f"chain order must be >= 1, got {n}")
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    cap = bound.numerator * n // bound.denominator
    chain = FiniteChain(n)
    # cap + 1 sequences of at most ceil(cap / n) entries, summed in pairs.
    estimate = 4 * chain.tabulable_size() ** 2 + (cap + 1) ** 2 * (-(-cap // n) + 1) ** 2
    check_work(f"xi_chain_iso({n}, {bound})", estimate, WORK_BUDGET)
    K = _Indices(chain)
    # Every entry but the last is the top n, so none is longer than ceil(cap / n).
    seqs = [s for s in _good_seqs(K, -(-cap // n)) if sum(s) <= cap]
    sums = [sum(s) for s in seqs]
    sums_bijective = len(sums) == len(set(sums)) and set(sums) == set(range(cap + 1))

    additive = True
    for a, sa in zip(seqs, sums):
        for b, sb in zip(seqs, sums):
            if sa + sb <= cap and sum(K.sum(a, b)) != sa + sb:
                additive = False
    return ChainIsoReport(n, bound, len(seqs), sums_bijective, additive)
