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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .carriers import Carrier, CarrierMismatch, FiniteChain

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
]


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


def _entry(carrier: Carrier, entries: tuple, i: int):
    return entries[i] if 0 <= i < len(entries) else carrier.zero()


def gs_add(a: GoodSeq, b: GoodSeq) -> GoodSeq:
    """Monoid sum c_i = a_i + (a_{i-1} . b_1) + ... + (a_1 . b_{i-1}) + b_i,
    written with oplus for + and odot for dots; the result is checked good."""
    K = _same_carrier(a, b)
    length = len(a.entries) + len(b.entries)
    out = []
    for i in range(1, length + 1):
        acc = K.oplus(_entry(K, a.entries, i - 1), _entry(K, b.entries, i - 1))
        for j in range(1, i):
            acc = K.oplus(acc, K.odot(_entry(K, a.entries, i - j - 1), _entry(K, b.entries, j - 1)))
        out.append(acc)
    ok, index = is_good(K, out)
    if not ok:
        raise AssertionError(f"monoid sum produced a non-good sequence at index {index}")
    return GoodSeq(K, _trim(K, out))


def gs_leq(a: GoodSeq, b: GoodSeq) -> bool:
    """Componentwise order after zero-padding the shorter sequence."""
    K = _same_carrier(a, b)
    length = max(len(a.entries), len(b.entries))
    return all(
        K.leq(_entry(K, a.entries, i), _entry(K, b.entries, i)) for i in range(length)
    )


def _pointwise(a: GoodSeq, b: GoodSeq, op) -> GoodSeq:
    K = _same_carrier(a, b)
    length = max(len(a.entries), len(b.entries))
    out = [op(_entry(K, a.entries, i), _entry(K, b.entries, i)) for i in range(length)]
    ok, index = is_good(K, out)
    if not ok:
        raise AssertionError(f"pointwise lattice operation broke goodness at index {index}")
    return GoodSeq(K, _trim(K, out))


def gs_join(a: GoodSeq, b: GoodSeq) -> GoodSeq:
    return _pointwise(a, b, a.carrier.join)


def gs_meet(a: GoodSeq, b: GoodSeq) -> GoodSeq:
    return _pointwise(a, b, a.carrier.meet)


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


def enumerate_good_seqs(carrier: Carrier, max_len: int) -> list[GoodSeq]:
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


def gamma_of_xi(carrier: Carrier, max_len: int = 3) -> GammaReport:
    """Round trip through the enveloping group of a finite carrier.

    Enumerates formal differences of short good sequences lying between
    zero and the unit, groups them into semantic classes, and checks
    that the embedding a -> [(a)] is a bijection onto those classes
    carrying oplus to truncated sum and neg to unit-minus.
    """
    elems = carrier.elements()
    unit = xi_unit(carrier)
    zero = xi_zero(carrier)
    seqs = enumerate_good_seqs(carrier, max_len)

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
