"""Maximal spectra at desk scale: homomorphisms into [0,1], the Stone
topology of a finite algebra, and the evaluation/point-kernel maps.

For a finite carrier every maximal ideal induces a quotient that is a
finite totally ordered simple algebra, and that quotient embeds into
the rational unit interval in exactly one way (rank / size); composing
gives the unique homomorphism attached to the ideal.  Chang's algebra
is handled by its closed form (one maximal ideal, the infinitesimals),
and point-evaluation/precomposition homomorphisms of the function
carrier support the delta-preservation checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .carriers import (
    Carrier,
    CarrierError,
    ChangElem,
    FiniteChain,
    ProductAlg,
    enumerate_ideals,
    maximal_ideals,
    radical,
)
from .rationals import Q01

__all__ = [
    "Hom",
    "holder_hom",
    "enumerate_homs",
    "v_of",
    "SpectrumResult",
    "spectrum",
    "EtaReport",
    "eta",
    "chang_eta",
    "EpsilonReport",
    "epsilon_finite",
    "preimage_ideal",
    "point_evaluation_hom",
    "precompose_hom",
    "delta_preserved",
    "halving_preserved",
]


@dataclass(frozen=True)
class Hom:
    """Homomorphism from a finite carrier into the rational unit interval,
    stored as a value table."""

    carrier: Carrier
    table: dict

    def __call__(self, x) -> Q01:
        return self.table[x]

    def kernel(self) -> frozenset:
        return frozenset(x for x, v in self.table.items() if v == 0)

    def image(self) -> frozenset:
        return frozenset(self.table.values())


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


def holder_hom(carrier: Carrier, ideal: frozenset) -> Hom:
    """The unique homomorphism with the given maximal ideal as kernel.

    The quotient classes are totally ordered; ranking them and mapping
    rank r of m+1 classes to r/m is the one embedding into [0,1].  The
    construction is verified exactly before returning.
    """
    elems = carrier.elements()
    classes: list[list] = []
    for x in elems:
        for cls in classes:
            if carrier.dist(x, cls[0]) in ideal:
                cls.append(x)
                break
        else:
            classes.append([x])

    def class_leq(c1, c2) -> bool:
        # x/I <= y/I iff (x ominus y) falls in the ideal
        return carrier.ominus(c1[0], c2[0]) in ideal

    ordered: list[list] = []
    for cls in classes:
        at = len(ordered)
        for i, other in enumerate(ordered):
            if class_leq(cls, other):
                if not class_leq(other, cls):
                    at = i
                    break
            elif not class_leq(other, cls):
                raise AssertionError("quotient by a maximal ideal is not totally ordered")
        ordered.insert(at, cls)

    m = len(ordered) - 1
    if m == 0:
        raise CarrierError("ideal is not proper; quotient is trivial")
    table = {}
    for rank, cls in enumerate(ordered):
        for x in cls:
            table[x] = Q01(rank, m)
    if not _verify_hom(carrier, table):
        raise AssertionError("rank map failed the homomorphism check")
    hom = Hom(carrier, table)
    if hom.kernel() != ideal:
        raise AssertionError("kernel of the rank map differs from the ideal")
    return hom


def _hom_sort_key(carrier: Carrier, hom: Hom):
    return tuple(hom.table[x] for x in carrier.elements())


def enumerate_homs(carrier: Carrier) -> list[Hom]:
    """All homomorphisms of a finite carrier into [0,1], one per maximal ideal."""
    homs = [holder_hom(carrier, m) for m in maximal_ideals(carrier)]
    return sorted(homs, key=lambda h: _hom_sort_key(carrier, h))


def v_of(carrier: Carrier, subset) -> list[frozenset]:
    """Maximal ideals containing every element of the subset."""
    subset = frozenset(subset)
    return [m for m in maximal_ideals(carrier) if subset <= m]


@dataclass(frozen=True)
class SpectrumResult:
    carrier: Carrier
    ideals: tuple[frozenset, ...]  # maximal ideals
    homs: tuple[Hom, ...]  # bijective with ideals, matching order
    closed_sets: tuple[tuple[int, ...], ...]  # V(I) for all ideals I, as index sets
    basis: tuple[tuple[int, ...], ...]  # V(a) for all elements a


def spectrum(carrier: Carrier) -> SpectrumResult:
    """Maximal ideals, their homomorphisms, and the Stone topology of a
    finite carrier (closed sets listed extensionally as index sets)."""
    maxes = maximal_ideals(carrier)
    homs = [holder_hom(carrier, m) for m in maxes]

    def v_indices(subset) -> tuple[int, ...]:
        subset = frozenset(subset)
        return tuple(i for i, m in enumerate(maxes) if subset <= m)

    closed = sorted({v_indices(ideal) for ideal in enumerate_ideals(carrier)})
    basis = sorted({v_indices([a]) for a in carrier.elements()})
    return SpectrumResult(carrier, tuple(maxes), tuple(homs), tuple(closed), tuple(basis))


@dataclass(frozen=True)
class EtaReport:
    """Evaluation map a -> (h(a) for every hom h) of a finite carrier."""

    carrier: Carrier
    values: dict  # element -> tuple of Q01
    injective: bool
    radical_trivial: bool
    kernel: frozenset
    surjective_onto_hom_product: bool


def eta(carrier: Carrier) -> EtaReport:
    elems = carrier.elements()
    homs = enumerate_homs(carrier)
    values = {a: tuple(h.table[a] for h in homs) for a in elems}
    injective = len(set(values.values())) == len(elems)
    rad = radical(carrier)
    radical_trivial = rad.elements == frozenset({carrier.zero()})
    kernel = frozenset(a for a, v in values.items() if all(c == 0 for c in v))
    images = [sorted(h.image()) for h in homs]
    product = set(itertools.product(*images)) if homs else set()
    surjective = set(values.values()) == product if homs else len(elems) == 1
    return EtaReport(carrier, values, injective, radical_trivial, kernel, surjective)


def chang_eta():
    """Closed-form evaluation map of Chang's algebra.

    The unique maximal ideal is the radical (level-0 elements); the
    quotient collapses to {0, 1} and the one homomorphism reads off the
    level.  Returns (hom, kernel description, injective flag).
    """

    def hom(x: ChangElem) -> Q01:
        return Q01(x.level)

    return hom, "level-0 elements (the radical)", False


@dataclass(frozen=True)
class EpsilonReport:
    """Point-kernel map for functions on a finite discrete space,
    modelled as a product of chains (one factor per point)."""

    points: tuple[int, ...]
    kernels: tuple[frozenset, ...]
    bijective: bool


def epsilon_finite(factors) -> EpsilonReport:
    factors = tuple(factors)
    for f in factors:
        if not isinstance(f, FiniteChain):
            raise CarrierError(f"epsilon check expects chain factors, got {f.spec}")
    algebra = ProductAlg(factors)
    maxes = maximal_ideals(algebra)
    kernels = []
    for i in range(len(factors)):
        kernels.append(frozenset(t for t in algebra.elements() if t[i] == 0))
    distinct = len(set(kernels)) == len(kernels)
    onto = set(kernels) == set(maxes)
    return EpsilonReport(tuple(range(len(factors))), tuple(kernels), distinct and onto)


def preimage_ideal(hom_map: dict, ideal: frozenset) -> frozenset:
    """Inverse image of an ideal along a homomorphism given as a value table."""
    return frozenset(x for x, v in hom_map.items() if v in ideal)


# --- delta preservation ------------------------------------------------------


def point_evaluation_hom(point):
    """Evaluation at a rational point: a homomorphism PL -> [0,1]."""
    point = Fraction(point)

    def hom(f) -> Q01:
        return f.eval_at(point)

    return hom


def precompose_hom(phi):
    """Composition with a fixed reparametrisation: an endo-homomorphism of PL."""
    from .plfunc import pl_precompose

    def hom(f):
        return pl_precompose(f, phi)

    return hom


def delta_preserved(hom, source: Carrier, target: Carrier, prefix, tail) -> bool:
    """Exact check h(delta(prefix; tail)) = delta(h prefix; h tail)."""
    left = hom(source.delta(list(prefix), tail))
    right = target.delta([hom(p) for p in prefix], hom(tail))
    return target.eq(left, right)


def halving_preserved(hom, source: Carrier, target: Carrier, x, n: int = 1) -> bool:
    """Exact check that h commutes with the n-fold halving operation."""
    return target.eq(hom(source.halve_n(n, x)), target.halve_n(n, hom(x)))
