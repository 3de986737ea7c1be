"""Maximal spectra at desk scale: homomorphisms into [0,1], the Stone
topology of a finite algebra, and the evaluation/point-kernel maps.

A finite carrier, a product of finite chains, is computed factor by
factor, with no table of the whole product.  Its maximal ideals are
the kernels of the projections onto the nontrivial chain factors; the
homomorphism attached to one is that projection followed by k -> k/n,
the one embedding of the chain {0, 1/n, ..., 1} into [0,1], checked on
that chain's own operations.  Every subset of the maximal ideals is
closed, so the Stone topology is discrete, and the radical is {0}.
Chang's algebra is handled by its closed form (one maximal ideal, the
infinitesimals), and point-evaluation/precomposition homomorphisms of
the function carrier support the delta-preservation checks.

``bench/tracing.py`` patches ``maximal_ideals``, ``enumerate_ideals``
(imported for that alone), ``radical`` and ``holder_hom`` here, so all
four stay module-level names.
"""

from __future__ import annotations

import itertools
import math
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
    projection,
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
        return frozenset(x for x, v in self.table.items() if not v)

    def image(self) -> frozenset:
        return frozenset(self.table.values())


def holder_hom(carrier: Carrier, ideal: frozenset) -> Hom:
    """The unique homomorphism with the given maximal ideal as kernel: the
    projection onto the chain factor {0, 1/n, ..., 1} at which all its
    elements are 0, followed by k -> k/n (:func:`carriers.projection`, which
    checks that chain), its kernel checked against the ideal."""
    hom = Hom(carrier, projection(carrier, ideal))
    if hom.kernel() != ideal:
        raise AssertionError("kernel of the projection differs from the ideal")
    return hom


def enumerate_homs(carrier: Carrier) -> list[Hom]:
    """All homomorphisms of a finite carrier into [0,1], one per maximal
    ideal, ordered by their values in element order."""
    homs = [holder_hom(carrier, m) for m in maximal_ideals(carrier)]
    elements = carrier.chain_factors.elements
    return sorted(homs, key=lambda h: [h.table[x] for x in elements])


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
    finite carrier (closed sets listed extensionally as index sets).

    The ideal that is {0} at exactly some nontrivial factors lies in
    exactly their kernels, so every index set is closed.
    """
    maxes = maximal_ideals(carrier)
    homs = [holder_hom(carrier, m) for m in maxes]
    indices = range(len(maxes))
    closed = sorted(c for r in range(len(maxes) + 1) for c in itertools.combinations(indices, r))
    elements = carrier.chain_factors.elements
    basis = sorted({tuple(i for i in indices if a in maxes[i]) for a in elements})
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
    """The evaluation map a -> (h(a) for every hom h).  Its radical reuses
    the chain checks :func:`holder_hom` ran while building the homs, so
    each chain factor is checked once."""
    elems = carrier.chain_factors.elements
    homs = enumerate_homs(carrier)
    values = {a: tuple(h.table[a] for h in homs) for a in elems}
    distinct = set(values.values())
    radical_trivial = radical(carrier).elements == frozenset({carrier.zero()})
    kernel = frozenset(a for a, v in values.items() if not any(v))
    # Every value lies in the product of the images, so it is all of the
    # product when the sizes agree.
    surjective = len(distinct) == math.prod(len(h.image()) for h in homs)
    injective = len(distinct) == len(elems)
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
    kernels = [algebra.chain_factors.ideal([i]) for i in range(len(factors))]
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
