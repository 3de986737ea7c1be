"""Exact continuous piecewise-linear functions [0,1] -> [0,1].

These functions, with rational breakpoints and pointwise MV operations,
form the desk-scale function carrier: a dense delta-subalgebra of the
continuous functions on [0,1].  Every operation is exact; truncations
insert the crossing points they create, and results are kept in a
canonical form (no collinear interior breakpoints), so structural
equality coincides with function equality.

The file format for a function is a JSON array of ``[x, y]`` rational
string pairs, e.g. ``[["0","0"],["1/2","1"],["1","1"]]``.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .carriers import MAX_NESTING, Carrier, _nesting_depth
from .rationals import Q01, parse_q01

__all__ = [
    "PLFunc",
    "FnSeq",
    "PLFormatError",
    "IsbellHypothesisError",
    "PLCarrier",
    "PL_CARRIER",
    "pl_const",
    "pl_identity",
    "pl_tent",
    "pl_neg",
    "pl_oplus",
    "pl_odot",
    "pl_ominus",
    "pl_dist",
    "pl_join",
    "pl_meet",
    "pl_nfold",
    "pl_delta",
    "pl_scale",
    "pl_precompose",
    "uniform_dist",
    "pl_leq",
    "increasing_approx",
    "isbell_reconstruct",
    "archimedean_certificate",
    "to_json",
    "from_json",
    "load_plfunc",
    "save_plfunc",
    "random_plfunc",
    "random_fnseq",
]

Point = tuple[Fraction, Fraction]


class PLFormatError(ValueError):
    """Breakpoint data violates the representation invariants."""

    def __init__(self, index: int, message: str):
        super().__init__(f"breakpoint {index}: {message}")
        self.index = index


class IsbellHypothesisError(ValueError):
    """An approximating sequence violates a reconstruction hypothesis."""

    def __init__(self, index: int, norm: Fraction, message: str):
        super().__init__(f"sequence entry {index}: {message} (exact norm {norm})")
        self.index = index
        self.norm = norm


def _validate(points: list[Point]):
    if len(points) < 2:
        raise PLFormatError(0, "need at least the two endpoint breakpoints")
    if points[0][0] != 0:
        raise PLFormatError(0, f"first x must be 0, got {points[0][0]}")
    if points[-1][0] != 1:
        raise PLFormatError(len(points) - 1, f"last x must be 1, got {points[-1][0]}")
    for i, (x, y) in enumerate(points):
        if y < 0 or y > 1:
            raise PLFormatError(i, f"value {y} outside [0, 1]")
        if i and x <= points[i - 1][0]:
            raise PLFormatError(i, f"x values must strictly increase, got {x}")


def _canonical(points: list[Point]) -> tuple[Point, ...]:
    out: list[Point] = [points[0]]
    for p in points[1:]:
        while len(out) >= 2:
            a, b = out[-2], out[-1]
            if (b[1] - a[1]) * (p[0] - b[0]) == (p[1] - b[1]) * (b[0] - a[0]):
                out.pop()
            else:
                break
        out.append(p)
    return tuple(out)


class PLFunc:
    """Immutable piecewise-linear function given by canonical breakpoints."""

    __slots__ = ("points", "_xs")

    def __init__(self, points):
        pts = [(Fraction(x), Fraction(y)) for x, y in points]
        _validate(pts)
        self.points: tuple[Point, ...] = _canonical(pts)
        self._xs = [p[0] for p in self.points]

    def __eq__(self, other):
        return isinstance(other, PLFunc) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        inner = ", ".join(f"({x}, {y})" for x, y in self.points)
        return f"PLFunc([{inner}])"

    def eval_at(self, x) -> Q01:
        x = Fraction(x)
        if x < 0 or x > 1:
            raise ValueError(f"argument {x} outside [0, 1]")
        return Q01(_raw_eval(self.points, self._xs, x))

    def max_value(self) -> Q01:
        return Q01(max(y for _, y in self.points))

    def is_zero(self) -> bool:
        return all(y == 0 for _, y in self.points)


@dataclass(frozen=True)
class FnSeq:
    """Eventually constant function sequence (prefix_1..prefix_k, tail, tail, ...)."""

    prefix: tuple[PLFunc, ...]
    tail: PLFunc


def pl_const(value) -> PLFunc:
    v = Fraction(value)
    return PLFunc([(Fraction(0), v), (Fraction(1), v)])


def pl_identity() -> PLFunc:
    return PLFunc([(0, 0), (1, 1)])


def pl_tent() -> PLFunc:
    return PLFunc([(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1)), (1, 0)])


# --- raw point-list helpers (values may leave [0, 1] mid-computation) -------


def _raw_eval(points: list[Point], xs: list[Fraction], x: Fraction) -> Fraction:
    i = bisect_right(xs, x)
    if i == len(xs):
        return points[-1][1]
    (x0, y0), (x1, y1) = points[i - 1], points[i]
    if x == x0:
        return y0
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def _merged_xs(fns) -> list[Fraction]:
    xs = set()
    for f in fns:
        xs.update(x for x, _ in f)
    return sorted(xs)


def _combine_raw(fns: list[list[Point]], coeffs, constant=0) -> list[Point]:
    """Pointwise affine combination sum(c_i * f_i) + constant."""
    xs = _merged_xs(fns)
    cached = [(f, [x for x, _ in f]) for f in fns]
    constant = Fraction(constant)
    out = []
    for x in xs:
        y = constant
        for (f, fxs), c in zip(cached, coeffs):
            y += Fraction(c) * _raw_eval(f, fxs, x)
        out.append((x, y))
    return out


def _insert_crossings(points: list[Point], level: Fraction) -> list[Point]:
    out = [points[0]]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if (y0 - level) * (y1 - level) < 0:
            t = x0 + (level - y0) * (x1 - x0) / (y1 - y0)
            out.append((t, level))
        out.append((x1, y1))
    return out


def _clip_above(points: list[Point], level) -> list[Point]:
    level = Fraction(level)
    return [(x, min(y, level)) for x, y in _insert_crossings(points, level)]


def _clip_below(points: list[Point], level) -> list[Point]:
    level = Fraction(level)
    return [(x, max(y, level)) for x, y in _insert_crossings(points, level)]


def _raw(f: PLFunc) -> list[Point]:
    return list(f.points)


# --- pointwise MV operations -------------------------------------------------


def pl_neg(f: PLFunc) -> PLFunc:
    return PLFunc([(x, 1 - y) for x, y in f.points])


def pl_oplus(f: PLFunc, g: PLFunc) -> PLFunc:
    return PLFunc(_clip_above(_combine_raw([_raw(f), _raw(g)], [1, 1]), 1))


def pl_delta(prefix, tail: PLFunc) -> PLFunc:
    """Exact sum(prefix_i / 2^i) + tail / 2^k; never reaches the threshold."""
    k = len(prefix)
    fns = [_raw(p) for p in prefix] + [_raw(tail)]
    coeffs = [Fraction(1, 2**i) for i in range(1, k + 1)] + [Fraction(1, 2**k)]
    points = _combine_raw(fns, coeffs)
    if any(y < 0 or y > 1 for _, y in points):
        raise AssertionError("delta combination left the unit interval")
    return PLFunc(points)


def pl_scale(r: Q01, f: PLFunc) -> PLFunc:
    """Exact pointwise r*f for a scalar r in [0, 1]."""
    r = Q01(r)
    return PLFunc([(x, r * y) for x, y in f.points])


def pl_precompose(f: PLFunc, phi: PLFunc) -> PLFunc:
    """Exact composition f(phi(x)).

    Each affine segment of phi is monotone, so refining the domain at
    the preimages of f's breakpoints makes the composition affine piece
    by piece.
    """
    xs = {x for x, _ in phi.points}
    f_breaks = [x for x, _ in f.points]
    for (u, a), (v, b) in zip(phi.points, phi.points[1:]):
        if a == b:
            continue
        lo, hi = (a, b) if a < b else (b, a)
        for c in f_breaks:
            if lo < c < hi:
                xs.add(u + (c - a) * (v - u) / (b - a))
    grid = sorted(xs)
    return PLFunc([(x, f.eval_at(phi.eval_at(x))) for x in grid])


def uniform_dist(f: PLFunc, g: PLFunc) -> Q01:
    """Exact sup |f - g|; attained at a common-refinement breakpoint."""
    diff = _combine_raw([_raw(f), _raw(g)], [1, -1])
    return Q01(max(abs(y) for _, y in diff))


def pl_leq(f: PLFunc, g: PLFunc) -> bool:
    """Pointwise order; decided at the common-refinement breakpoints."""
    diff = _combine_raw([_raw(g), _raw(f)], [1, -1])
    return all(y >= 0 for _, y in diff)


# --- approximation and reconstruction ---------------------------------------


def increasing_approx(target: PLFunc, depth: int) -> list[PLFunc]:
    """Increasing shift-and-clamp approximants of a target function.

    Stage i returns ``(target - 3/2^(i+2)) v 0``: the shifts decrease,
    so the sequence increases; stage i sits within 3/2^(i+2) of the
    target, and consecutive stages differ by at most 3/2^(i+2).  When
    the target has sup norm at most 1/2 the output satisfies all the
    reconstruction hypotheses checked by :func:`isbell_reconstruct`.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    out = []
    for i in range(1, depth + 1):
        shift = Fraction(3, 2 ** (i + 2))
        shifted = [(x, y - shift) for x, y in target.points]
        out.append(PLFunc(_clip_below(shifted, 0)))
    return out


def isbell_reconstruct(seq) -> PLFunc:
    """Rebuild the limit of an increasing sequence as one delta value.

    Requires, and validates exactly: the sequence increases, the first
    entry has sup norm at most 1/2, and step i moves by at most 1/2^i.
    The reconstruction uses the scaled increments as a delta prefix with
    the last increment as the eventual tail; for a sequence produced by
    :func:`increasing_approx` on a target of norm at most 1/2 the result
    is within 3/2^(n+2) <= 2^-n of that target.
    """
    seq = list(seq)
    if not seq:
        raise ValueError("need at least one approximant")
    zero = pl_const(0)
    norm1 = uniform_dist(seq[0], zero)
    if norm1 > Fraction(1, 2):
        raise IsbellHypothesisError(1, Fraction(norm1), "first entry has norm above 1/2")
    previous = zero
    increments = []
    for i, current in enumerate(seq, start=1):
        if not pl_leq(previous, current):
            gap = uniform_dist(previous, current)
            raise IsbellHypothesisError(i, Fraction(gap), "sequence is not increasing")
        if i >= 2:
            gap = uniform_dist(current, previous)
            if gap > Fraction(1, 2**i):
                raise IsbellHypothesisError(
                    i, Fraction(gap), f"step exceeds the bound 1/{2**i}"
                )
        step = pl_ominus(current, previous)
        scaled = _combine_raw([_raw(step)], [2**i])
        if any(y < 0 or y > 1 for _, y in scaled):
            raise IsbellHypothesisError(
                i, Fraction(max(y for _, y in scaled)), "scaled increment left [0, 1]"
            )
        increments.append(PLFunc(scaled))
        previous = current
    return pl_delta(increments, increments[-1])


def archimedean_certificate(f: PLFunc) -> int | None:
    """A verified witness that a nonzero f is not infinitesimal.

    Returns n = ceil(1/max f) + 1 together with the exact check that the
    n-fold sum of f is not below neg(f); returns None for f = 0, which
    is the whole radical of this carrier.
    """
    if f.is_zero():
        return None
    n = math.ceil(Fraction(1) / f.max_value()) + 1
    if pl_leq(pl_nfold(n, f), pl_neg(f)):
        raise AssertionError("archimedean certificate failed verification")
    return n


# --- JSON breakpoint format ---------------------------------------------------


def to_json(f: PLFunc) -> list[list[str]]:
    return [[str(x), str(y)] for x, y in f.points]


def _parse_breakpoint_rational(text, index: int) -> Fraction:
    if not isinstance(text, str):
        raise PLFormatError(index, f"coordinates must be rational strings, got {text!r}")
    try:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError):
        raise PLFormatError(index, f"malformed rational {text!r}") from None


def from_json(data) -> PLFunc:
    if not isinstance(data, list):
        raise PLFormatError(0, "expected a JSON array of [x, y] pairs")
    points = []
    for i, entry in enumerate(data):
        if not isinstance(entry, list) or len(entry) != 2:
            raise PLFormatError(i, f"expected a two-element array, got {entry!r}")
        points.append(
            (
                _parse_breakpoint_rational(entry[0], i),
                _parse_breakpoint_rational(entry[1], i),
            )
        )
    if not points:
        raise PLFormatError(0, "empty breakpoint list")
    return PLFunc(points)


def _from_json_text(text: str) -> PLFunc:
    """``from_json`` of JSON text, refused before decoding when its
    brackets nest deeper than ``carriers.MAX_NESTING`` (brackets inside
    strings count too; no rational holds one)."""
    depth = _nesting_depth(text)
    if depth > MAX_NESTING:
        raise PLFormatError(0, f"JSON nested {depth} deep, over the limit of {MAX_NESTING}")
    return from_json(json.loads(text))


def load_plfunc(path) -> PLFunc:
    with open(path, encoding="utf-8") as handle:
        return _from_json_text(handle.read())


def save_plfunc(f: PLFunc, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_json(f), handle)
        handle.write("\n")


# --- seeded random generation -------------------------------------------------


def random_plfunc(rng: Random, max_interior: int = 3, depth: int = 4) -> PLFunc:
    """A random function with dyadic breakpoints of the given depth."""
    grid = 2**depth
    count = rng.randint(0, max_interior)
    interior = sorted(rng.sample(range(1, grid), count)) if count else []
    xs = [Fraction(0)] + [Fraction(k, grid) for k in interior] + [Fraction(1)]
    return PLFunc([(x, Fraction(rng.randint(0, grid), grid)) for x in xs])


def random_fnseq(
    rng: Random, max_prefix: int = 3, max_interior: int = 3, depth: int = 4
) -> FnSeq:
    k = rng.randint(0, max_prefix)
    prefix = tuple(random_plfunc(rng, max_interior, depth) for _ in range(k))
    return FnSeq(prefix, random_plfunc(rng, max_interior, depth))


# --- carrier ------------------------------------------------------------------


@dataclass(frozen=True)
class PLCarrier(Carrier):
    """Carrier view of the piecewise-linear functions."""

    @property
    def spec(self) -> str:
        return "pl"

    def zero(self) -> PLFunc:
        return pl_const(0)

    def oplus(self, x: PLFunc, y: PLFunc) -> PLFunc:
        return pl_oplus(x, y)

    def neg(self, x: PLFunc) -> PLFunc:
        return pl_neg(x)

    def leq(self, x: PLFunc, y: PLFunc) -> bool:
        return pl_leq(x, y)

    def const(self, q: Q01) -> PLFunc:
        return pl_const(q)

    def delta(self, prefix, tail: PLFunc) -> PLFunc:
        return pl_delta(prefix, tail)

    def halve_n(self, n: int, x: PLFunc) -> PLFunc:
        return pl_scale(Q01(1, 2**n), x)

    def format_element(self, x: PLFunc) -> str:
        return json.dumps(to_json(x), separators=(",", ":"))

    def parse_element(self, text: str) -> PLFunc:
        # Rational literals become constant functions; breakpoint lists
        # are given as JSON.
        text = text.strip()
        if text.startswith("["):
            return _from_json_text(text)
        return pl_const(parse_q01(text))


PL_CARRIER = PLCarrier()

# The derived pointwise operations are the carrier's inherited connectives.
pl_odot = PL_CARRIER.odot
pl_ominus = PL_CARRIER.ominus
pl_dist = PL_CARRIER.dist
pl_join = PL_CARRIER.join
pl_meet = PL_CARRIER.meet
pl_nfold = PL_CARRIER.nfold
