"""Exact continuous piecewise-linear functions [0,1] -> [0,1].

These functions, with rational breakpoints and pointwise MV operations,
form the desk-scale function carrier: a dense delta-subalgebra of the
continuous functions on [0,1].  Every operation is exact; truncations
insert the crossing points they create.

A function is one positive integer ``den`` and two integer tuples ``xs``
and ``ys``, breakpoint i being ``(xs[i]/den, ys[i]/den)``: canonical (no
collinear interior point) and reduced by ``gcd(den, *xs, *ys)``, so
structural equality is function equality.  An operation merges its
operands' integer breakpoints in one sweep, keeps a divisor per
interpolated value or inserted crossing, and takes one lcm at the end;
its result is not validated again.  ``Fraction`` appears only at the
boundary: ``PLFunc(points)`` (validated), JSON, ``points``, ``eval_at``,
``max_value``, ``uniform_dist`` and printing.

The file format for a function is a JSON array of ``[x, y]`` rational
string pairs, e.g. ``[["0","0"],["1/2","1"],["1","1"]]``.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .carriers import MAX_NESTING, Carrier, _nesting_depth
from .rationals import _RAT_RE, Q01, parse_q01

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


class PLFunc:
    """Immutable piecewise-linear function: canonical breakpoints
    ``(xs[i]/den, ys[i]/den)`` in lowest common terms."""

    __slots__ = ("den", "xs", "ys")

    def __init__(self, points):
        pts = [(Fraction(x), Fraction(y)) for x, y in points]
        _validate(pts)
        den = math.lcm(*(c.denominator for p in pts for c in p))
        f = _reduce(den, [int(x * den) for x, _ in pts], [int(y * den) for _, y in pts])
        self.den, self.xs, self.ys = f.den, f.xs, f.ys

    @property
    def points(self) -> tuple[Point, ...]:
        den = self.den
        return tuple((Fraction(x, den), Fraction(y, den)) for x, y in zip(self.xs, self.ys))

    def __eq__(self, other):
        return isinstance(other, PLFunc) and (self.den, self.xs, self.ys) == (
            other.den, other.xs, other.ys)

    def __hash__(self):
        return hash((self.den, self.xs, self.ys))

    def __repr__(self):
        inner = ", ".join(f"({x}, {y})" for x, y in self.points)
        return f"PLFunc([{inner}])"

    def eval_at(self, x) -> Q01:
        x = Fraction(x)
        if x < 0 or x > 1:
            raise ValueError(f"argument {x} outside [0, 1]")
        xs, ys, t = self.xs, self.ys, x * self.den
        i = bisect_left(xs, t)
        if xs[i] == t:
            return Q01(ys[i], self.den)
        x0, x1 = xs[i - 1], xs[i]
        return Q01((ys[i - 1] * (x1 - t) + ys[i] * (t - x0)) / ((x1 - x0) * self.den))

    def max_value(self) -> Q01:
        return Q01(max(self.ys), self.den)

    def is_zero(self) -> bool:
        return not any(self.ys)


@dataclass(frozen=True)
class FnSeq:
    """Eventually constant function sequence (prefix_1..prefix_k, tail, tail, ...)."""

    prefix: tuple[PLFunc, ...]
    tail: PLFunc


# --- integer breakpoint helpers -----------------------------------------------


def _make(den: int, xs: tuple, ys: tuple) -> PLFunc:
    """A PLFunc from integers already canonical and reduced; no validation."""
    f = object.__new__(PLFunc)
    f.den, f.xs, f.ys = den, xs, ys
    return f


def _reduce(den: int, xs, ys) -> PLFunc:
    """Drop collinear interior points, then divide out gcd(den, *xs, *ys)."""
    ox, oy = [xs[0]], [ys[0]]
    for x, y in zip(xs[1:], ys[1:]):
        if len(ox) >= 2 and (oy[-1] - oy[-2]) * (x - ox[-1]) == (y - oy[-1]) * (ox[-1] - ox[-2]):
            ox[-1], oy[-1] = x, y
        else:
            ox.append(x)
            oy.append(y)
    g = math.gcd(den, *ox, *oy)
    if g > 1:
        return _make(den // g, tuple(x // g for x in ox), tuple(y // g for y in oy))
    return _make(den, tuple(ox), tuple(oy))


def _finish(points) -> PLFunc:
    """The function through (X/q, Y/q) points: one lcm, then _reduce."""
    den = math.lcm(*(q for _, _, q in points))
    return _reduce(den, [x * (den // q) for x, _, q in points], [y * (den // q) for _, y, q in points])


def _sweep(fns, weights):
    """sum(w_i * f_i) at the merged breakpoints: L, the merged xs over L and,
    for each, the value ``nums[p] / (divs[p] * L)``.  One pointer per
    function; a function is interpolated between its own breakpoints."""
    L = math.lcm(*(f.den for f in fns))
    scaled = []
    for f in fns:
        s = L // f.den
        scaled.append((f.xs, f.ys) if s == 1 else ([x * s for x in f.xs], [y * s for y in f.ys]))
    grid = sorted(set().union(*(xs for xs, _ in scaled)))
    nums, divs = [0] * len(grid), [1] * len(grid)
    for (xs, ys), w in zip(scaled, weights):
        j = 0
        for p, x in enumerate(grid):
            if x == xs[j]:
                nums[p] += w * ys[j] * divs[p]
                j += 1
            else:
                x0, x1 = xs[j - 1], xs[j]
                nums[p] = nums[p] * (x1 - x0) + w * (ys[j - 1] * (x1 - x) + ys[j] * (x - x0)) * divs[p]
                divs[p] *= x1 - x0
    return L, grid, nums, divs


def _clip(points) -> list:
    """(X/q, Y/q) points truncated at 1, with the crossings inserted."""
    out = [(x, min(y, q), q) for x, y, q in points[:1]]
    for (x0, y0, q0), (x1, y1, q1) in zip(points, points[1:]):
        if (y0 - q0) * (y1 - q1) < 0:
            dy = y1 * q0 - y0 * q1
            x, q = x0 * dy + (q0 - y0) * (x1 * q0 - x0 * q1), q0 * dy
            out.append((-x, -q, -q) if q < 0 else (x, q, q))
        out.append((x1, min(y1, q1), q1))
    return out


def pl_const(value) -> PLFunc:
    v = Fraction(value)
    if v < 0 or v > 1:
        raise PLFormatError(0, f"value {v} outside [0, 1]")
    return _make(v.denominator, (0, v.denominator), (v.numerator, v.numerator))


def pl_identity() -> PLFunc:
    return _make(1, (0, 1), (0, 1))


def pl_tent() -> PLFunc:
    return _make(2, (0, 1, 2), (0, 2, 0))


# --- pointwise MV operations -------------------------------------------------


def pl_neg(f: PLFunc) -> PLFunc:
    den = f.den
    return _make(den, f.xs, tuple(den - y for y in f.ys))


def pl_oplus(f: PLFunc, g: PLFunc) -> PLFunc:
    L, grid, nums, divs = _sweep((f, g), (1, 1))
    return _finish(_clip([(x * d, y, d * L) for x, y, d in zip(grid, nums, divs)]))


def pl_delta(prefix, tail: PLFunc) -> PLFunc:
    """Exact sum(prefix_i / 2^i) + tail / 2^k; never reaches the threshold."""
    k = len(prefix)
    weights = [1 << (k - i) for i in range(1, k + 1)] + [1]
    L, grid, nums, divs = _sweep((*prefix, tail), weights)
    points = []
    for x, y, d in zip(grid, nums, divs):
        q = (d * L) << k
        if y < 0 or y > q:
            raise AssertionError("delta combination left the unit interval")
        points.append((x * d << k, y, q))
    return _finish(points)


def pl_scale(r: Q01, f: PLFunc) -> PLFunc:
    """Exact pointwise r*f for a scalar r in [0, 1]."""
    p, q = Q01(r).as_integer_ratio()
    return _reduce(q * f.den, [x * q for x in f.xs], [y * p for y in f.ys])


def pl_precompose(f: PLFunc, phi: PLFunc) -> PLFunc:
    """Exact composition f(phi(x)).

    Each affine segment of phi is monotone, so refining the domain at
    the preimages of f's breakpoints makes the composition affine piece
    by piece.
    """
    L = math.lcm(f.den, phi.den)
    s, t = L // f.den, L // phi.den
    fx, fy = [x * s for x in f.xs], [y * s for y in f.ys]
    px, py = [x * t for x in phi.xs], [y * t for y in phi.ys]
    points = []
    for j, (u, a) in enumerate(zip(px, py)):
        i = bisect_left(fx, a)
        if fx[i] == a:
            points.append((u, fy[i], L))
        else:
            x0, x1 = fx[i - 1], fx[i]
            points.append((u * (x1 - x0), fy[i - 1] * (x1 - a) + fy[i] * (a - x0), (x1 - x0) * L))
        if j + 1 == len(px) or a == py[j + 1]:
            continue
        v, b = px[j + 1], py[j + 1]
        inside = range(bisect_right(fx, min(a, b)), bisect_left(fx, max(a, b)))
        for c in inside if a < b else reversed(inside):
            # The preimage of fx[c] on this segment, with the value fy[c].
            x, e = u * (b - a) + (fx[c] - a) * (v - u), b - a
            if e < 0:
                x, e = -x, -e
            points.append((x, fy[c] * e, e * L))
    return _finish(points)


def uniform_dist(f: PLFunc, g: PLFunc) -> Q01:
    """Exact sup |f - g|; attained at a common-refinement breakpoint."""
    L, _, nums, divs = _sweep((f, g), (1, -1))
    best, div = 0, 1
    for n, d in zip(nums, divs):
        if abs(n) * div > best * d:
            best, div = abs(n), d
    return Q01(best, div * L)


def pl_leq(f: PLFunc, g: PLFunc) -> bool:
    """Pointwise order; decided at the common-refinement breakpoints."""
    return all(n >= 0 for n in _sweep((g, f), (1, -1))[2])


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
        # (target - s) v 0 is neg((neg(target) + s) ^ 1), s = 3 den / q.
        q = target.den << (i + 2)
        raised = [(x << (i + 2), q - (y << (i + 2)) + 3 * target.den, q)
                  for x, y in zip(target.xs, target.ys)]
        out.append(_finish([(x, q - y, q) for x, y, q in _clip(raised)]))
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
        scaled = [y << i for y in step.ys]
        if max(scaled) > step.den:
            raise IsbellHypothesisError(
                i, Fraction(max(scaled), step.den), "scaled increment left [0, 1]"
            )
        increments.append(_reduce(step.den, step.xs, scaled))
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
    n = -(-f.den // max(f.ys)) + 1
    if pl_leq(pl_nfold(n, f), pl_neg(f)):
        raise AssertionError("archimedean certificate failed verification")
    return n


# --- JSON breakpoint format ---------------------------------------------------


def to_json(f: PLFunc) -> list[list[str]]:
    return [[str(x), str(y)] for x, y in f.points]


def _parse_breakpoint_rational(text, index: int) -> Fraction:
    """A ``p/q`` literal of :mod:`rationals`, optionally negated so that an
    out-of-range value is reported as such by ``_validate``."""
    if not isinstance(text, str):
        raise PLFormatError(index, f"coordinates must be rational strings, got {text!r}")
    negative = text.startswith("-")
    m = _RAT_RE.match(text[negative:])
    try:
        if m:
            value = Fraction(int(m.group(1)), int(m.group(2) or 1))
            return -value if negative else value
    except (ValueError, ZeroDivisionError):
        pass
    raise PLFormatError(index, f"malformed rational {text!r}")


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
    xs = [0, *interior, grid]
    return _reduce(grid, xs, [rng.randint(0, grid) for _ in xs])


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
