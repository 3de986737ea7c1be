"""Exact linear arithmetic on integer rows.

A constraint over named variables ``v_1 < ... < v_n`` (sorted by name)
is a row of ints ``(a_1, ..., a_n, c)`` and a strictness: it reads
``a_1 v_1 + ... + a_n v_n + c >= 0``, or ``> 0`` when strict.  Each
row is divided by the gcd of its entries when it is created, so equal
half-spaces are equal (and equally hashed) values, and ``complement``
gives the exact complement.  ``over_box`` is the one box test, shared
with the decider.

All systems handled here include the box constraints 0 <= v <= 1 for
every variable, which keeps every variable bounded on both sides and
makes the cheap redundancy checks below sound:

* a constraint that holds on the whole box is dropped (the box
  constraints themselves are exempt, since they carry the box);
* a constraint that fails on the whole box, ground ones included, makes
  the system infeasible immediately;
* constraints sharing a direction are collapsed to the tightest one,
  comparing constants by cross-multiplication.

Variables are eliminated in name order by integer row combinations, and
the witness is rebuilt in reverse, picking the midpoint of the remaining
interval at each stage, so identical systems always produce identical
witnesses.  Only that back-substitution uses ``Fraction``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import add, mul, neg

__all__ = [
    "Constraint",
    "BudgetExceeded",
    "box_constraints",
    "feasible",
]

# Safety valve: Fourier-Motzkin is worst-case exponential in the number
# of eliminated variables.  Systems growing past this many constraints
# abort with BudgetExceeded rather than grind on.
CONSTRAINT_CAP = 200_000

_NEGATIVE = (0).__gt__


class BudgetExceeded(Exception):
    def __init__(self, message: str):
        super().__init__(message)


def box_range(row) -> tuple[int, int]:
    """The least and the greatest value of a row's form on the box."""
    coeffs = row[:-1]
    lo = row[-1] + sum(filter(_NEGATIVE, coeffs))
    return lo, lo + sum(map(abs, coeffs))


class Constraint(namedtuple("Constraint", "row strict names")):
    """``row . (v, 1) >= 0``, or ``> 0`` when strict, over ``names``; the
    row is divided by the gcd of its entries on creation."""

    __slots__ = ()

    def __new__(cls, row, strict: bool, names: tuple[str, ...]):
        row = tuple(row)
        g = math.gcd(*row)
        if g > 1:
            row = tuple(a // g for a in row)
        return tuple.__new__(cls, (row, strict, names))

    def complement(self) -> "Constraint":
        """The constraint that holds exactly where this one fails."""
        # Negation keeps the row divided by its gcd.
        return tuple.__new__(Constraint, (tuple(map(neg, self.row)), not self.strict, self.names))

    def over_box(self) -> bool | None:
        """True if this holds on the whole box 0 <= v <= 1, False if it
        fails on all of it, None if it splits the box."""
        lo, hi = box_range(self.row)
        if hi < 0 or (hi == 0 and self.strict):
            return False
        if lo > 0 or (lo == 0 and not self.strict):
            return True
        return None


def box_constraints(names) -> list[Constraint]:
    """0 <= v <= 1 for each variable, over the sorted names."""
    names = tuple(sorted(names))
    out = []
    for i in range(len(names)):
        unit = [0] * (len(names) + 1)
        unit[i] = 1
        out.append(Constraint(unit, False, names))
        unit[i], unit[-1] = -1, 1
        out.append(Constraint(unit, False, names))
    return out


class _Infeasible(Exception):
    pass


def _prune(constraints) -> list:
    """Drop redundant constraints; raise _Infeasible on a ground or box conflict.

    Works on ``(row, strict, ...)`` tuples with rows divided by their
    gcd, and keeps per direction the first of the tightest ones, in the
    position of the first met.
    """
    best: dict = {}
    for c in constraints:
        row, strict = c[0], c[1]
        lo, hi = box_range(row)
        if hi < 0 or (hi == 0 and strict):
            raise _Infeasible
        # It holds on the whole box.  The box rows, v >= 0 and 1 - v >= 0,
        # are the non-strict ones with lo = 0 and hi = 1; they stay.
        if lo > 0 or (lo == 0 and not strict and hi != 1):
            continue
        # Not ground, so g >= 1; rows of one direction compare their
        # constants scaled to it: c / g < c' / g'.
        coeffs = row[:-1]
        g = math.gcd(*coeffs)
        direction = coeffs if g == 1 else tuple(a // g for a in coeffs)
        prev = best.get(direction)
        if prev is None:
            best[direction] = (c, g)
            continue
        kept, kept_g = prev
        here, there = row[-1] * kept_g, kept[0][-1] * g
        if here < there or (here == there and strict and not kept[1]):
            best[direction] = (c, g)
    return [c for c, _ in best.values()]


def _eliminate(constraints, k: int) -> list:
    """Fourier-Motzkin on column k: each lower bound combined with each
    upper one as ``-b * row_l + a * row_u``, divided by its gcd."""
    lowers, uppers, rest = [], [], []
    for c in constraints:
        a = c[0][k]
        if a > 0:
            lowers.append((c[0], c[1]))
        elif a < 0:
            uppers.append((c[0], c[1]))
        else:
            rest.append(c)
    combined = rest
    for row_l, strict_l in lowers:
        a = row_l[k]
        for row_u, strict_u in uppers:
            row = tuple(map(add, map((-row_u[k]).__mul__, row_l), map(a.__mul__, row_u)))
            g = math.gcd(*row)
            if g > 1:
                row = tuple(x // g for x in row)
            combined.append((row, strict_l or strict_u))
            if len(combined) > CONSTRAINT_CAP:
                raise BudgetExceeded(
                    f"Fourier-Motzkin grew past {CONSTRAINT_CAP} constraints"
                )
    return combined


def feasible(constraints) -> dict[str, Fraction] | None:
    """Exact feasibility over the rationals; returns a witness point or None.

    The constraints share one tuple of names, and must bound every
    variable both ways (the callers always include box constraints), so
    back-substitution never meets an unbounded stage.
    """
    names = constraints[0].names if constraints else ()
    n = len(names)
    try:
        current = _prune(constraints)
        stages = []
        for k in range(n):
            stages.append(current)
            current = _prune(_eliminate(current, k))
    except _Infeasible:
        return None
    # All variables eliminated; _prune already validated the ground facts.
    values: list = [None] * n
    point: dict[str, Fraction] = {}
    for k in reversed(range(n)):
        lo = hi = None
        lo_strict = hi_strict = False
        for row, strict, *_ in stages[k]:
            a = row[k]
            if a == 0:
                continue
            residue = row[-1] + sum(map(mul, row[k + 1 : n], values[k + 1 :]))
            bound = Fraction(-residue) / a
            if a > 0:
                if lo is None or bound > lo or (bound == lo and strict):
                    lo, lo_strict = bound, strict or (bound == lo and lo_strict)
            else:
                if hi is None or bound < hi or (bound == hi and strict):
                    hi, hi_strict = bound, strict or (bound == hi and hi_strict)
        if lo is None or hi is None:
            raise AssertionError(f"variable {names[k]} is unbounded; box constraints missing")
        if lo == hi:
            if lo_strict or hi_strict:
                raise AssertionError("empty interval after feasible elimination")
            values[k] = lo
        elif lo < hi:
            values[k] = (lo + hi) / 2
        else:
            raise AssertionError("inverted interval after feasible elimination")
        point[names[k]] = values[k]
    return point
