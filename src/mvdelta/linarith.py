"""Exact linear arithmetic on integer rows.

A constraint over named variables ``v_1 < ... < v_n`` (sorted by name)
is a row of ints ``(a_1, ..., a_n, c)`` and a strictness: it reads
``a_1 v_1 + ... + a_n v_n + c >= 0``, or ``> 0`` when strict.  Each
row is divided by the gcd of its entries when it is created, so equal
half-spaces are equal (and equally hashed) values, and ``complement``
gives the exact complement.  ``over_box`` is the one box test, shared
with the decider.

``feasible`` decides a system within the box 0 <= v <= 1: it puts the
box rows before the given ones, which keeps every variable bounded on
both sides and makes the cheap redundancy checks below sound:

* a constraint that holds on the whole box is dropped (the box rows
  themselves are exempt, since they carry the box);
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
    "feasible",
]

# Safety valve: Fourier-Motzkin is worst-case exponential in the number
# of eliminated variables.  Systems growing past this many constraints
# abort with BudgetExceeded rather than grind on.
CONSTRAINT_CAP = 200_000

_NEGATIVE = (0).__gt__


class BudgetExceeded(Exception):
    """A system that grew past ``CONSTRAINT_CAP``, or pieces past their budget."""


def box_range(row) -> tuple[int, int]:
    """The least and the greatest value of a row's form on the box."""
    coeffs = row[:-1]
    lo = row[-1] + sum(filter(_NEGATIVE, coeffs))
    return lo, lo + sum(map(abs, coeffs))


class Constraint(namedtuple("Constraint", "row strict")):
    """``row . (v, 1) >= 0``, or ``> 0`` when strict; the row is divided
    by the gcd of its entries on creation, and nowhere else."""

    __slots__ = ()

    def __new__(cls, row, strict: bool):
        row = tuple(row)
        g = math.gcd(*row)
        if g > 1:
            row = tuple(a // g for a in row)
        return tuple.__new__(cls, (row, strict))

    def complement(self) -> "Constraint":
        """The constraint that holds exactly where this one fails."""
        # Negation keeps the row divided by its gcd.
        return tuple.__new__(Constraint, (tuple(map(neg, self.row)), not self.strict))

    def over_box(self) -> bool | None:
        """True if this holds on the whole box 0 <= v <= 1, False if it
        fails on all of it, None if it splits the box."""
        lo, hi = box_range(self.row)
        if hi < 0 or (hi == 0 and self.strict):
            return False
        if lo > 0 or (lo == 0 and not self.strict):
            return True
        return None


class _Infeasible(Exception):
    pass


def _prune(constraints) -> list:
    """Drop redundant constraints; raise _Infeasible on a ground or box conflict.

    Keeps per direction the first of the tightest constraints, in the
    position of the first met.
    """
    best: dict = {}
    for c in constraints:
        row, strict = c
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
        here, there = row[-1] * kept_g, kept.row[-1] * g
        if here < there or (here == there and strict and not kept.strict):
            best[direction] = (c, g)
    return [c for c, _ in best.values()]


def _eliminate(constraints, k: int) -> list:
    """Fourier-Motzkin on column k: each lower bound combined with each
    upper one as ``-b * row_l + a * row_u``."""
    lowers, uppers, rest = [], [], []
    for c in constraints:
        a = c.row[k]
        if a > 0:
            lowers.append(c)
        elif a < 0:
            uppers.append(c)
        else:
            rest.append(c)
    combined = rest
    for row_l, strict_l in lowers:
        a = row_l[k]
        for row_u, strict_u in uppers:
            row = map(add, map((-row_u[k]).__mul__, row_l), map(a.__mul__, row_u))
            combined.append(Constraint(row, strict_l or strict_u))
            if len(combined) > CONSTRAINT_CAP:
                raise BudgetExceeded(
                    f"Fourier-Motzkin grew past {CONSTRAINT_CAP} constraints"
                )
    return combined


def feasible(constraints, names) -> dict[str, Fraction] | None:
    """Exact feasibility within the box 0 <= v <= 1; returns a witness
    point or None.

    The rows are over ``names``, sorted.  The box rows come first: v >= 0,
    then 1 - v >= 0, for each variable in order.
    """
    n = len(names)
    zero = (0,) * n
    box = [Constraint((*zero[:i], a, *zero[i + 1 :], c), False)
           for i in range(n) for a, c in ((1, 0), (-1, 1))]
    try:
        current = _prune([*box, *constraints])
        stages = []
        for k in range(n):
            stages.append(current)
            current = _prune(_eliminate(current, k))
    except _Infeasible:
        return None
    # All variables eliminated; _prune already validated the ground facts.
    # Each stage k holds the box rows of v_k, or tighter ones, so its
    # interval starts as [0, 1].
    values: list = [None] * n
    point: dict[str, Fraction] = {}
    for k in reversed(range(n)):
        lo, hi, lo_strict, hi_strict = Fraction(0), Fraction(1), False, False
        for row, strict in stages[k]:
            a = row[k]
            if a == 0:
                continue
            residue = row[-1] + sum(map(mul, row[k + 1 : n], values[k + 1 :]))
            bound = Fraction(-residue) / a
            if a > 0:
                if bound > lo or (bound == lo and strict):
                    lo, lo_strict = bound, strict or (bound == lo and lo_strict)
            elif bound < hi or (bound == hi and strict):
                hi, hi_strict = bound, strict or (bound == hi and hi_strict)
        if lo < hi:
            values[k] = (lo + hi) / 2
        elif lo == hi and not (lo_strict or hi_strict):
            values[k] = lo
        else:
            raise AssertionError("empty interval after feasible elimination")
        point[names[k]] = values[k]
    return point
