"""Exact linear arithmetic over the rationals.

Affine forms over named variables, constraints of the shape
``form >= 0`` / ``form > 0``, and Fourier-Motzkin elimination with
witness extraction by midpoint back-substitution.

A constraint scales its form on creation by a positive rational so the
variable coefficients are coprime integers: equal half-spaces are equal
(and equally hashed) values, and ``complement`` gives the exact
complement.  ``over_box`` is the one box test, shared with the decider.

All systems handled here include the box constraints 0 <= v <= 1 for
every variable, which keeps every variable bounded on both sides and
makes the cheap redundancy checks below sound:

* a constraint that holds on the whole box is dropped (the box
  constraints themselves are exempt, since they carry the box);
* a constraint that fails on the whole box, ground ones included, makes
  the system infeasible immediately;
* constraints sharing a linear part are collapsed to the tightest one.

Variables are eliminated in lexicographic order and the witness is
rebuilt in reverse, picking the midpoint of the remaining interval at
each stage, so identical systems always produce identical witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "AffineForm",
    "Constraint",
    "BudgetExceeded",
    "box_constraints",
    "feasible",
]

# Safety valve: Fourier-Motzkin is worst-case exponential in the number
# of eliminated variables.  Systems growing past this many constraints
# abort with BudgetExceeded rather than grind on.
CONSTRAINT_CAP = 200_000


class BudgetExceeded(Exception):
    def __init__(self, message: str):
        super().__init__(message)


@dataclass(frozen=True)
class AffineForm:
    """Linear form sum(coeffs[v] * v) + constant; absent variable = zero coefficient."""

    coeffs: tuple[tuple[str, Fraction], ...]  # sorted by variable, no zeros
    constant: Fraction

    @staticmethod
    def make(coeffs: dict[str, Fraction], constant) -> "AffineForm":
        items = tuple(sorted((v, Fraction(c)) for v, c in coeffs.items() if c != 0))
        return AffineForm(items, Fraction(constant))

    @staticmethod
    def variable(name: str) -> "AffineForm":
        return AffineForm(((name, Fraction(1)),), Fraction(0))

    @staticmethod
    def const(value) -> "AffineForm":
        return AffineForm((), Fraction(value))

    def coeff(self, var: str) -> Fraction:
        for v, c in self.coeffs:
            if v == var:
                return c
        return Fraction(0)

    def vars(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.coeffs)

    def add(self, other: "AffineForm") -> "AffineForm":
        out = dict(self.coeffs)
        for v, c in other.coeffs:
            out[v] = out.get(v, Fraction(0)) + c
        return AffineForm.make(out, self.constant + other.constant)

    def sub(self, other: "AffineForm") -> "AffineForm":
        return self.add(other.scale(Fraction(-1)))

    def scale(self, factor: Fraction) -> "AffineForm":
        factor = Fraction(factor)
        if factor == 0:
            return AffineForm((), Fraction(0))
        return AffineForm(
            tuple((v, c * factor) for v, c in self.coeffs), self.constant * factor
        )

    def negate_about_one(self) -> "AffineForm":
        """1 - self, the image of a form under the MV involution."""
        return AffineForm.const(1).sub(self)

    def eval(self, point: dict[str, Fraction]) -> Fraction:
        total = self.constant
        for v, c in self.coeffs:
            total += c * point[v]
        return total


@dataclass(frozen=True)
class Constraint:
    """form >= 0 (strict=False) or form > 0 (strict=True), the form scaled
    to coprime integer coefficients; ground forms are kept as given."""

    form: AffineForm
    strict: bool = False

    def __post_init__(self):
        coeffs = [c for _, c in self.form.coeffs]
        if coeffs:
            lcm = math.lcm(*(c.denominator for c in coeffs))
            gcd = math.gcd(*(c.numerator for c in coeffs))
            if lcm != gcd:
                object.__setattr__(self, "form", self.form.scale(Fraction(lcm, gcd)))
        # Guards are merged through sets, so the hash is computed once.
        object.__setattr__(self, "_hash", hash((self.form, self.strict)))

    def __hash__(self) -> int:
        return self._hash

    def complement(self) -> "Constraint":
        """The constraint that holds exactly where this one fails."""
        return Constraint(self.form.scale(-1), not self.strict)

    def over_box(self) -> bool | None:
        """True if this holds on the whole box 0 <= v <= 1, False if it
        fails on all of it, None if it splits the box."""
        lo = hi = self.form.constant
        for _, c in self.form.coeffs:
            if c < 0:
                lo += c
            else:
                hi += c
        if hi < 0 or (hi == 0 and self.strict):
            return False
        if lo > 0 or (lo == 0 and not self.strict):
            return True
        return None


def box_constraints(variables) -> list[Constraint]:
    """0 <= v <= 1 for each variable."""
    out = []
    for v in sorted(variables):
        out.append(Constraint(AffineForm.variable(v)))
        out.append(Constraint(AffineForm.variable(v).negate_about_one()))
    return out


def _is_box(c: Constraint) -> bool:
    if c.strict or len(c.form.coeffs) != 1:
        return False
    (_, coeff), const = c.form.coeffs[0], c.form.constant
    return (coeff == 1 and const == 0) or (coeff == -1 and const == 1)


class _Infeasible(Exception):
    pass


def _prune(constraints) -> list[Constraint]:
    """Drop redundant constraints; raise _Infeasible on a ground or box conflict."""
    best: dict = {}
    for c in constraints:
        if not _is_box(c):
            holds = c.over_box()
            if holds is False:
                raise _Infeasible
            if holds:
                continue
        prev = best.get(c.form.coeffs)
        if prev is None or c.form.constant < prev.form.constant or (
            c.form.constant == prev.form.constant and c.strict and not prev.strict
        ):
            best[c.form.coeffs] = c
    return list(best.values())


def _eliminate(constraints: list[Constraint], var: str) -> list[Constraint]:
    lowers, uppers, rest = [], [], []
    for c in constraints:
        a = c.form.coeff(var)
        if a > 0:
            lowers.append((a, c))
        elif a < 0:
            uppers.append((a, c))
        else:
            rest.append(c)
    combined = rest
    for a, cl in lowers:
        for b, cu in uppers:
            form = cl.form.scale(-b).add(cu.form.scale(a))
            combined.append(Constraint(form, cl.strict or cu.strict))
            if len(combined) > CONSTRAINT_CAP:
                raise BudgetExceeded(
                    f"Fourier-Motzkin grew past {CONSTRAINT_CAP} constraints"
                )
    return combined


def feasible(constraints) -> dict[str, Fraction] | None:
    """Exact feasibility over the rationals; returns a witness point or None.

    The input must bound every variable both ways (the callers always
    include box constraints), so back-substitution never meets an
    unbounded stage.
    """
    variables = sorted({v for c in constraints for v in c.form.vars()})
    try:
        current = _prune(constraints)
    except _Infeasible:
        return None
    stages: list[tuple[str, list[Constraint]]] = []
    for var in variables:
        stages.append((var, current))
        try:
            current = _prune(_eliminate(current, var))
        except _Infeasible:
            return None
    # All variables eliminated; _prune already validated the ground facts.
    point: dict[str, Fraction] = {}
    for var, system in reversed(stages):
        lo = hi = None
        lo_strict = hi_strict = False
        for c in system:
            a = c.form.coeff(var)
            if a == 0:
                continue
            residue = c.form.constant
            for v, coeff in c.form.coeffs:
                if v != var:
                    residue += coeff * point[v]
            bound = -residue / a
            if a > 0:
                if lo is None or bound > lo or (bound == lo and c.strict):
                    lo, lo_strict = bound, c.strict or (bound == lo and lo_strict)
            else:
                if hi is None or bound < hi or (bound == hi and c.strict):
                    hi, hi_strict = bound, c.strict or (bound == hi and hi_strict)
        if lo is None or hi is None:
            raise AssertionError(f"variable {var} is unbounded; box constraints missing")
        if lo == hi:
            if lo_strict or hi_strict:
                raise AssertionError("empty interval after feasible elimination")
            point[var] = lo
        elif lo < hi:
            point[var] = (lo + hi) / 2
        else:
            raise AssertionError("inverted interval after feasible elimination")
    return point
