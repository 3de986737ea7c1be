"""Complete decision procedure for MV/finite-delta equations and inequalities.

A term over the core connectives denotes a piecewise-linear function on
the unit cube: truncated addition splits into the two affine regimes
``x + y < 1`` and ``x + y >= 1``, negation maps a piece affinely, and
an eventually-constant delta is a single affine combination (its value
never reaches the truncation threshold).  ``compile_term`` produces the
resulting guarded pieces; validity of ``lhs <= rhs`` on the cube then
reduces to infeasibility of ``guard_l and guard_r and (lhs - rhs > 0)``
for every pair of pieces, which Fourier-Motzkin decides exactly.

The regimes are half-open, so the pieces of a term partition the box:
every point lies in exactly one piece, whose form is the term's value
there.  A regime whose strict interior misses the box is at most a face
of it; on that face both regimes have the same value, so the split is
not made and the other piece keeps the whole box.  Pieces (and pairs of
pieces) whose guard holds a constraint together with its complement,
``f > 0`` with ``-f >= 0``, are dropped without any arithmetic: this
happens when ``expand`` copies a shared subterm and so reaches one split
twice.  Every dropped piece is empty, so the pieces still cover the box
and ``Valid`` stays complete; every witness satisfies its pair's guards,
so every ``Counterexample`` replays.

Validity on the cube settles validity in every MV-algebra (the unit
interval generates the variety), and for the implemented
eventually-constant delta fragment the same compilation covers the
delta laws.

Equations are decided as two inequality checks.  Verdicts are exact:
``Valid``, a replayable rational ``Counterexample``, or
``LimitExceeded`` when the piece bookkeeping outgrows the configured
budget (never a wrong answer).
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from . import linarith, terms
from .carriers import Q01_CARRIER
from .linarith import AffineForm, BudgetExceeded, Constraint
from .rationals import Q01
from .terms import Const, Delta, EvSeq, Neg, Oplus, Term, Var

__all__ = [
    "Guard",
    "Piece",
    "Valid",
    "Counterexample",
    "LimitExceeded",
    "BudgetReport",
    "DEFAULT_PIECE_BUDGET",
    "compile_term",
    "decide_eq",
    "decide_leq",
    "decide",
    "sample_falsify",
]

DEFAULT_PIECE_BUDGET = 65536

_ONE = AffineForm.const(1)


@dataclass(frozen=True)
class Guard:
    """Conjunction of affine constraints; always includes the box 0 <= v <= 1
    for every variable of the compiled term."""

    constraints: tuple[Constraint, ...]


@dataclass(frozen=True)
class Piece:
    guard: Guard
    form: AffineForm


@dataclass(frozen=True)
class Valid:
    pass


@dataclass(frozen=True)
class Counterexample:
    assignment: dict[str, Q01]
    lhs_value: Q01
    rhs_value: Q01


@dataclass(frozen=True)
class BudgetReport:
    budget: int
    detail: str


@dataclass(frozen=True)
class LimitExceeded:
    report: BudgetReport


Verdict = Valid | Counterexample | LimitExceeded


class _PieceBudget(Exception):
    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


def _feasible_over_box(constraints: Iterable[Constraint]) -> bool:
    """Cheap local filter: drop a piece whose guard already fails over the box."""
    for c in constraints:
        hi = c.form.constant + sum(max(v, 0) for _, v in c.form.coeffs)
        if hi < 0 or (hi == 0 and c.strict):
            return False
    return True


def _trivial_over_box(c: Constraint) -> bool:
    lo = c.form.constant + sum(min(v, 0) for _, v in c.form.coeffs)
    return lo > 0 or (lo == 0 and not c.strict)


def _complement(c: Constraint) -> Constraint:
    """The constraint that holds exactly where c fails."""
    return Constraint(c.form.scale(-1), not c.strict)


def _combine(
    g1: tuple[Constraint, ...], g2: tuple[Constraint, ...], extra: Constraint | None
) -> tuple[Constraint, ...] | None:
    """Conjunction of two guards and an optional extra constraint, or None
    when it is plainly empty: a constraint fails over the whole box, or
    the guard holds a constraint together with its complement (one split
    reached twice through a copied subterm)."""
    seen = set(g1)
    added = []
    for c in g2:
        if c not in seen:
            added.append(c)
            seen.add(c)
    if extra is not None and extra not in seen and not _trivial_over_box(extra):
        added.append(extra)
        seen.add(extra)
    # Each input guard already passed these checks; only the added
    # constraints can clash.
    if any(_complement(c) in seen for c in added) or not _feasible_over_box(added):
        return None
    return g1 + tuple(added)


def _pieces(t: Term, budget: int) -> list[tuple[tuple[Constraint, ...], AffineForm]]:
    match t:
        case Var(name):
            return [((), AffineForm.variable(name))]
        case Const(value):
            return [((), AffineForm.const(value))]
        case Neg(arg):
            return [(g, a.negate_about_one()) for g, a in _pieces(arg, budget)]
        case Oplus(left, right):
            lp = _pieces(left, budget)
            rp = _pieces(right, budget)
            out = []
            for gl, al in lp:
                for gr, ar in rp:
                    total = al.add(ar)
                    excess = total.sub(_ONE)
                    if _feasible_over_box((Constraint(excess, strict=True),)):
                        regimes = (
                            (Constraint(excess.scale(-1), strict=True), total),
                            (Constraint(excess), _ONE),
                        )
                    else:
                        # total <= 1 on the whole box: the above regime is at
                        # most a face, where it agrees with the below one.
                        regimes = ((None, total),)
                    for extra, form in regimes:
                        guard = _combine(gl, gr, extra)
                        if guard is not None:
                            out.append((guard, form))
                    if len(out) > budget:
                        raise _PieceBudget(f"term compiles to more than {budget} pieces")
            return out
        case Delta(EvSeq(prefix, tail)):
            parts = [_pieces(p, budget) for p in prefix] + [_pieces(tail, budget)]
            k = len(prefix)
            weights = [Fraction(1, 2**i) for i in range(1, k + 1)]
            weights.append(Fraction(1, 2**k))
            out = [((), AffineForm.const(0))]
            for part, w in zip(parts, weights):
                grown = []
                for g_acc, a_acc in out:
                    for g, a in part:
                        merged = _combine(g_acc, g, None)
                        if merged is not None:
                            grown.append((merged, a_acc.add(a.scale(w))))
                        if len(grown) > budget:
                            raise _PieceBudget(
                                f"term compiles to more than {budget} pieces"
                            )
                out = grown
            return out
    raise TypeError(f"term not in core form (call expand first): {t!r}")


def compile_term(t: Term, budget: int = DEFAULT_PIECE_BUDGET) -> list[Piece]:
    """Compile an expanded term into guarded affine pieces partitioning the box.

    Each ``oplus`` splits a piece into the half-open regimes
    ``1 - total > 0`` (value ``total``) and ``total - 1 >= 0`` (value 1).
    When one regime's strict interior misses the box, only the other
    piece is kept, with no new constraint: the dropped regime is at most
    a face, where the two values agree.  A piece whose guard fails a
    constraint over the whole box, or holds a constraint together with
    its complement, is empty and is dropped.

    Raises linarith.BudgetExceeded when the piece count passes the budget.
    """
    box = tuple(linarith.box_constraints(terms.free_vars(t)))
    try:
        raw = _pieces(t, budget)
    except _PieceBudget as exc:
        raise BudgetExceeded(exc.detail) from None
    return [Piece(Guard(box + g), a) for g, a in raw]


def _decide_leq_pieces(
    lhs: Term,
    rhs: Term,
    eq_lhs: Term,
    eq_rhs: Term,
    budget: int,
) -> Verdict:
    variables = sorted(terms.free_vars(lhs) | terms.free_vars(rhs))
    box = linarith.box_constraints(variables)
    try:
        lhs_pieces = _pieces(lhs, budget)
        rhs_pieces = _pieces(rhs, budget)
    except _PieceBudget as exc:
        return LimitExceeded(BudgetReport(budget, exc.detail))
    pairs = len(lhs_pieces) * len(rhs_pieces)
    if pairs > budget:
        return LimitExceeded(
            BudgetReport(budget, f"{pairs} piece pairs exceed the budget")
        )
    for gl, al in lhs_pieces:
        for gr, ar in rhs_pieces:
            guard = _combine(gl, gr, None)
            if guard is None:
                continue
            system = [*box, *guard, Constraint(al.sub(ar), strict=True)]
            try:
                witness = linarith.feasible(system)
            except BudgetExceeded as exc:
                return LimitExceeded(BudgetReport(budget, str(exc)))
            if witness is not None:
                assignment = {v: Q01(witness.get(v, Fraction(0))) for v in variables}
                return _counterexample(eq_lhs, eq_rhs, assignment)
    return Valid()


def _counterexample(eq_lhs: Term, eq_rhs: Term, assignment: dict[str, Q01]) -> Counterexample:
    lhs_value = terms.evaluate_core(eq_lhs, assignment, Q01_CARRIER)
    rhs_value = terms.evaluate_core(eq_rhs, assignment, Q01_CARRIER)
    return Counterexample(assignment, lhs_value, rhs_value)


def decide_leq(lhs: Term, rhs: Term, budget: int = DEFAULT_PIECE_BUDGET) -> Verdict:
    """Valid iff lhs <= rhs identically on the unit cube."""
    le, re_ = terms.expand(lhs), terms.expand(rhs)
    verdict = _decide_leq_pieces(le, re_, le, re_, budget)
    if isinstance(verdict, Counterexample):
        assert not verdict.lhs_value <= verdict.rhs_value
    return verdict


def decide_eq(lhs: Term, rhs: Term, budget: int = DEFAULT_PIECE_BUDGET) -> Verdict:
    """Valid iff lhs = rhs identically on the unit cube; decided as two <= checks."""
    le, re_ = terms.expand(lhs), terms.expand(rhs)
    first = _decide_leq_pieces(le, re_, le, re_, budget)
    if not isinstance(first, Valid):
        if isinstance(first, Counterexample):
            assert first.lhs_value != first.rhs_value
        return first
    second = _decide_leq_pieces(re_, le, le, re_, budget)
    if isinstance(second, Counterexample):
        assert second.lhs_value != second.rhs_value
    return second


def decide(lhs: Term, rhs: Term, relation: str, budget: int = DEFAULT_PIECE_BUDGET) -> Verdict:
    if relation == "eq":
        return decide_eq(lhs, rhs, budget)
    if relation == "leq":
        return decide_leq(lhs, rhs, budget)
    raise ValueError(f"unknown relation {relation!r}")


def sample_falsify(
    lhs: Term,
    rhs: Term,
    relation: str = "eq",
    trials: int = 1000,
    seed: int = 0,
    depth: int = 8,
) -> Counterexample | None:
    """Seeded search for a violation at uniform dyadic rational points.

    Returns the first failing assignment (deterministic for a given
    seed) or None.  This is an evaluation oracle, independent of the
    piecewise compilation used by decide_eq/decide_leq.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if relation not in ("eq", "leq"):
        raise ValueError(f"unknown relation {relation!r}")
    le, re_ = terms.expand(lhs), terms.expand(rhs)
    variables = sorted(terms.free_vars(le) | terms.free_vars(re_))
    rng = random.Random(seed)
    grid = 2**depth
    for _ in range(trials):
        assignment = {v: Q01(rng.randint(0, grid), grid) for v in variables}
        lv = terms.evaluate_core(le, assignment, Q01_CARRIER)
        rv = terms.evaluate_core(re_, assignment, Q01_CARRIER)
        bad = (lv != rv) if relation == "eq" else (not lv <= rv)
        if bad:
            return Counterexample(assignment, lv, rv)
    return None
