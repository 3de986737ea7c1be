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
so every ``Counterexample`` replays.  A pair whose difference
``lhs - rhs`` is a constant <= 0 is skipped before its guards are
merged: ``lhs - rhs > 0`` fails everywhere on it.

Validity on the cube settles validity in every MV-algebra (the unit
interval generates the variety), and for the implemented
eventually-constant delta fragment the same compilation covers the
delta laws.  The counted nodes are compiled without unrolling the term:
``nfold(n, t)`` folds the ``oplus`` split over one compilation of t,
left-nested as in ``oplus(oplus(t, t), t)``, and ``halfn(n, t)`` scales
each form of t by ``2^-n``; the pieces are those of the unrolled term.

Both sides are compiled by ``terms.compile_core`` into one program, and
the pieces are built once per program slot, in program order, so a
subterm shared within or across the sides is compiled once and nothing
recurses.  Equations are decided as two inequality checks over those
piece lists, and a witness is replayed by ``terms.run`` on the same
program.  Verdicts are exact: ``Valid``, a replayable rational
``Counterexample``, or ``LimitExceeded`` when the piece bookkeeping
outgrows the configured budget (never a wrong answer).

``sample_falsify`` is the independent evaluation oracle: seeded dyadic
samples, run on the same program in scaled integers.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from . import linarith, terms
from .carriers import Q01_CARRIER
from .linarith import AffineForm, BudgetExceeded, Constraint
from .rationals import Q01
from .terms import CONST, DELTA, HALFN, NEG, NFOLD, OPLUS, VAR, Term

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


_RawPieces = list[tuple[tuple[Constraint, ...], AffineForm]]


def _oplus_pieces(lp: _RawPieces, rp: _RawPieces, budget: int) -> _RawPieces:
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


def _piece_lists(code, budget: int) -> list[_RawPieces]:
    """The pieces of every slot of a ``terms.compile_core`` program, in order."""
    lists: list[_RawPieces] = []
    for op, a, b in code:
        if op == VAR:
            pieces = [((), AffineForm.variable(a))]
        elif op == CONST:
            pieces = [((), AffineForm.const(a))]
        elif op == NEG:
            pieces = [(g, f.negate_about_one()) for g, f in lists[a]]
        elif op == OPLUS:
            pieces = _oplus_pieces(lists[a], lists[b], budget)
        elif op == NFOLD:
            # The left-nested chain oplus(oplus(t, t), t)...: the same
            # pieces as the unrolled term, from one compilation of t.
            pieces = lists[b]
            for _ in range(a - 1):
                pieces = _oplus_pieces(pieces, lists[b], budget)
        elif op == HALFN:
            # t / 2^n is affine in t: no split, each form scaled.
            weight = Fraction(1, 2**a)
            pieces = [(g, f.scale(weight)) for g, f in lists[b]]
        else:  # DELTA: prefix entry i weighs 2^-i, the tail 2^-k
            pieces = [((), AffineForm.const(0))]
            for s, i in a:
                weight = Fraction(1, 2**i)
                grown = []
                for g_acc, f_acc in pieces:
                    for g, f in lists[s]:
                        merged = _combine(g_acc, g, None)
                        if merged is not None:
                            grown.append((merged, f_acc.add(f.scale(weight))))
                        if len(grown) > budget:
                            raise _PieceBudget(f"term compiles to more than {budget} pieces")
                pieces = grown
        lists.append(pieces)
    return lists


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
    code, (slot,), _ = terms.compile_core((t,))
    box = tuple(linarith.box_constraints(name for op, name, _ in code if op == VAR))
    try:
        raw = _piece_lists(code, budget)[slot]
    except _PieceBudget as exc:
        raise BudgetExceeded(exc.detail) from None
    return [Piece(Guard(box + g), f) for g, f in raw]


def _decide_leq_pieces(
    lhs_pieces: _RawPieces, rhs_pieces: _RawPieces, variables: list[str], budget: int
) -> Valid | LimitExceeded | dict[str, Q01]:
    """Valid, LimitExceeded, or a witness assignment where lhs > rhs."""
    box = linarith.box_constraints(variables)
    pairs = len(lhs_pieces) * len(rhs_pieces)
    if pairs > budget:
        return LimitExceeded(BudgetReport(budget, f"{pairs} piece pairs exceed the budget"))
    for gl, al in lhs_pieces:
        for gr, ar in rhs_pieces:
            diff = al.sub(ar)
            if diff.is_ground() and diff.constant <= 0:
                continue  # lhs - rhs > 0 fails everywhere
            guard = _combine(gl, gr, None)
            if guard is None:
                continue
            system = [*box, *guard, Constraint(diff, strict=True)]
            try:
                witness = linarith.feasible(system)
            except BudgetExceeded as exc:
                return LimitExceeded(BudgetReport(budget, str(exc)))
            if witness is not None:
                return {v: Q01(witness.get(v, Fraction(0))) for v in variables}
    return Valid()


def _decide_expanded(le: Term, re_: Term, relation: str, budget: int) -> Verdict:
    """lhs <= rhs, and for "eq" then rhs <= lhs, over one program of both sides."""
    code, (lhs, rhs), _ = terms.compile_core((le, re_))
    variables = sorted(name for op, name, _ in code if op == VAR)
    try:
        pieces = _piece_lists(code, budget)
    except _PieceBudget as exc:
        return LimitExceeded(BudgetReport(budget, exc.detail))
    verdict = _decide_leq_pieces(pieces[lhs], pieces[rhs], variables, budget)
    if relation == "eq" and isinstance(verdict, Valid):
        verdict = _decide_leq_pieces(pieces[rhs], pieces[lhs], variables, budget)
    if isinstance(verdict, dict):
        values = terms.run(code, verdict, Q01_CARRIER)
        return Counterexample(verdict, values[lhs], values[rhs])
    return verdict


def decide_leq(lhs: Term, rhs: Term, budget: int = DEFAULT_PIECE_BUDGET) -> Verdict:
    """Valid iff lhs <= rhs identically on the unit cube."""
    verdict = _decide_expanded(terms.expand(lhs), terms.expand(rhs), "leq", budget)
    if isinstance(verdict, Counterexample):
        assert not verdict.lhs_value <= verdict.rhs_value
    return verdict


def decide_eq(lhs: Term, rhs: Term, budget: int = DEFAULT_PIECE_BUDGET) -> Verdict:
    """Valid iff lhs = rhs identically on the unit cube; decided as two <= checks
    over one compilation of each side."""
    verdict = _decide_expanded(terms.expand(lhs), terms.expand(rhs), "eq", budget)
    if isinstance(verdict, Counterexample):
        assert verdict.lhs_value != verdict.rhs_value
    return verdict


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

    Both sides are compiled once into one instruction list, run on
    every sample in integers scaled by a common denominator
    ``D = 2^depth * lcm(constant denominators) * 2^H``, where H is the
    largest halving depth.  Every value is then an exact integer
    multiple of 1/D: ``oplus`` is ``min(a + b, D)``, ``neg`` is
    ``D - a``, ``delta`` is ``sum(v_i >> i)``, ``nfold`` is
    ``min(n * a, D)`` and ``halfn`` is ``a >> n``, and each shift
    drops only zero bits.  Values become ``Q01`` only in the returned
    counterexample.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if relation not in ("eq", "leq"):
        raise ValueError(f"unknown relation {relation!r}")
    le, re_ = terms.expand(lhs), terms.expand(rhs)
    code, (lhs_slot, rhs_slot), halving_depth = terms.compile_core((le, re_))
    grid = 2**depth
    denominators = [value.denominator for op, value, _ in code if op == CONST]
    scale = math.lcm(1, *denominators) << halving_depth
    top = grid * scale  # the scaled 1
    variables = sorted(name for op, name, _ in code if op == VAR)
    var_index = {name: i for i, name in enumerate(variables)}
    # Leaves become loads of the sample point or fixed values; the rest
    # is the program run per sample.
    program = []
    initial = [0] * len(code)
    for slot, (op, a, b) in enumerate(code):
        if op == VAR:
            program.append((VAR, slot, var_index[a], None))
        elif op == CONST:
            initial[slot] = a.numerator * (top // a.denominator)
        else:
            program.append((op, slot, a, b))
    rng = random.Random(seed)
    for _ in range(trials):
        point = [rng.randint(0, grid) for _ in variables]
        vals = initial[:]
        for op, slot, a, b in program:
            if op == OPLUS:
                total = vals[a] + vals[b]
                vals[slot] = total if total < top else top
            elif op == NEG:
                vals[slot] = top - vals[a]
            elif op == VAR:
                vals[slot] = point[a] * scale
            elif op == DELTA:
                vals[slot] = sum(vals[s] >> i for s, i in a)
            elif op == NFOLD:
                total = a * vals[b]
                vals[slot] = total if total < top else top
            else:  # HALFN
                vals[slot] = vals[b] >> a
        lv, rv = vals[lhs_slot], vals[rhs_slot]
        if (lv != rv) if relation == "eq" else (lv > rv):
            assignment = {v: Q01(k, grid) for v, k in zip(variables, point)}
            return Counterexample(assignment, Q01(lv, top), Q01(rv, top))
    return None
