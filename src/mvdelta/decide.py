"""Complete decision procedure for MV/finite-delta equations and inequalities.

A term over the core connectives denotes a piecewise-linear function on
the unit cube: truncated addition splits into the two affine regimes
``x + y < 1`` and ``x + y >= 1``, negation maps a piece affinely, and
an eventually-constant delta is a single affine combination (its value
never reaches the truncation threshold).  ``compile_term`` produces the
resulting pieces, each a guard (a tuple of ``linarith`` constraints,
leaving out the box, which ``linarith.feasible`` adds) and a form;
validity of ``lhs <= rhs`` on the cube then reduces to infeasibility
of ``guard_l and guard_r and (lhs - rhs > 0)`` within the box for
every pair of pieces, which Fourier-Motzkin decides exactly.

The regimes are half-open, so the pieces of a term partition the box:
every point lies in exactly one piece, whose form is the term's value
there.  A regime whose strict interior misses the box is at most a face
of it; on that face both regimes have the same value, so the split is
not made and the other piece keeps the whole box.  One merge of two
guards and an extra constraint serves ``oplus`` (the regime),
``nfold``, ``delta`` and each pair of the decision (``lhs - rhs > 0``).
It drops the merge without any arithmetic when the extra constraint
fails on the whole box, or when the guard holds a constraint together
with its complement (rows are divided by their gcd, so ``4x - 2 > 0``
meets ``1 - 2x >= 0``): this happens when both sides of a merge depend
on one split, as in ``oplus(t, neg(t))``.  Every dropped piece or pair
is empty, so the pieces still cover the box and ``Valid`` stays
complete; every witness satisfies its pair's guards, so every
``Counterexample`` replays.

Validity on the cube settles validity in every MV-algebra (the unit
interval generates the variety), and for the implemented
eventually-constant delta fragment the same compilation covers the
delta laws.  The counted nodes are compiled in closed form, as on every
carrier: ``nfold(n, t)`` is ``min(n t, 1)``, one ``oplus`` split of each
piece of t with its form multiplied by n, so it has at most twice the
pieces of t at any n; ``halfn(n, t)`` scales each form of t by ``2^-n``.

Forms and constraints are int rows over the variables in name order,
constant last, forms scaled by the program's denominator D
(``terms.program_scale``, shared with the sampler): 1 is D, ``neg`` is
``D - f``, and ``halfn`` and ``delta`` shift, dropping only zero bits.

Both sides are compiled by ``terms.compile_core`` into one program.
The pieces, the sampler and witness replay all run through
``terms.run``: the pieces over the ``_PieceLists`` carrier, once per
slot, so a subterm shared within or across the sides is compiled once
and nothing recurses.  Equations are decided as two inequality checks
over those piece lists.  Verdicts are exact: ``Valid``, a replayable
rational ``Counterexample``, or ``LimitExceeded`` when the piece
bookkeeping outgrows the configured budget (never a wrong answer).
``sample_falsify`` is the independent evaluation oracle: seeded dyadic
samples, run over the ``_Columns`` carrier.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import add, gt, ne, sub

from . import linarith, terms
from .carriers import Q01_CARRIER
from .linarith import BudgetExceeded, Constraint
from .rationals import Q01
from .terms import Term

__all__ = [
    "Valid",
    "Counterexample",
    "LimitExceeded",
    "BudgetReport",
    "DEFAULT_PIECE_BUDGET",
    "compile_term",
    "decide",
    "sample_falsify",
]

DEFAULT_PIECE_BUDGET = 65536


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


def _combine(g1: tuple[Constraint, ...], g2: tuple[Constraint, ...], extra: Constraint | None):
    """Conjunction of two guards and an optional extra constraint, or None
    when it is plainly empty: the extra constraint fails on the whole box,
    or the guard holds a constraint together with its complement (both
    sides depend on one split).  An extra constraint that holds on the
    whole box is left out."""
    if extra is not None:
        holds = extra.over_box()
        if holds is False:
            return None
        if not holds:
            g2 = (*g2, extra)
    # Each input guard already passed these checks; only the added
    # constraints can clash.
    seen = set(g1)
    added = []
    for c in g2:
        if c not in seen:
            if c.complement() in seen:
                return None
            added.append(c)
            seen.add(c)
    return g1 + tuple(added)


# A piece is a guard, which leaves out the box all pieces share (no
# constraint that holds on the whole box or fails on it is ever added),
# and a form, an int row scaled by the program's denominator.
_Pieces = list[tuple[tuple[Constraint, ...], tuple[int, ...]]]


class _PieceLists:
    """Piece lists as a carrier of ``terms.run``: a variable is bound to
    its one piece, and each connective maps the pieces of its arguments
    to the pieces of its value.  Every merge checks the budget."""

    def __init__(self, names: tuple[str, ...], scale: int, budget: int):
        self.names, self.top, self.budget = names, scale, budget
        self.zero = (0,) * len(names)  # a constant row's variable part
        self.one = (*self.zero, scale)

    def variables(self) -> dict[str, _Pieces]:
        zero = self.zero
        return {v: [((), (*zero[:i], self.top, *zero[i:]))] for i, v in enumerate(self.names)}

    def const(self, q: Q01) -> _Pieces:
        return [((), (*self.zero, q.numerator * (self.top // q.denominator)))]

    def neg(self, pieces: _Pieces) -> _Pieces:
        return [(g, tuple(map(sub, self.one, f))) for g, f in pieces]

    def nfold(self, n: int, pieces: _Pieces) -> _Pieces:
        # min(n t, 1) is n t (+) 0: one split of each piece of t, at any n.
        scaled = [(g, tuple(n * x for x in f)) for g, f in pieces]
        return self.oplus(scaled, [((), (*self.zero, 0))])

    def halve_n(self, n: int, pieces: _Pieces) -> _Pieces:
        # t / 2^n is affine in t: no split, each form shifted.
        return [(g, tuple(x >> n for x in f)) for g, f in pieces]

    def delta(self, prefix: list[_Pieces], tail: _Pieces) -> _Pieces:
        # Prefix entry i weighs 2^-i and the tail 2^-k: never truncated.
        k = len(prefix)
        out = [((), (*self.zero, 0))]
        for pieces, shift in zip((*prefix, tail), (*range(1, k + 1), k)):
            out = self.oplus(out, self.halve_n(shift, pieces), truncate=False)
        return out

    def oplus(self, left: _Pieces, right: _Pieces, truncate: bool = True) -> _Pieces:
        """Every nonempty merge of a left and a right piece, with the sum
        of their forms; ``truncate`` splits it into the half-open regimes
        ``1 - total > 0`` (value ``total``) and ``total - 1 >= 0`` (value 1)."""
        out = []
        for gl, al in left:
            for gr, ar in right:
                total = tuple(map(add, al, ar))
                regimes = ((None, total),)
                if truncate:
                    excess = (*total[:-1], total[-1] - self.top)
                    # Where total <= 1 on the whole box, the above regime
                    # is at most a face, where it agrees with the below one.
                    if linarith.box_range(excess)[1] > 0:
                        above = Constraint(excess, False)
                        regimes = ((above.complement(), total), (above, self.one))
                for extra, form in regimes:
                    guard = _combine(gl, gr, extra)
                    if guard is not None:
                        out.append((guard, form))
                if len(out) > self.budget:
                    raise BudgetExceeded(f"term compiles to more than {self.budget} pieces")
        return out


def _piece_lists(code, halving_depth: int, budget: int):
    """The variable names, the denominator and the pieces of every slot
    of a ``terms.compile_core`` program, in order."""
    names, scale = tuple(terms.program_vars(code)), terms.program_scale(code, halving_depth)
    carrier = _PieceLists(names, scale, budget)
    return names, scale, terms.run(code, carrier.variables(), carrier)


def compile_term(t: Term, budget: int = DEFAULT_PIECE_BUDGET):
    """Compile a term into pieces partitioning the box.

    Returns the sorted variable names, the program's denominator D and
    the (guard constraints, form) pieces; a guard leaves out the box,
    and a form is an int row whose value is ``(row . (v, 1)) / D``.
    Raises linarith.BudgetExceeded when the piece count passes the budget.
    """
    code, (slot,), halving_depth = terms.compile_core((t,))
    names, scale, lists = _piece_lists(code, halving_depth, budget)
    return names, scale, lists[slot]


def _decide_leq_pieces(lhs_pieces: _Pieces, rhs_pieces: _Pieces, names, budget: int):
    """None if lhs <= rhs on every pair of pieces, else a witness point
    where lhs > rhs; raises BudgetExceeded past the budget."""
    pairs = len(lhs_pieces) * len(rhs_pieces)
    if pairs > budget:
        raise BudgetExceeded(f"{pairs} piece pairs exceed the budget")
    for gl, al in lhs_pieces:
        for gr, ar in rhs_pieces:
            guard = _combine(gl, gr, Constraint(map(sub, al, ar), True))
            if guard is not None:
                witness = linarith.feasible(guard, names)
                if witness is not None:
                    return witness
    return None


def decide(lhs: Term, rhs: Term, relation: str, budget: int = DEFAULT_PIECE_BUDGET) -> Verdict:
    """Valid iff lhs <= rhs ("leq") or lhs = rhs ("eq") identically on the
    unit cube; an equation is two <= checks over one program of both sides."""
    if relation not in ("eq", "leq"):
        raise ValueError(f"unknown relation {relation!r}")
    code, (left, right), halving_depth = terms.compile_core((lhs, rhs))
    try:
        names, _, pieces = _piece_lists(code, halving_depth, budget)
        witness = _decide_leq_pieces(pieces[left], pieces[right], names, budget)
        if relation == "eq" and witness is None:
            witness = _decide_leq_pieces(pieces[right], pieces[left], names, budget)
    except BudgetExceeded as exc:
        return LimitExceeded(BudgetReport(budget, str(exc)))
    if witness is None:
        return Valid()
    assignment = {v: Q01(witness[v]) for v in sorted(witness)}
    values = terms.run(code, assignment, Q01_CARRIER)
    lv, rv = values[left], values[right]
    assert lv != rv if relation == "eq" else not lv <= rv
    return Counterexample(assignment, lv, rv)


#: Samples that ``sample_falsify`` runs together, one column per slot.
_BLOCK = 64


class _Columns:
    """Columns of samples as a carrier of ``terms.run``, in integers
    scaled by ``top``, the common denominator ``D = 2^depth *
    terms.program_scale(...)``: the grid's denominator times the
    program's (``lcm(constant denominators) * 2^H``, where H is the
    largest halving depth).  Every value is then an exact integer
    multiple of 1/D: ``oplus`` is ``min(a + b, D)``, ``neg`` is
    ``D - a``, ``delta`` is ``sum(v_i >> i)``, ``nfold`` is
    ``min(n * a, D)`` and ``halfn`` is ``a >> n``, and each shift drops
    only zero bits."""

    def __init__(self, top: int, width: int):
        self.top, self.width = top, width

    def const(self, q: Q01) -> list[int]:
        return [q.numerator * (self.top // q.denominator)] * self.width

    def neg(self, a: list[int]) -> list[int]:
        top = self.top
        return [top - s for s in a]

    def oplus(self, a: list[int], b: list[int]) -> list[int]:
        top = self.top
        return [s if s < top else top for s in map(add, a, b)]

    def nfold(self, n: int, a: list[int]) -> list[int]:
        top = self.top
        return [s if s < top else top for s in map(n.__mul__, a)]

    def halve_n(self, n: int, a: list[int]) -> list[int]:
        return [s >> n for s in a]

    def delta(self, prefix: list[list[int]], tail: list[int]) -> list[int]:
        k = len(prefix)
        out = [s >> k for s in tail]
        for i, column in enumerate(prefix, 1):
            out = [s + (v >> i) for s, v in zip(out, column)]
        return out


def sample_falsify(
    lhs: Term, rhs: Term, relation: str = "eq", trials: int = 1000, seed: int = 0, depth: int = 8
) -> Counterexample | None:
    """Seeded search for a violation at uniform dyadic rational points.

    Returns the first failing assignment (deterministic for a given
    seed) or None.  This is an evaluation oracle, independent of the
    piecewise compilation used by decide.

    Both sides are compiled once into one program, run over blocks of
    ``_BLOCK`` samples as ``_Columns``.  The points are drawn sample by
    sample, and the first block holding a failure ends the search, so
    memory stays bounded for any trial count.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if relation not in ("eq", "leq"):
        raise ValueError(f"unknown relation {relation!r}")
    fails = ne if relation == "eq" else gt
    code, (lhs_slot, rhs_slot), halving_depth = terms.compile_core((lhs, rhs))
    variables = terms.program_vars(code)
    grid = 2**depth
    scale = terms.program_scale(code, halving_depth)
    top = grid * scale  # the scaled 1
    rng = random.Random(seed)
    for start in range(0, trials, _BLOCK):
        width = min(_BLOCK, trials - start)
        points = [[rng.randint(0, grid) for _ in variables] for _ in range(width)]
        columns = {v: [k * scale for k in ks] for v, ks in zip(variables, zip(*points))}
        vals = terms.run(code, columns, _Columns(top, width))
        for point, lv, rv in zip(points, vals[lhs_slot], vals[rhs_slot]):
            if fails(lv, rv):
                assignment = {v: Q01(k, grid) for v, k in zip(variables, point)}
                return Counterexample(assignment, Q01(lv, top), Q01(rv, top))
    return None
