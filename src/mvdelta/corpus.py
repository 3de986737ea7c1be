"""Named equational corpus: MV laws, delta laws, and non-theorems.

Each law is a pair of terms with a relation, built from the grammar in
:mod:`mvdelta.terms`.  The infinitary delta laws are instantiated with
eventually-constant argument sequences (a finite prefix of distinct
variables followed by a constant tail variable), which is exactly the
fragment the term language evaluates and the decision engine covers.

The same corpus drives three consumers: the decision engine (every law
must come back Valid), random instantiation on carriers such as the
piecewise-linear functions (every law must hold exactly), and the CLI
``axioms`` subcommand.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .terms import Term, parse

__all__ = ["Law", "mv_laws", "delta_laws", "axiom_suite", "decision_corpus", "non_theorems"]


@dataclass(frozen=True)
class Law:
    name: str
    relation: str  # "eq" or "leq"
    lhs: Term
    rhs: Term


def _law(name: str, relation: str, lhs: str, rhs: str) -> Law:
    return Law(name, relation, parse(lhs), parse(rhs))


def _vars(k: int) -> list[str]:
    return [f"x{i}" for i in range(1, k + 1)]


def _delta(args: list[str], tail: str) -> str:
    return f"delta({', '.join(args)}; {tail})"


def _oplus_chain(parts: list[str]) -> str:
    out = parts[0]
    for p in parts[1:]:
        out = f"oplus({out}, {p})"
    return out


def mv_laws() -> list[Law]:
    """Finitary MV-algebra laws (monoid, involution, lattice, interplay)."""
    return [
        _law("oplus_commutative", "eq", "oplus(x, y)", "oplus(y, x)"),
        _law("oplus_associative", "eq", "oplus(oplus(x, y), z)", "oplus(x, oplus(y, z))"),
        _law("oplus_unit", "eq", "oplus(x, 0)", "x"),
        _law("oplus_top", "eq", "oplus(x, 1)", "1"),
        _law("double_negation", "eq", "neg(neg(x))", "x"),
        _law(
            "characteristic_law",
            "eq",
            "oplus(neg(oplus(neg(x), y)), y)",
            "oplus(neg(oplus(neg(y), x)), x)",
        ),
        _law("join_via_oplus", "eq", "join(x, y)", "oplus(neg(oplus(neg(x), y)), y)"),
        _law("join_idempotent", "eq", "join(x, x)", "x"),
        _law("meet_unit", "eq", "meet(x, 1)", "x"),
        _law("absorption_sum", "eq", "oplus(oplus(x, y), odot(x, y))", "oplus(x, y)"),
        _law(
            "partition_of_x",
            "eq",
            "oplus(ominus(x, y), odot(oplus(x, neg(y)), y))",
            "x",
        ),
    ]


def delta_laws(max_prefix: int = 2, max_n: int = 4) -> list[Law]:
    """Delta-algebra axioms and their derived laws, eventually-constant instances.

    ``max_prefix`` bounds the explicit prefix length used when an axiom
    quantifies over a whole argument sequence; ``max_n`` bounds the
    halving depth in the iterated-halving laws.
    """
    laws: list[Law] = []

    # Axiom family: distance between delta and its head term.
    for k in range(1, max_prefix + 1):
        xs = _vars(k)
        lhs = f"dist({_delta(xs, 'c')}, half(x1))"
        rhs = _delta(["0"] + xs[1:], "c")
        laws.append(_law(f"axiom_a1_prefix{k}", "eq", lhs, rhs))

    # Axiom family: halving commutes with delta.
    for k in range(0, max_prefix + 1):
        xs = _vars(k)
        lhs = f"half({_delta(xs, 'c')})"
        rhs = _delta([f"half({x})" for x in xs], "half(c)")
        laws.append(_law(f"axiom_a2_prefix{k}", "eq", lhs, rhs))

    # Axiom: constant sequences are fixed points.
    laws.append(_law("axiom_a3_plain", "eq", "delta(; x)", "x"))
    laws.append(_law("axiom_a3_prefix2", "eq", "delta(x, x; x)", "x"))

    # Axiom family: a leading zero is a halving.
    for k in range(0, max_prefix + 1):
        xs = _vars(k)
        lhs = _delta(["0"] + xs, "c")
        rhs = f"half({_delta(xs, 'c')})"
        laws.append(_law(f"axiom_a4_prefix{k}", "eq", lhs, rhs))

    # Axiom family: delta is monotone under argumentwise oplus.
    for k in range(1, max_prefix + 1):
        xs = _vars(k)
        ys = [f"y{i}" for i in range(1, k + 1)]
        small = _delta(xs, "c")
        big = _delta([f"oplus({x}, {y})" for x, y in zip(xs, ys)], "oplus(c, d)")
        laws.append(_law(f"axiom_a5_prefix{k}", "leq", small, big))

    # Axiom: halving distributes over truncated subtraction.
    laws.append(_law("axiom_a6", "eq", "half(ominus(x, y))", "ominus(half(x), half(y))"))

    # Iterated halving commutes with delta.
    for n in range(1, max_n + 1):
        xs = _vars(2)
        lhs = f"halfn({n}, {_delta(xs, 'c')})"
        rhs = _delta([f"halfn({n}, {x})" for x in xs], f"halfn({n}, c)")
        laws.append(_law(f"halving_commutes_delta_n{n}", "eq", lhs, rhs))

    # Iterated halving is a zero prefix.
    for n in range(1, max_n + 1):
        xs = _vars(2)
        lhs = f"halfn({n}, {_delta(xs, 'c')})"
        rhs = _delta(["0"] * n + xs, "c")
        laws.append(_law(f"halving_as_zero_prefix_n{n}", "eq", lhs, rhs))

    # Dropping the tail to zero only shrinks the value.
    for k in range(1, max_prefix + 1):
        xs = _vars(k)
        laws.append(
            _law(f"zero_tail_below_prefix{k}", "leq", _delta(xs, "0"), _delta(xs, "c"))
        )

    # Head/tail split of delta.
    for k in range(1, max_prefix + 1):
        xs = _vars(k)
        lhs = _delta(xs, "c")
        rhs = f"oplus(half(x1), {_delta(['0'] + xs[1:], 'c')})"
        laws.append(_law(f"head_tail_split_prefix{k}", "eq", lhs, rhs))

    # Iterated halving distributes over truncated subtraction.
    for n in range(1, max_n + 1):
        laws.append(
            _law(
                f"halving_sub_n{n}",
                "eq",
                f"halfn({n}, ominus(x, y))",
                f"ominus(halfn({n}, x), halfn({n}, y))",
            )
        )

    # half(1) is its own negation.
    laws.append(_law("half_one_self_dual", "eq", "neg(half(1))", "half(1)"))

    # Halving only shrinks.
    for n in range(1, max_n + 1):
        laws.append(_law(f"halving_below_n{n}", "leq", f"halfn({n}, x)", "x"))

    # Halving is monotone (equational form through the lattice meet).
    for n in range(1, max_n + 1):
        laws.append(
            _law(f"halving_monotone_n{n}", "leq", f"halfn({n}, meet(x, y))", f"halfn({n}, y)")
        )

    # Halves never overlap.
    laws.append(_law("half_square_zero", "eq", "odot(half(x), half(x))", "0"))

    # A prefix is the truncated sum of its shifted entries.
    for n in range(1, min(max_n, 3) + 1):
        xs = _vars(n)
        parts = [_delta(["0"] * (i - 1) + [xs[i - 1]], "0") for i in range(1, n + 1)]
        laws.append(
            _law(f"prefix_as_shift_sum_n{n}", "eq", _oplus_chain(parts), _delta(xs, "0"))
        )

    # Splitting a delta after n entries.
    for n in range(1, min(max_n, 3) + 1):
        xs = _vars(n + 1)
        lhs = _delta(xs, "c")
        rhs = (
            f"oplus({_delta(xs[:n], '0')}, "
            f"{_delta(['0'] * n + [xs[n]], 'c')})"
        )
        laws.append(_law(f"split_after_n{n}", "eq", lhs, rhs))

    # A prefix is the truncated sum of iterated halvings.
    for n in range(1, min(max_n, 3) + 1):
        xs = _vars(n)
        parts = [f"halfn({i}, {xs[i - 1]})" for i in range(1, n + 1)]
        laws.append(
            _law(f"prefix_as_halvings_n{n}", "eq", _delta(xs, "0"), _oplus_chain(parts))
        )

    # Pair form and the doubling law.
    laws.append(_law("pair_form", "eq", "delta(x; y)", "oplus(half(x), half(y))"))
    laws.append(_law("half_doubling", "eq", "oplus(half(x), half(x))", "x"))

    # 2^n copies of the (n+1)-fold halving of 1 sum to half(1).
    for n in range(1, min(max_n, 3) + 1):
        parts = [f"halfn({n + 1}, 1)"] * (2**n)
        laws.append(_law(f"halving_power_sum_n{n}", "eq", _oplus_chain(parts), "half(1)"))

    return laws


@functools.cache
def _axiom_laws() -> tuple[Law, ...]:
    return (*mv_laws(), *delta_laws())


def axiom_suite() -> list[Law]:
    """Everything a delta-capable carrier must satisfy: MV laws plus delta
    laws, parsed once per process; each call returns a fresh list."""
    return list(_axiom_laws())


def decision_corpus() -> list[Law]:
    """The corpus the decision engine must settle as Valid."""
    return axiom_suite()


def non_theorems() -> list[Law]:
    """Seeded non-theorems; the decider must produce a counterexample for each."""
    return [
        _law("idempotent_sum", "eq", "oplus(x, x)", "x"),
        _law("half_above", "leq", "x", "half(x)"),
        _law("idempotent_product", "eq", "odot(x, x)", "x"),
        _law("distance_vanishes", "eq", "dist(x, y)", "0"),
        _law("join_equals_meet", "eq", "join(x, y)", "meet(x, y)"),
        _law("self_negation", "eq", "neg(x)", "x"),
        _law("sum_equals_product", "eq", "oplus(x, y)", "odot(x, y)"),
        _law("all_equal", "eq", "x", "y"),
        _law("half_identity", "eq", "half(x)", "x"),
        _law("meet_complement_zero", "eq", "meet(x, neg(x))", "0"),
        _law("join_complement_one", "eq", "join(x, neg(x))", "1"),
        _law("halving_collapse", "eq", "halfn(2, x)", "half(x)"),
        _law("sum_below_product", "leq", "oplus(x, y)", "odot(x, y)"),
        _law("monus_commutative", "eq", "ominus(x, y)", "ominus(y, x)"),
        _law("delta_is_head", "eq", "delta(x; y)", "x"),
        _law("sum_below_left", "leq", "oplus(x, y)", "x"),
        _law("negation_below", "leq", "neg(x)", "x"),
        _law("doubling_identity", "eq", "nfold(2, x)", "x"),
        _law(
            "monotone_reversed",
            "leq",
            "delta(oplus(x1, y1); oplus(c, d))",
            "delta(x1; c)",
        ),
        _law("half_splits_sum", "eq", "half(oplus(x, y))", "oplus(half(x), half(y))"),
    ]
