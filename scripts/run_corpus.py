#!/usr/bin/env python3
"""Decide the whole law corpus and the non-theorem list; print a table.

Then print the verdict and time of each size of the scaling families:
oplus associativity over k variables, nfold(n, half(x)) <= nfold(n, x),
join associativity and nested dist at depth d (d + 1 variables).

Usage: python scripts/run_corpus.py [--budget N]   (N >= 1)
"""

import argparse
import time

from mvdelta import corpus, decide, terms
from mvdelta.cli import _int_at_least


def _chains(op, count):
    """Left- and right-nested op-chains over x1..x<count>."""
    names = [f"x{i}" for i in range(1, count + 1)]
    left, right = names[0], names[-1]
    for name in names[1:]:
        left = f"{op}({left}, {name})"
    for name in reversed(names[:-1]):
        right = f"{op}({name}, {right})"
    return left, right


def scaling_families():
    """(family, size, equation text) for every measured size."""
    for k in range(2, 9):
        yield "oplus_assoc", f"k={k}", "{} = {}".format(*_chains("oplus", k))
    for n in (2, 3, 4, 5, 6, 7, 8, 16, 32, 64, 128, 1000, 100000000):
        yield "nfold_half", f"n={n}", f"nfold({n}, half(x)) <= nfold({n}, x)"
    for d in range(2, 6):
        yield "join_assoc", f"d={d}", "{} = {}".format(*_chains("join", d + 1))
    for d in range(1, 4):
        dists, sums = _chains("dist", d + 1)[0], _chains("oplus", d + 1)[0]
        yield "dist_nest", f"d={d}", f"{dists} <= {sums}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=_int_at_least(1), default=decide.DEFAULT_PIECE_BUDGET)
    args = parser.parse_args()

    laws = corpus.decision_corpus()
    width = max(len(l.name) for l in laws) + 2
    total = 0.0
    print(f"{'law':<{width}}{'relation':<10}{'verdict':<10}time")
    for law in laws:
        started = time.perf_counter()
        verdict = decide.decide(law.lhs, law.rhs, law.relation, budget=args.budget)
        elapsed = time.perf_counter() - started
        total += elapsed
        print(f"{law.name:<{width}}{law.relation:<10}{type(verdict).__name__:<10}{elapsed*1000:7.1f} ms")
    print(f"\n{len(laws)} laws in {total:.2f}s\n")

    print("non-theorems (never Valid: a witness, or the budget that tripped):")
    for law in corpus.non_theorems():
        verdict = decide.decide(law.lhs, law.rhs, law.relation, budget=args.budget)
        assert not isinstance(verdict, decide.Valid), law.name
        if isinstance(verdict, decide.LimitExceeded):
            print(f"  {law.name}: {verdict.report.detail}")
            continue
        assignment = ", ".join(f"{k}={v}" for k, v in sorted(verdict.assignment.items()))
        print(
            f"  {law.name}: {assignment} gives lhs={verdict.lhs_value}, "
            f"rhs={verdict.rhs_value}"
        )

    print("\nscaling families:")
    print(f"{'family':<14}{'size':<13}{'verdict':<15}time")
    for family, size, text in scaling_families():
        eq = terms.parse_equation(text)
        started = time.perf_counter()
        verdict = decide.decide(eq.lhs, eq.rhs, eq.relation, budget=args.budget)
        elapsed = time.perf_counter() - started
        print(f"{family:<14}{size:<13}{type(verdict).__name__:<15}{elapsed*1000:9.1f} ms")


if __name__ == "__main__":
    main()
