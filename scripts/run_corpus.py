#!/usr/bin/env python3
"""Decide the whole law corpus and the non-theorem list; print a table.

Usage: python scripts/run_corpus.py [--budget N]
"""

import argparse
import time

from mvdelta import corpus, decide


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=decide.DEFAULT_PIECE_BUDGET)
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

    print("non-theorems (each must produce a witness):")
    for law in corpus.non_theorems():
        verdict = decide.decide(law.lhs, law.rhs, law.relation, budget=args.budget)
        assert isinstance(verdict, decide.Counterexample), law.name
        assignment = ", ".join(f"{k}={v}" for k, v in sorted(verdict.assignment.items()))
        print(
            f"  {law.name}: {assignment} gives lhs={verdict.lhs_value}, "
            f"rhs={verdict.rhs_value}"
        )


if __name__ == "__main__":
    main()
