"""The decider's own verdicts against recorded ones.

``decide_golden.txt`` holds one JSON record per line: an equation
(``lhs``, ``relation``, ``rhs`` in ``print_term`` form), a piece
``budget``, and the verdict: its class, and the counterexample's
assignment and values or the ``LimitExceeded`` detail.  It covers the
64 corpus laws and the 20 non-theorems, ``oplus`` associativity over
k = 2..8 variables, ``nfold(n, half(x)) <= nfold(n, x)`` for n = 2..32
and 10^8, ``join`` associativity and nested ``dist`` at depths 2..5 and
1..2, and a few inputs at small budgets.  ``check`` finds most
non-theorems by sampling first, so ``cli_golden.txt`` does not pin these
witnesses.
An intended verdict change is edited into the file by hand.
"""

import json
from pathlib import Path

import pytest

from mvdelta.decide import Counterexample, LimitExceeded, decide
from mvdelta.terms import parse

RECORDS = [
    json.loads(line)
    for line in (Path(__file__).with_name("decide_golden.txt")).read_text().splitlines()
]


def _as_record(verdict) -> dict:
    out = {"verdict": type(verdict).__name__}
    if isinstance(verdict, Counterexample):
        out["assignment"] = {v: str(q) for v, q in verdict.assignment.items()}
        out["lhs_value"], out["rhs_value"] = str(verdict.lhs_value), str(verdict.rhs_value)
    elif isinstance(verdict, LimitExceeded):
        out["detail"] = verdict.report.detail
    return out


@pytest.mark.parametrize("record", RECORDS, ids=[f"line{i}" for i in range(1, len(RECORDS) + 1)])
def test_decide_matches_recorded_verdict(record):
    verdict = decide(parse(record["lhs"]), parse(record["rhs"]), record["relation"], record["budget"])
    recorded = {k: v for k, v in record.items() if k not in ("lhs", "rhs", "relation", "budget")}
    assert _as_record(verdict) == recorded
