"""Tests of the benchmark itself: seed determinism, the known answers,
the answer checks and the trace wrappers.

Run from the repository root::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import WrongAnswer  # noqa: E402

from mvdelta import cli, decide, terms  # noqa: E402
from mvdelta.rationals import Q01  # noqa: E402

HEAVY = set(tracing.FAMILIES)


def _profile(op: workloads.Op):
    """What a seed must not change: the op's kind and its slot in the list."""
    base = op.name.split(":")
    if op.kind == "cli":
        return (op.args[0], base[1], len(op.args))
    if op.kind in ("spectrum", "radical", "eta"):
        ns = op.args[0]
        size = 1
        for n in ns:
            size *= n + 1
        return (op.kind, size, len(ns))
    return (op.kind, base[1].rstrip("0123456789"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops(workload):
    assert workloads.build_ops(workload, 7) == workloads.build_ops(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_inputs_same_profile(workload):
    a, b = workloads.build_ops(workload, 7), workloads.build_ops(workload, 8)
    assert a != b
    assert Counter(map(_profile, a)) == Counter(map(_profile, b))
    assert len(a) >= 100


def _run_cheap(workload, seed):
    """Runs the ops of a workload that take well under a second, traced."""
    ops = [op for op in workloads.build_ops(workload, seed)
           if op.name.split(":")[-1] not in HEAVY and "robust" not in op.name
           and not (op.kind in ("spectrum", "eta", "radical") and len(workloads._elements(op.args[0])) > 30)]
    tracer = tracing.Tracer()
    tracer.install()
    classes = []
    try:
        for i, op in enumerate(ops):
            tracer.op = i
            result = workloads.call(op, "")
            classes.append((op.name, type(result).__name__, workloads.check(op, result, "")))
    finally:
        tracer.uninstall()
    counts = {k: v for k, (v, unit) in tracer.metrics(1, [op.name for op in ops]).items()
              if unit == "count"}
    return classes, counts


@pytest.mark.parametrize("workload", ["decide", "finite-spectra"])
def test_same_seed_same_verdicts_and_counts(workload):
    first, second = _run_cheap(workload, 3), _run_cheap(workload, 3)
    assert first == second
    assert all(answered for _, _, answered in first[0])


def _points(names, rng, count=40):
    for _ in range(count):
        yield {v: Fraction(rng.randint(0, 97), 97) for v in names}


def _labelled_equations(seed):
    for op in workloads.build_ops("decide", seed):
        yield op.name, op.args[0], op.expect


def test_valid_labels_hold_pointwise():
    rng = random.Random(0)
    for name, text, label in _labelled_equations(5):
        if label != "valid":
            continue
        lhs, rhs, relation = ref.parse_equation(text)
        names = ref.variables(lhs) | ref.variables(rhs)
        for env in _points(names, rng):
            assert ref.holds(ref.value(lhs, env), ref.value(rhs, env), relation), (name, env)


def _witness(name, lhs, rhs, relation):
    names = sorted(ref.variables(lhs) | ref.variables(rhs))
    if "hidden_cell" in name:
        cell = lhs[1] if lhs[2][0] == "var" else lhs  # meet(cell, y) or the cell alone
        a, b = cell[1][2][1], cell[2][1][1]
        return {v: (a + b) / 2 if v == "x" else Fraction(1) for v in names}
    if "broken_assoc" in name:
        return {v: Fraction(1, 2) for v in names}
    grid = [Fraction(k, 6) for k in range(7)]
    for env in _points(names, random.Random(1), 500):
        env = {v: grid[int(q * 6)] for v, q in env.items()}
        if not ref.holds(ref.value(lhs, env), ref.value(rhs, env), relation):
            return env
    return None


def test_refutable_labels_have_witnesses():
    for name, text, label in _labelled_equations(5):
        if label == "refutable":
            lhs, rhs, relation = ref.parse_equation(text)
            env = _witness(name, lhs, rhs, relation)
            assert env is not None and not ref.holds(ref.value(lhs, env), ref.value(rhs, env), relation), name


def test_hidden_cells_avoid_every_depth8_point():
    rng = random.Random(2)
    for _ in range(50):
        a, b = workloads._cell_bounds(rng)
        assert a < b and int(a * 256) == int(b * 256) and a * 256 != int(a * 256)


def test_reference_agrees_with_closed_forms():
    env = {"x": Fraction(1, 3), "y": Fraction(3, 4), "c": Fraction(1, 5)}
    assert ref.value(ref.parse("delta(x, y; c)"), env) == Fraction(1, 6) + Fraction(3, 16) + Fraction(1, 20)
    assert ref.value(ref.parse("odot(x, y)"), env) == Fraction(1, 12)
    assert ref.value(ref.parse("nfold(3, halfn(2, y))"), env) == Fraction(9, 16)
    assert ref.chang_value(ref.parse("oplus(x, neg(y))"), {"x": (0, 2), "y": (0, 5)}) == (1, -3)
    assert ref.chang_value(ref.parse("dist(x, y)"), {"x": (1, -1), "y": (0, 4)}) == (1, -5)


def _op(text, expect):
    return workloads.Op("decide:test", "decide", (text,), expect)


def test_wrong_answers_are_caught():
    eq = terms.parse_equation("oplus(x, x) = x")
    with pytest.raises(WrongAnswer):
        workloads.check(_op("oplus(x, x) = x", "refutable"), decide.Valid(), "")
    bad = decide.Counterexample({"x": Q01(1, 4)}, Q01(1, 2), Q01(1, 3))
    with pytest.raises(WrongAnswer):
        workloads.check(_op("oplus(x, x) = x", "refutable"), bad, "")
    good = decide.decide(eq.lhs, eq.rhs, eq.relation)
    assert workloads.check(_op("oplus(x, x) = x", "refutable"), good, "")
    cx = decide.Counterexample({"x": Q01(1, 4)}, Q01(1, 4), Q01(1, 4))
    with pytest.raises(WrongAnswer):
        workloads.check(_op("x = x", "valid"), cx, "")
    spectrum_op = workloads.Op("finite:radical:chain:2", "radical", ((2,),))
    fake = type("Rad", (), {"elements": frozenset({0, 1})})()
    with pytest.raises(WrongAnswer):
        workloads.check(spectrum_op, fake, "")


def test_limit_exceeded_is_a_failure_not_an_answer():
    report = decide.LimitExceeded(decide.BudgetReport(1, "test"))
    assert workloads.check(_op("x = x", "valid"), report, "") is False


def test_wrappers_open_one_span_per_outermost_call_and_uninstall():
    originals = (terms.expand, terms.evaluate_core, cli.run, dict(cli._HANDLERS), Q01.__new__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        value = terms.evaluate(terms.parse("oplus(x, neg(odot(x, y)))"), {"x": Q01(1, 2), "y": Q01(1)},
                               decide.Q01_CARRIER)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert value == 1
    names = Counter(span[0] for span in tracer.spans)
    assert names == Counter({"terms.parse": 1, "terms.expand": 1, "terms.eval": 1})
    assert tracer.counts["terms.expand_nodes"] == 9
    assert tracer.counts["carriers.oplus_calls.UnitInterval"] == 2
    assert (terms.expand, terms.evaluate_core, cli.run, dict(cli._HANDLERS), Q01.__new__) == originals


def test_runner_refuses_a_tree_without_sources():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_out"))
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, "bench/run.py", "--workload", "decide", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and done.stdout == ""
