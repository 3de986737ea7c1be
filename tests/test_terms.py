import ast
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mvdelta
from mvdelta.carriers import Q01_CARRIER, FiniteChain, DeltaUnsupported, UnitInterval, carrier_from_spec
from mvdelta.rationals import Q01, ZERO, ONE
from mvdelta.terms import (
    Const,
    Delta,
    EvSeq,
    Half,
    HalfN,
    Join,
    Meet,
    Neg,
    NFold,
    Odot,
    Ominus,
    Oplus,
    ParseError,
    OPLUS,
    UnboundVariable,
    Var,
    compile_core,
    evaluate,
    evaluate_core,
    expand,
    free_vars,
    parse,
    parse_equation,
    program_vars,
    print_term,
)
from mvdelta import corpus
from oracles import evaluate_by_recursion, parse_by_recursion, parse_equation_by_recursion


def test_parse_basic_structure():
    assert parse("oplus(x, neg(x))") == Oplus(Var("x"), Neg(Var("x")))
    assert parse("delta(x1, x2; 0)") == Delta(
        EvSeq((Var("x1"), Var("x2")), Const(ZERO))
    )
    assert parse("half(1)") == Half(Const(ONE))
    assert expand(parse("half(1)")) == Delta(EvSeq((Const(ONE),), Const(ZERO)))


def test_parse_rationals_and_whitespace():
    assert parse(" oplus( 1/3 ,1/4 ) ") == Oplus(Const(Q01(1, 3)), Const(Q01(1, 4)))
    assert parse("delta(;x)") == Delta(EvSeq((), Var("x")))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("oplus(x,")
    assert "col" in str(err.value)
    with pytest.raises(ParseError):
        parse("delta()")  # argument list missing entirely
    with pytest.raises(ParseError):
        parse("delta(x)")  # no tail
    with pytest.raises(ParseError):
        parse("3/2")  # outside [0, 1]
    with pytest.raises(ParseError):
        parse("oplus(x, y) z")  # trailing input
    with pytest.raises(ParseError):
        parse("half")  # reserved word used bare
    with pytest.raises(ParseError):
        parse("nfold(0, x)")  # bad multiplicity
    with pytest.raises(ParseError):
        parse("Foo(x)")  # uppercase is not in the alphabet


def test_parse_equation():
    eq = parse_equation("oplus(x, x) = x")
    assert eq.relation == "eq" and eq.lhs == Oplus(Var("x"), Var("x"))
    le = parse_equation("x <= half(x)")
    assert le.relation == "leq" and le.rhs == Half(Var("x"))
    with pytest.raises(ParseError):
        parse_equation("x < y")
    with pytest.raises(ParseError):
        parse_equation("x = y = z")


def test_free_vars():
    assert free_vars(parse("oplus(x,y)")) == {"x", "y"}
    assert free_vars(parse("0")) == frozenset()
    assert free_vars(parse("delta(x; y)")) == {"x", "y"}
    assert free_vars(parse("nfold(3, halfn(2, dist(a, b)))")) == {"a", "b"}


def test_expand_definitions():
    x, y = Var("x"), Var("y")
    assert expand(Odot(x, y)) == Neg(Oplus(Neg(x), Neg(y)))
    assert expand(Ominus(x, y)) == Neg(Oplus(Neg(x), y))
    assert expand(Join(x, y)) == Oplus(Neg(Oplus(Neg(x), y)), y)
    # The counted nodes are kept, with their arguments expanded.
    assert expand(HalfN(2, Odot(x, y))) == HalfN(2, expand(Odot(x, y)))
    assert expand(NFold(3, Join(x, y))) == NFold(3, expand(Join(x, y)))
    # Each evaluates like its unrolled form.
    unrolled_halfn = Delta(EvSeq((Delta(EvSeq((x,), Const(ZERO))),), Const(ZERO)))
    unrolled_nfold = Oplus(Oplus(x, x), x)
    for k in range(17):
        env = {"x": Q01(k, 16)}
        assert evaluate(HalfN(2, x), env, Q01_CARRIER) == evaluate(unrolled_halfn, env, Q01_CARRIER)
        assert evaluate(NFold(3, x), env, Q01_CARRIER) == evaluate(unrolled_nfold, env, Q01_CARRIER)
    # Expansion leaves only core nodes.
    core = (Var, Const, Neg, Oplus, Delta, NFold, HalfN)

    def walk(t):
        assert isinstance(t, core)
        if isinstance(t, (Neg, NFold, HalfN)):
            walk(t.arg)
        elif isinstance(t, Oplus):
            walk(t.left), walk(t.right)
        elif isinstance(t, Delta):
            for p in t.seq.prefix:
                walk(p)
            walk(t.seq.tail)

    walk(expand(parse("meet(dist(x, y), nfold(2, halfn(3, join(x, 1/3))))")))


def test_evaluate_examples():
    assert evaluate(parse("delta(; x)"), {"x": Q01(2, 3)}, Q01_CARRIER) == Q01(2, 3)
    assert evaluate(parse("half(1)"), {}, Q01_CARRIER) == Q01(1, 2)
    assert evaluate(parse("oplus(x, x)"), {"x": Q01(1, 2)}, Q01_CARRIER) == ONE
    assert evaluate(parse("halfn(3, 1)"), {}, Q01_CARRIER) == Q01(1, 8)
    assert evaluate(parse("delta(1, x; 1/4)"), {"x": Q01(1, 2)}, Q01_CARRIER) == Q01(
        1, 2
    ) + Q01(1, 8) + Q01(1, 16)


def test_evaluate_errors():
    with pytest.raises(UnboundVariable):
        evaluate(parse("oplus(x, y)"), {"x": ZERO}, Q01_CARRIER)
    with pytest.raises(DeltaUnsupported):
        evaluate(parse("half(x)"), {"x": 1}, FiniteChain(2))


# Random term generator for round-trip and expansion properties.

_names = st.sampled_from(["x", "y", "z", "a1", "b_2"])
_consts = st.sampled_from([0, 1]) | st.fractions(min_value=0, max_value=1)


def _terms(depth):
    if depth == 0:
        return st.one_of(
            _names.map(Var), _consts.map(lambda q: Const(Q01(q)))
        )
    sub = _terms(depth - 1)
    n = st.integers(min_value=1, max_value=3)
    return st.one_of(
        _names.map(Var),
        _consts.map(lambda q: Const(Q01(q))),
        sub.map(Neg),
        sub.map(Half),
        st.tuples(n, sub).map(lambda t: HalfN(*t)),
        st.tuples(n, sub).map(lambda t: NFold(*t)),
        st.tuples(sub, sub).map(lambda t: Oplus(*t)),
        st.tuples(sub, sub).map(lambda t: Odot(*t)),
        st.tuples(sub, sub).map(lambda t: Ominus(*t)),
        st.tuples(sub, sub).map(lambda t: Dist(*t)),
        st.tuples(sub, sub).map(lambda t: Join(*t)),
        st.tuples(sub, sub).map(lambda t: Meet(*t)),
        st.tuples(st.lists(sub, max_size=3), sub).map(
            lambda t: Delta(EvSeq(tuple(t[0]), t[1]))
        ),
    )


from mvdelta.terms import Dist  # noqa: E402  (used by the strategy above)

term_strategy = _terms(3)


@settings(derandomize=True)
@given(term_strategy)
def test_parse_print_roundtrip(t):
    assert parse(print_term(t)) == t


def test_parse_print_roundtrip_at_any_depth():
    text = "neg(" * 100000 + "x" + ")" * 100000
    assert print_term(parse(text)) == text


# Texts from the grammar, with counts, rationals and whitespace that may
# be out of range, and single-character edits of the corpus: the parser
# must give the recursive oracle's term or its ParseError message.

_SEP = st.sampled_from([", ", ",", " ,\n  "] * 3 + [";", " "])


# About one leaf, count or separator in eight is out of place.
_LEAVES = ["x", "y1", "z_2", "x", "0", "1", "1/2", "2/3"] * 7 + ["neg", "delta", "2", "3/2", "1/0", "1/", "x/2"]
_COUNTS = [1, 2, 3, 1, 2, 3, 40] * 2 + [0, "", "x"]


def _texts(depth):
    leaf = st.sampled_from(_LEAVES)
    if depth == 0:
        return leaf
    sub = _texts(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["neg", "half"]), sub).map(lambda p: f"{p[0]}({p[1]})"),
        st.tuples(st.sampled_from(["oplus", "odot", "ominus", "dist", "join", "meet"]), sub, _SEP, sub).map(
            lambda p: f"{p[0]}({p[1]}{p[2]}{p[3]})"
        ),
        st.tuples(st.sampled_from(["halfn", "nfold"]), st.sampled_from(_COUNTS), _SEP, sub).map(
            lambda p: f"{p[0]}({p[1]}{p[2]}{p[3]})"
        ),
        st.tuples(st.lists(sub, max_size=3), _SEP, sub).map(lambda p: f"delta({p[1].join(p[0])}; {p[2]})"),
    )


_EQUATION_TEXTS = st.tuples(_texts(2), st.sampled_from([" = ", "<=", " <=\n", "="]), _texts(2)).map("".join)

_CORPUS_TEXTS = sorted(
    f"{print_term(law.lhs)} {'=' if law.relation == 'eq' else '<='} {print_term(law.rhs)}"
    for law in corpus.decision_corpus() + corpus.non_theorems()
)


def _edits(text, at, edit, char):
    at %= len(text) + 1
    return [text[:at] + char + text[at + 1 :], text[:at] + char + text[at:], text[:at] + text[at + 1 :]][edit]


_MUTATED_TEXTS = st.builds(
    _edits, st.sampled_from(_CORPUS_TEXTS), st.integers(0, 400), st.integers(0, 2), st.sampled_from("(),;/=<> \n0129xyaeg!\u0661")
)


def _parsed(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_texts(3), _EQUATION_TEXTS, _MUTATED_TEXTS))
@example("\u0661/\u0662")
def test_parser_agrees_with_recursive_oracle(text):
    assert _parsed(parse, text) == _parsed(parse_by_recursion, text)
    assert _parsed(parse_equation, text) == _parsed(parse_equation_by_recursion, text)


@settings(derandomize=True)
@given(term_strategy, st.integers(min_value=0, max_value=16))
def test_expand_preserves_evaluation(t, k):
    assignment = {v: Q01(k % 17, 16) for v in free_vars(t)}
    assert evaluate(t, assignment, Q01_CARRIER) == evaluate(
        expand(t), assignment, Q01_CARRIER
    )


def test_no_truncation_for_eventually_constant_delta(grid3):
    # The truncated fold of the halved entries agrees with plain summation.
    for a in grid3:
        for b in grid3:
            for c in grid3:
                by_sum = Q01(a / 2 + b / 4 + c / 4)
                folded = ZERO
                folded = Q01_CARRIER.oplus(folded, Q01(a / 2))
                folded = Q01_CARRIER.oplus(folded, Q01(b / 4))
                folded = Q01_CARRIER.oplus(folded, Q01(c / 4))
                via_delta = Q01_CARRIER.delta([a, b], c)
                assert by_sum == folded == via_delta


def test_shared_subterms_are_evaluated_once():
    # join(x1, join(x2, ... join(x8, x9))): expand copies each right
    # argument twice, so the tree has 2^9 - 2 oplus nodes.
    t = Var("x9")
    for i in range(8, 0, -1):
        t = Join(Var(f"x{i}"), t)
    calls = []

    class Counting(UnitInterval):
        def oplus(self, x, y):
            calls.append((x, y))
            return super().oplus(x, y)

    code, _, _ = compile_core((expand(t),))
    distinct = sum(op == OPLUS for op, _, _ in code)
    env = {f"x{i}": Q01(i, 10) for i in range(1, 10)}
    assert evaluate(t, env, Counting()) == evaluate_by_recursion(expand(t), env, Q01_CARRIER)
    assert len(calls) == distinct == 16


# Random core terms against the recursive oracle on every kind of
# carrier: equal values, or the same exception with the same message
# (constants and delta are missing on some carriers, z may be unbound).

_CARRIER_ELEMENTS = {
    "q01": ["0", "1/3", "1/2", "1"],
    "chain:5": ["0", "2/5", "3/5", "1"],
    "prod(chain:2,chain:3)": ["(0, 0)", "(1/2, 1/3)", "(1, 2/3)", "(1, 1)"],
    "chang": ["(0,0)", "(0,2)", "(1,-5)", "(1,0)"],
    "pl": ['[["0","0"],["1","1"]]', "1/2", '[["0","1"],["1/2","0"],["1","1"]]', "0"],
}


def _core_terms(depth):
    leaf = st.one_of(
        st.sampled_from(["x", "y", "z"]).map(Var),
        st.sampled_from([Q01(0), Q01(1), Q01(1, 2), Q01(1, 3)]).map(Const),
    )
    if depth == 0:
        return leaf
    sub = _core_terms(depth - 1)
    return st.one_of(
        leaf,
        sub.map(Neg),
        st.tuples(sub, sub).map(lambda p: Oplus(*p)),
        st.tuples(st.integers(1, 5), sub).map(lambda p: NFold(*p)),
        st.tuples(st.integers(1, 3), sub).map(lambda p: HalfN(*p)),
        st.tuples(st.lists(sub, max_size=2), sub).map(lambda p: Delta(EvSeq(tuple(p[0]), p[1]))),
    )


def _outcome(evaluator, t, env, carrier):
    try:
        return "value", carrier.format_element(evaluator(t, env, carrier))
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    _core_terms(3),
    st.sampled_from(sorted(_CARRIER_ELEMENTS)),
    st.lists(st.integers(0, 3), min_size=3, max_size=3),
    st.booleans(),
)
def test_evaluate_core_agrees_with_recursive_oracle(t, spec, picks, bind_z):
    carrier = carrier_from_spec(spec)
    names = ["x", "y", "z"] if bind_z else ["x", "y"]
    env = {v: carrier.parse_element(_CARRIER_ELEMENTS[spec][k]) for v, k in zip(names, picks)}
    assert _outcome(evaluate_core, t, env, carrier) == _outcome(evaluate_by_recursion, t, env, carrier)


_OPCODES = {"VAR", "CONST", "NEG", "OPLUS", "DELTA", "NFOLD", "HALFN"}


def _opcode_uses(path) -> list[str]:
    """Every import or reference of an opcode name in one source file."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        uses += [f"{path.name}:{node.lineno} {name}" for name in names if name in _OPCODES]
    return uses


def test_only_terms_reads_opcodes():
    # The instruction format of compile_core is known to terms alone:
    # every other module runs programs through terms.run.
    src = pathlib.Path(mvdelta.__file__).parent
    assert {u.split()[1] for u in _opcode_uses(src / "terms.py")} == _OPCODES
    others = [path for path in sorted(src.glob("*.py")) if path.name != "terms.py"]
    outside = [use for path in others for use in _opcode_uses(path)]
    assert outside == []


def test_program_vars_are_sorted_and_distinct():
    code, _, _ = compile_core((expand(parse("oplus(y, join(x, y))")), expand(parse("nfold(3, z)"))))
    assert program_vars(code) == ["x", "y", "z"]
    code, _, _ = compile_core((expand(parse("1/2")),))
    assert program_vars(code) == []
