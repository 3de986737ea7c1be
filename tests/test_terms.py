import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvdelta.carriers import Q01_CARRIER, FiniteChain, DeltaUnsupported
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
    UnboundVariable,
    Var,
    evaluate,
    expand,
    free_vars,
    parse,
    parse_equation,
    print_term,
)


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
    assert expand(HalfN(2, x)) == Delta(
        EvSeq((Delta(EvSeq((x,), Const(ZERO))),), Const(ZERO))
    )
    assert expand(NFold(3, x)) == Oplus(Oplus(x, x), x)
    # Expansion leaves only core nodes.
    core = (Var, Const, Neg, Oplus, Delta)

    def walk(t):
        assert isinstance(t, core)
        if isinstance(t, Neg):
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


@given(term_strategy)
def test_parse_print_roundtrip(t):
    assert parse(print_term(t)) == t


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
