import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdelta import corpus, terms
from mvdelta.carriers import Q01_CARRIER, carrier_from_spec
from mvdelta.plfunc import (
    PL_CARRIER,
    IsbellHypothesisError,
    PLFormatError,
    PLFunc,
    archimedean_certificate,
    from_json,
    increasing_approx,
    isbell_reconstruct,
    pl_const,
    pl_delta,
    pl_dist,
    pl_identity,
    pl_join,
    pl_leq,
    pl_meet,
    pl_neg,
    pl_nfold,
    pl_odot,
    pl_ominus,
    pl_oplus,
    pl_precompose,
    pl_scale,
    pl_tent,
    random_fnseq,
    random_plfunc,
    to_json,
    uniform_dist,
)
from mvdelta.rationals import Q01, parse_q01
import oracles


def F(*pts):
    return PLFunc([(Fraction(a), Fraction(b)) for a, b in pts])


def test_canonical_form_removes_collinear_points():
    f = F((0, 0), (Fraction(1, 2), Fraction(1, 2)), (1, 1))
    assert f == pl_identity()
    assert len(f.points) == 2


def test_validation_reports_failing_index():
    with pytest.raises(PLFormatError) as err:
        PLFunc([(0, 0), (Fraction(1, 2), 2), (1, 1)])
    assert err.value.index == 1
    with pytest.raises(PLFormatError) as err:
        PLFunc([(0, 0), (Fraction(1, 2), 0), (Fraction(1, 2), 1), (1, 1)])
    assert err.value.index == 2
    with pytest.raises(PLFormatError) as err:
        PLFunc([(Fraction(1, 4), 0), (1, 1)])
    assert err.value.index == 0
    with pytest.raises(PLFormatError) as err:
        PLFunc([(0, 0), (Fraction(1, 2), 1)])
    assert err.value.index == 1
    with pytest.raises(PLFormatError):
        PLFunc([(0, 0)])


def test_eval_interpolates_exactly():
    tent = pl_tent()
    assert tent.eval_at(Fraction(1, 4)) == Q01(1, 2)
    assert tent.eval_at(Fraction(1, 2)) == Q01(1)
    assert tent.eval_at(Fraction(7, 8)) == Q01(1, 4)
    with pytest.raises(ValueError):
        tent.eval_at(Fraction(3, 2))


def test_pointwise_op_examples():
    ident = pl_identity()
    assert pl_oplus(ident, ident) == F((0, 0), (Fraction(1, 2), 1), (1, 1))
    assert pl_neg(ident) == F((0, 1), (1, 0))
    assert pl_dist(ident, pl_const(0)) == ident
    assert getattr(PL_CARRIER, "neg")(ident) == pl_neg(ident)
    assert getattr(PL_CARRIER, "join")(ident, pl_neg(ident)) == F(
        (0, 1), (Fraction(1, 2), Fraction(1, 2)), (1, 1)
    )
    assert getattr(PL_CARRIER, "meet")(ident, pl_neg(ident)) == F(
        (0, 0), (Fraction(1, 2), Fraction(1, 2)), (1, 0)
    )


def test_pointwise_ops_agree_with_rational_ops(grid4):
    rng = random.Random(4)
    for _ in range(25):
        f = random_plfunc(rng)
        g = random_plfunc(rng)
        for name in ("oplus", "odot", "ominus", "dist", "join", "meet"):
            h = getattr(PL_CARRIER, name)(f, g)
            for x in grid4:
                want = getattr(Q01_CARRIER, name)(f.eval_at(x), g.eval_at(x))
                assert h.eval_at(x) == want, (name, x)
        nf = pl_neg(f)
        for x in grid4:
            assert nf.eval_at(x) == Q01_CARRIER.neg(f.eval_at(x))


def test_delta_examples():
    ident = pl_identity()
    assert pl_delta([ident], pl_const(0)) == F((0, 0), (1, Fraction(1, 2)))
    f = pl_tent()
    assert pl_delta([], f) == f
    assert pl_delta([pl_const(1)], pl_const(1)) == pl_const(1)


def test_delta_matches_pointwise_series(grid4):
    rng = random.Random(11)
    for _ in range(20):
        seq = random_fnseq(rng)
        out = pl_delta(list(seq.prefix), seq.tail)
        k = len(seq.prefix)
        for x in grid4:
            want = sum(
                (Fraction(p.eval_at(x), 2**i) for i, p in enumerate(seq.prefix, 1)),
                Fraction(0),
            ) + Fraction(seq.tail.eval_at(x), 2**k)
            assert out.eval_at(x) == want


def test_scale_examples_and_delta_path():
    ident = pl_identity()
    assert pl_scale(Q01(1, 2), ident) == pl_delta([ident], pl_const(0))
    assert pl_scale(Q01(1), pl_tent()) == pl_tent()
    assert pl_scale(Q01(3, 4), pl_const(1)) == pl_const(Fraction(3, 4))
    zero = pl_const(0)
    # Binary expansions: 3/4 = .11, 5/8 = .101, 1/4 = .01
    for r, digits in [
        (Q01(3, 4), [1, 1]),
        (Q01(5, 8), [1, 0, 1]),
        (Q01(1, 4), [0, 1]),
    ]:
        f = pl_tent()
        prefix = [f if d else zero for d in digits]
        assert pl_scale(r, f) == pl_delta(prefix, zero)


def test_uniform_dist_examples():
    ident = pl_identity()
    assert uniform_dist(ident, pl_const(0)) == Q01(1)
    assert uniform_dist(ident, ident) == Q01(0)
    assert uniform_dist(ident, pl_neg(ident)) == Q01(1)
    assert uniform_dist(pl_tent(), pl_const(Fraction(1, 2))) == Q01(1, 2)


def test_pl_leq():
    assert pl_leq(pl_const(0), pl_identity())
    assert not pl_leq(pl_identity(), pl_const(0))
    assert pl_leq(pl_meet(pl_identity(), pl_tent()), pl_tent())


def test_precompose_examples():
    ident = pl_identity()
    tent = pl_tent()
    assert pl_precompose(tent, ident) == tent
    assert pl_precompose(ident, tent) == tent
    assert pl_precompose(pl_neg(ident), pl_neg(ident)) == ident
    # Composition agrees pointwise and needs interior refinement.
    phi = F((0, 0), (Fraction(1, 4), Fraction(3, 4)), (1, Fraction(1, 4)))
    comp = pl_precompose(tent, phi)
    for k in range(17):
        x = Fraction(k, 16)
        assert comp.eval_at(x) == tent.eval_at(phi.eval_at(x))


def test_precompose_is_a_homomorphism():
    rng = random.Random(23)
    for _ in range(10):
        f, g, phi = (random_plfunc(rng) for _ in range(3))
        assert pl_precompose(pl_oplus(f, g), phi) == pl_oplus(
            pl_precompose(f, phi), pl_precompose(g, phi)
        )
        assert pl_precompose(pl_neg(f), phi) == pl_neg(pl_precompose(f, phi))


def test_increasing_approx_properties():
    const1 = pl_const(1)
    stages = increasing_approx(const1, 3)
    assert uniform_dist(stages[2], const1) <= Fraction(1, 8)
    assert increasing_approx(pl_const(0), 4) == [pl_const(0)] * 4
    ident = pl_identity()
    stages = increasing_approx(ident, 4)
    for i in range(1, 4):
        assert pl_leq(stages[i - 1], stages[i])
        assert uniform_dist(stages[i], stages[i - 1]) <= Fraction(1, 2 ** (i + 1))
    for i, s in enumerate(stages, start=1):
        assert uniform_dist(s, ident) <= Fraction(3, 2 ** (i + 2))
    with pytest.raises(ValueError):
        increasing_approx(ident, 0)


def test_isbell_reconstruct_bounds():
    targets = [pl_identity(), pl_neg(pl_identity()), pl_tent(), pl_const(Fraction(1, 3))]
    for target in targets:
        half = pl_scale(Q01(1, 2), target)
        for n in range(1, 9):
            stages = increasing_approx(half, n)
            result = isbell_reconstruct(stages)
            assert uniform_dist(result, half) <= Fraction(1, 2**n)


def test_isbell_constant_sequence():
    half = pl_const(Fraction(1, 2))
    assert isbell_reconstruct([half, half, half]) == half


def test_isbell_hypothesis_violations():
    with pytest.raises(IsbellHypothesisError) as err:
        isbell_reconstruct([pl_const(Fraction(3, 4))])
    assert err.value.index == 1 and err.value.norm == Fraction(3, 4)
    with pytest.raises(IsbellHypothesisError) as err:
        isbell_reconstruct([pl_const(Fraction(1, 2)), pl_const(Fraction(1, 4))])
    assert err.value.index == 2  # not increasing
    with pytest.raises(IsbellHypothesisError) as err:
        isbell_reconstruct([pl_const(0), pl_const(Fraction(1, 2))])
    assert err.value.index == 2 and err.value.norm == Fraction(1, 2)  # gap above 1/4
    with pytest.raises(ValueError):
        isbell_reconstruct([])


def test_archimedean_certificate_examples():
    assert archimedean_certificate(pl_const(Fraction(1, 3))) == 4
    assert archimedean_certificate(pl_identity()) == 2
    assert archimedean_certificate(pl_const(0)) is None


def test_archimedean_certificate_random_nonzero():
    rng = random.Random(31)
    found = 0
    while found < 50:
        f = random_plfunc(rng)
        if f.is_zero():
            continue
        n = archimedean_certificate(f)
        assert n is not None and n >= 1
        assert not pl_leq(pl_nfold(n, f), pl_neg(f))
        found += 1


def test_delta_axioms_hold_exactly_on_random_functions():
    rng = random.Random(0)
    laws = [l for l in corpus.delta_laws(2, 2) if l.name.startswith("axiom_")]
    for law in laws:
        el, er = terms.expand(law.lhs), terms.expand(law.rhs)
        variables = sorted(terms.free_vars(law.lhs) | terms.free_vars(law.rhs))
        for _ in range(20):
            assignment = {v: random_plfunc(rng) for v in variables}
            lv = terms.evaluate_core(el, assignment, PL_CARRIER)
            rv = terms.evaluate_core(er, assignment, PL_CARRIER)
            ok = PL_CARRIER.eq(lv, rv) if law.relation == "eq" else PL_CARRIER.leq(lv, rv)
            assert ok, law.name


def test_json_roundtrip_and_loader_errors(tmp_path):
    f = pl_tent()
    data = to_json(f)
    assert data == [["0", "0"], ["1/2", "1"], ["1", "0"]]
    assert from_json(data) == f
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    from mvdelta.plfunc import load_plfunc, save_plfunc

    assert load_plfunc(path) == f
    save_plfunc(f, tmp_path / "g.json")
    assert load_plfunc(tmp_path / "g.json") == f

    with pytest.raises(PLFormatError) as err:
        from_json([["0", "0"], ["1/2"], ["1", "1"]])
    assert err.value.index == 1
    with pytest.raises(PLFormatError) as err:
        from_json([["0", "0"], ["1/2", "x"], ["1", "1"]])
    assert err.value.index == 1
    with pytest.raises(PLFormatError) as err:
        from_json([["0", "0"], ["1/2", "3/2"], ["1", "1"]])
    assert err.value.index == 1
    with pytest.raises(PLFormatError):
        from_json([])
    with pytest.raises(PLFormatError):
        from_json({"not": "a list"})


@pytest.mark.parametrize(
    "text", ["1_0/1_0", "1_0", " 1", "1 ", "+1", "1/+2", "1/-2", "--1", "-", "1/0", "0x1", "1\n", "1/2\n", "١/٢", "１"]
)
def test_breakpoint_literals_follow_the_rational_grammar(text):
    # The grammar of parse_q01: digits, optionally "/" and digits.
    with pytest.raises(ValueError):
        parse_q01(text)
    with pytest.raises(PLFormatError) as err:
        from_json([["0", "0"], ["1/2", text], ["1", "1"]])
    assert err.value.index == 1 and str(err.value) == f"breakpoint 1: malformed rational {text!r}"


@pytest.mark.parametrize("text", ["-1", "-1/2", "-3/2", "3/2"])
def test_out_of_range_breakpoints_are_reported_as_such(text):
    with pytest.raises(PLFormatError) as err:
        from_json([["0", "0"], ["1/2", text], ["1", "1"]])
    assert str(err.value) == f"breakpoint 1: value {Fraction(text)} outside [0, 1]"


def test_negative_zero_breakpoint_is_zero():
    assert from_json([["0", "-0"], ["1", "-0/3"]]) == pl_const(0)


def test_random_plfunc_is_seed_deterministic():
    a = [random_plfunc(random.Random(77)) for _ in range(5)]
    b = [random_plfunc(random.Random(77)) for _ in range(5)]
    assert a == b


def test_carrier_interface():
    assert PL_CARRIER.spec == "pl"
    assert PL_CARRIER.zero() == pl_const(0)
    assert PL_CARRIER.one() == pl_const(1)
    assert PL_CARRIER.const(Q01(1, 3)) == pl_const(Fraction(1, 3))
    assert PL_CARRIER.parse_element("1/3") == pl_const(Fraction(1, 3))
    assert PL_CARRIER.parse_element('[["0","0"],["1","1"]]') == pl_identity()
    # Commas inside a breakpoint list do not split a product element.
    both = carrier_from_spec("prod(pl,chain:2)")
    assert both.parse_element('([["0","0"],["1","1"]], 1/2)') == (pl_identity(), 1)
    text = PL_CARRIER.format_element(pl_tent())
    assert json.loads(text) == to_json(pl_tent())


def test_nfold_truncates():
    third = pl_const(Fraction(1, 3))
    assert pl_nfold(2, third) == pl_const(Fraction(2, 3))
    assert pl_nfold(4, third) == pl_const(1)
    assert pl_nfold(2, pl_identity()) == F((0, 0), (Fraction(1, 2), 1), (1, 1))
    with pytest.raises(ValueError):
        pl_nfold(0, third)


def test_derived_ops_cross_check():
    # odot/ominus through their definitions on a couple of fixed functions
    ident = pl_identity()
    tent = pl_tent()
    assert pl_odot(ident, pl_neg(ident)) == pl_neg(pl_oplus(pl_neg(ident), ident))
    assert pl_ominus(tent, tent) == pl_const(0)
    assert pl_join(ident, tent) == pl_neg(pl_meet(pl_neg(ident), pl_neg(tent)))


# Denominators of every kind (1, powers of two, odd), mixed in one function.
_BREAKPOINTS = st.lists(
    st.tuples(st.sampled_from((1, 2, 3, 4, 5, 7, 9, 12, 16, 25, 27)), st.integers(0, 26), st.integers(0, 26)),
    min_size=2,
    max_size=6,
)


def _unit(d: int, n: int) -> Fraction:
    return Fraction(n % (d + 1), d)


@st.composite
def _functions(draw):
    raw = draw(_BREAKPOINTS)
    interior = {Fraction(n % (d - 1) + 1, d) for d, n, _ in raw[2:] if d > 1}
    xs = [Fraction(0), *sorted(interior), Fraction(1)]
    return PLFunc(list(zip(xs, (_unit(d, m) for d, _, m in raw))))


def _points(f: PLFunc):
    # An operation's result is already in the one normal form that the
    # validating constructor builds, denominator and all.
    assert f == PLFunc(f.points)
    return f.points


def _outcome(compute):
    try:
        return compute()
    except IsbellHypothesisError as exc:
        return str(exc), exc.index, exc.norm


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    _functions(), _functions(), _functions(), st.lists(_functions(), max_size=3),
    st.builds(_unit, st.sampled_from((1, 3, 8, 15)), st.integers(0, 15)), st.integers(1, 5),
    st.integers(1, 3),
)
def test_integer_breakpoints_agree_with_fraction_oracle(f, g, phi, prefix, r, n, depth):
    # Equal canonical points, operation by operation, with the former
    # Fraction implementation kept in tests/oracles.py.
    ref = oracles.PL_BY_FRACTIONS
    F, G = f.points, g.points
    for name in ("oplus", "odot", "ominus", "dist", "join", "meet"):
        assert _points(getattr(PL_CARRIER, name)(f, g)) == getattr(ref, name)(F, G), name
    assert _points(pl_neg(f)) == ref.neg(F)
    assert _points(pl_nfold(n, f)) == ref.nfold(n, F)
    assert _points(pl_delta(prefix, g)) == oracles.pl_delta_by_fractions([p.points for p in prefix], G)
    assert _points(pl_scale(r, f)) == oracles.pl_scale_by_fractions(r, F)
    assert _points(pl_precompose(f, phi)) == oracles.pl_precompose_by_fractions(F, phi.points)
    assert pl_leq(f, g) == oracles.pl_leq_by_fractions(F, G)
    assert uniform_dist(f, g) == oracles.pl_uniform_dist_by_fractions(F, G)
    stages = increasing_approx(f, depth)
    assert [_points(s) for s in stages] == oracles.pl_increasing_approx_by_fractions(F, depth)
    half = Q01(1, 2)
    for seq in (
        increasing_approx(pl_scale(half, f), depth),  # every hypothesis holds
        [pl_scale(half, g), pl_scale(half, pl_join(f, g))],  # the step bound may fail
        [f, g, phi][:depth],  # most fail
    ):
        want = _outcome(lambda: oracles.pl_isbell_reconstruct_by_fractions([s.points for s in seq]))
        assert _outcome(lambda: _points(isbell_reconstruct(seq))) == want


@pytest.mark.parametrize("k", [1, 2, 7, 20, 40])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_long_delta_prefixes_agree_with_fraction_oracle(k, data):
    # One midpoint per prefix function, folded in from the tail, against
    # the weighted sum of all of them in one Fraction pass.
    prefix = data.draw(st.lists(_functions(), min_size=k, max_size=k))
    tail = data.draw(_functions())
    want = oracles.pl_delta_by_fractions([p.points for p in prefix], tail.points)
    assert _points(pl_delta(prefix, tail)) == want


def test_operations_skip_the_validating_constructor(monkeypatch):
    rng = random.Random(5)
    f, g, h = (random_plfunc(rng, depth=5) for _ in range(3))

    def refuse(self, points):
        raise AssertionError("PLFunc.__init__ called on an operation's result")

    monkeypatch.setattr(PLFunc, "__init__", refuse)
    pl_oplus(f, g)
    pl_delta([f, g], h)
    pl_delta([], h)
    for op in (pl_odot, pl_ominus, pl_dist, pl_join, pl_meet, pl_leq, uniform_dist, pl_precompose):
        op(f, g)
    pl_neg(f), pl_nfold(5, f), pl_scale(Q01(2, 3), f), archimedean_certificate(f)
    isbell_reconstruct(increasing_approx(pl_scale(Q01(1, 2), f), 4))
    random_plfunc(rng), pl_const(Q01(1, 3)), pl_identity(), pl_tent()
