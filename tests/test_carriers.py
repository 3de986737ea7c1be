import random
from enum import IntEnum
from fractions import Fraction

import pytest

from mvdelta import corpus
from mvdelta.carriers import (
    CHANG,
    Q01_CARRIER,
    Carrier,
    CarrierError,
    CarrierMismatch,
    ChangAlgebra,
    ChangElem,
    ConstUnsupported,
    DeltaUnsupported,
    FiniteChain,
    ProductAlg,
    TableBudgetExceeded,
    _check_chain,
    carrier_from_spec,
    enumerate_ideals,
    halving_witness,
    index_tables,
    is_ideal,
    is_infinitesimal,
    maximal_ideals,
    principal_ideal,
    radical,
)
from mvdelta.goodseq import _Indices
from mvdelta.plfunc import PL_CARRIER, pl_identity, random_plfunc
from mvdelta.rationals import Q01
from mvdelta.terms import evaluate, free_vars
from oracles import (
    WrongSum, brute_force_ideals, halve_n_by_loop, nfold_by_loop, tables_by_operations
)

# Every product of chains with at most 8 elements, up to the trivial chain.
SMALL_FINITE_SPECS = [f"chain:{n}" for n in range(1, 8)] + [
    "prod(chain:1,chain:1)",
    "prod(chain:1,chain:2)",
    "prod(chain:2,chain:1)",
    "prod(chain:1,chain:3)",
    "prod(chain:3,chain:1)",
    "prod(chain:1,chain:1,chain:1)",
]


def test_chain_operations():
    l2 = FiniteChain(2)
    assert l2.oplus(1, 1) == 2  # 1/2 + 1/2 truncates to 1
    assert l2.neg(0) == 2 and l2.one() == 2
    assert l2.leq(1, 2) and not l2.leq(2, 1)
    assert l2.const(Q01(1, 2)) == 1
    with pytest.raises(ConstUnsupported):
        l2.const(Q01(1, 3))
    assert l2.format_element(1) == "1/2"
    assert l2.parse_element("1/2") == 1
    with pytest.raises(CarrierMismatch):
        l2.oplus(1, 5)


def test_trivial_chain():
    triv = FiniteChain(0)
    assert triv.elements() == [0]
    assert triv.one() == 0 == triv.zero()
    assert triv.const(Q01(1, 3)) == 0
    assert radical(triv).elements == frozenset({0})


@pytest.mark.parametrize("bad", [True, 1.0, Fraction(1), -1, 4], ids=repr)
def test_chain_oplus_refuses_a_non_element_in_either_argument(bad):
    # Exact ints in range take a fast path; every other input is checked.
    chain = FiniteChain(3)
    for x, y in ((bad, 1), (1, bad)):
        with pytest.raises(CarrierMismatch) as err:
            chain.oplus(x, y)
        assert str(err.value) == f"{bad!r} is not an element of chain:3"


def test_chain_oplus_takes_an_int_subclass_member_in_range():
    class Level(IntEnum):
        LOW = 1
        HIGH = 3

    chain = FiniteChain(3)
    assert chain.oplus(Level.LOW, 1) == 2 == chain.oplus(1, Level.LOW)
    assert chain.oplus(Level.HIGH, Level.LOW) == 3
    assert type(chain.oplus(Level.LOW, Level.LOW)) is int


@pytest.mark.parametrize("bad", [True, 1.0, Fraction(1), -1, 4], ids=repr)
def test_chain_neg_and_leq_refuse_a_non_element(bad):
    chain = FiniteChain(3)
    calls = [lambda: chain.neg(bad), lambda: chain.leq(bad, 1), lambda: chain.leq(1, bad)]
    for call in calls:
        with pytest.raises(CarrierMismatch) as err:
            call()
        assert str(err.value) == f"{bad!r} is not an element of chain:3"


def test_chain_neg_and_leq_take_an_int_subclass_member_in_range():
    class Level(IntEnum):
        LOW = 1
        HIGH = 3

    chain = FiniteChain(3)
    assert chain.neg(Level.LOW) == 2 and type(chain.neg(Level.HIGH)) is int
    assert chain.leq(Level.LOW, Level.HIGH) and chain.leq(Level.LOW, 1)
    assert not chain.leq(Level.HIGH, 2) and not chain.leq(2, Level.LOW)


def test_chain_check_calls_the_chains_own_oplus():
    with pytest.raises(AssertionError, match="homomorphism check on chain:3"):
        _check_chain(WrongSum(3, 1, 1, 3))


def test_chain_check_calls_the_chains_own_neg():
    class WrongNeg(FiniteChain):
        def neg(self, x):
            return 0 if x == 1 else super().neg(x)

    with pytest.raises(AssertionError, match="homomorphism check on chain:3"):
        _check_chain(WrongNeg(3))


def test_chang_operations():
    assert CHANG.oplus(ChangElem(0, 2), ChangElem(0, 3)) == ChangElem(0, 5)
    assert CHANG.oplus(ChangElem(1, -2), ChangElem(0, 5)) == ChangElem(1, 0)
    assert CHANG.neg(ChangElem(0, 7)) == ChangElem(1, -7)
    assert CHANG.one() == ChangElem(1, 0)
    assert CHANG.leq(ChangElem(0, 100), ChangElem(1, -100))
    assert CHANG.const(Q01(0)) == ChangElem(0, 0)
    assert CHANG.const(Q01(1)) == ChangElem(1, 0)
    with pytest.raises(ConstUnsupported):
        CHANG.const(Q01(1, 2))
    with pytest.raises(ValueError):
        ChangElem(0, -1)
    with pytest.raises(ValueError):
        ChangElem(1, 1)
    with pytest.raises(ValueError):
        ChangElem(2, 0)
    with pytest.raises(CarrierMismatch):
        CHANG.oplus(ChangElem(0, 0), 1)
    assert CHANG.parse_element("(1,-3)") == ChangElem(1, -3)
    assert CHANG.format_element(ChangElem(1, -3)) == "(1,-3)"


def test_product_operations():
    p = ProductAlg((FiniteChain(2), FiniteChain(3)))
    assert p.oplus((1, 2), (1, 2)) == (2, 3)
    assert p.neg((1, 0)) == (1, 3)
    assert p.leq((0, 1), (1, 1)) and not p.leq((1, 0), (0, 3))
    assert len(p.elements()) == 12
    assert p.format_element((1, 2)) == "(1/2, 2/3)"
    assert p.parse_element("(1/2, 2/3)") == (1, 2)
    with pytest.raises(CarrierMismatch):
        p.oplus((1, 2), (1, 2, 3))


def test_carrier_from_spec_roundtrip():
    for spec in ["q01", "chang", "chain:4", "prod(chain:2,chain:3)", "prod(chain:1,prod(chain:2,chain:2))"]:
        assert carrier_from_spec(spec).spec == spec
    with pytest.raises(ValueError):
        carrier_from_spec("chain:x")
    with pytest.raises(ValueError):
        carrier_from_spec("ring:3")
    with pytest.raises(ValueError):
        carrier_from_spec("prod()")


def test_ideals_of_small_chains():
    l2 = FiniteChain(2)
    assert enumerate_ideals(l2) == [frozenset({0}), frozenset({0, 1, 2})]
    l1 = FiniteChain(1)
    assert enumerate_ideals(l1) == [frozenset({0}), frozenset({0, 1})]
    # {0, 1/2} is not an ideal of the three-element chain.
    assert not is_ideal(l2, frozenset({0, 1}))


def test_ideals_of_products_are_factor_products():
    p = ProductAlg((FiniteChain(2), FiniteChain(1)))
    assert len(enumerate_ideals(p)) == 4
    p23 = ProductAlg((FiniteChain(2), FiniteChain(3)))
    ideals = enumerate_ideals(p23)
    assert len(ideals) == 4
    maxes = maximal_ideals(p23)
    assert len(maxes) == 2
    assert frozenset(t for t in p23.elements() if t[0] == 0) in maxes
    assert frozenset(t for t in p23.elements() if t[1] == 0) in maxes


@pytest.mark.parametrize("spec", SMALL_FINITE_SPECS)
def test_ideals_agree_with_subset_search(spec):
    K = carrier_from_spec(spec)
    expected = brute_force_ideals(K)
    ideals = enumerate_ideals(K)
    assert len(ideals) == len(expected) and set(ideals) == set(expected)
    proper = [i for i in expected if len(i) < len(K.elements())]
    expected_max = {i for i in proper if not any(i < j for j in proper)}
    maxes = maximal_ideals(K)
    assert len(maxes) == len(expected_max) and set(maxes) == expected_max
    assert radical(K).elements == frozenset(K.elements()).intersection(*expected_max)


def test_is_ideal_rejects_foreign_elements():
    with pytest.raises(CarrierMismatch):
        is_ideal(FiniteChain(2), frozenset({0, 7}))
    with pytest.raises(CarrierMismatch):
        is_ideal(ProductAlg((FiniteChain(2), FiniteChain(3))), frozenset({(0, 0), (0, 4)}))
    # Without zero the answer is False before any element is looked up.
    assert not is_ideal(FiniteChain(2), frozenset({1, 7}))
    # Values that hash like elements are still not elements.
    with pytest.raises(CarrierMismatch):
        is_infinitesimal(FiniteChain(2), True)
    with pytest.raises(CarrierMismatch):
        principal_ideal(ProductAlg((FiniteChain(2), FiniteChain(3))), (1.0, 0))


def test_principal_ideal_generation():
    l4 = FiniteChain(4)
    assert principal_ideal(l4, 0) == frozenset({0})
    # Any nonzero generator of a chain reaches the top by iterated sums.
    assert principal_ideal(l4, 1) == frozenset({0, 1, 2, 3, 4})


def test_every_nontrivial_finite_carrier_has_a_maximal_ideal():
    for K in [
        FiniteChain(1),
        FiniteChain(5),
        ProductAlg((FiniteChain(2), FiniteChain(3))),
        ProductAlg((FiniteChain(1), FiniteChain(1), FiniteChain(2))),
    ]:
        assert len(maximal_ideals(K)) >= 1


def test_radical_of_chains_and_products_is_trivial():
    for K in [FiniteChain(1), FiniteChain(4), FiniteChain(8),
              ProductAlg((FiniteChain(2), FiniteChain(3)))]:
        assert radical(K).elements == frozenset({K.zero()})


def test_radical_of_chang_closed_form():
    rad = radical(CHANG)
    assert rad.kind == "closed-form"
    assert rad.contains(CHANG, ChangElem(0, 123))
    assert not rad.contains(CHANG, ChangElem(1, -123))


def test_is_infinitesimal_chang():
    assert is_infinitesimal(CHANG, ChangElem(0, 1)).verdict
    cert = is_infinitesimal(CHANG, ChangElem(1, -5))
    assert not cert.verdict and cert.failing_n == 1
    assert not is_infinitesimal(CHANG, ChangElem(0, 0)).verdict


def test_is_infinitesimal_finite():
    l2 = FiniteChain(2)
    cert = is_infinitesimal(l2, 1)  # the element 1/2
    assert not cert.verdict and cert.failing_n == 2
    assert not is_infinitesimal(l2, 0).verdict
    with pytest.raises(CarrierError):
        is_infinitesimal(Q01_CARRIER, Q01(1, 2))


def test_halving_witness_examples():
    assert halving_witness(ChangElem(0, 2)) == ChangElem(0, 1)
    assert halving_witness(ChangElem(0, 1)) is None
    assert halving_witness(ChangElem(0, 0)) == ChangElem(0, 0)
    assert halving_witness(ChangElem(1, -4)) is None
    assert halving_witness(ChangElem(1, 0)) is None


def test_halving_witness_doubling_echo():
    # Doubling an infinitesimal then halving recovers it, for all small offsets.
    for k in range(0, 51):
        assert halving_witness(ChangElem(0, 2 * k)) == ChangElem(0, k)


def test_small_square_zero_elements_multiply_to_zero():
    # x.x = 0 and y.y = 0 force x.y = 0.
    for n in range(1, 9):
        K = FiniteChain(n)
        small = [x for x in K.elements() if K.odot(x, x) == 0]
        for x in small:
            for y in small:
                assert K.odot(x, y) == 0
    small = [ChangElem(0, k) for k in range(0, 51)]
    big = [ChangElem(1, -k) for k in range(0, 51)]
    for x in small + big:
        if CHANG.odot(x, x) != CHANG.zero():
            continue
        for y in small:
            assert CHANG.odot(x, y) == CHANG.zero()


def test_mv_laws_hold_pointwise_on_carriers():
    chang_samples = [ChangElem(0, k) for k in (0, 1, 5)] + [
        ChangElem(1, -k) for k in (0, 1, 5)
    ]
    carriers = [
        (FiniteChain(2), FiniteChain(2).elements()),
        (FiniteChain(3), FiniteChain(3).elements()),
        (ProductAlg((FiniteChain(1), FiniteChain(2))),
         ProductAlg((FiniteChain(1), FiniteChain(2))).elements()),
        (CHANG, chang_samples),
    ]
    for law in corpus.mv_laws():
        variables = sorted(free_vars(law.lhs) | free_vars(law.rhs))
        if len(variables) > 2:
            continue
        for K, elems in carriers:
            for a in elems:
                for b in elems:
                    assignment = dict(zip(variables, [a, b]))
                    lv = evaluate(law.lhs, assignment, K)
                    rv = evaluate(law.rhs, assignment, K)
                    ok = K.eq(lv, rv) if law.relation == "eq" else K.leq(lv, rv)
                    assert ok, (law.name, K.spec, assignment)


def test_three_variable_mv_laws_exhaustive_on_small_chain():
    K = FiniteChain(3)
    elems = K.elements()
    for law in corpus.mv_laws():
        variables = sorted(free_vars(law.lhs) | free_vars(law.rhs))
        if len(variables) != 3:
            continue
        for a in elems:
            for b in elems:
                for c in elems:
                    assignment = dict(zip(variables, [a, b, c]))
                    lv = evaluate(law.lhs, assignment, K)
                    rv = evaluate(law.rhs, assignment, K)
                    assert K.eq(lv, rv) if law.relation == "eq" else K.leq(lv, rv)


def test_product_delta_over_unit_interval_factors():
    # A product of unit intervals supports delta componentwise.
    p = ProductAlg((Q01_CARRIER, Q01_CARRIER))
    out = p.delta([(Q01(1), Q01(0))], (Q01(0), Q01(1)))
    assert out == (Q01(1, 2), Q01(1, 2))
    # With a function factor, each component is that factor's own delta.
    p = ProductAlg((Q01_CARRIER, PL_CARRIER))
    rng = random.Random(3)
    qs = [Q01(1, 3), Q01(1), Q01(0), Q01(5, 7)]
    fs = [random_plfunc(rng, depth=3) for _ in qs]
    out = p.delta(list(zip(qs[:-1], fs[:-1])), (qs[-1], fs[-1]))
    assert out == (Q01_CARRIER.delta(qs[:-1], qs[-1]), PL_CARRIER.delta(fs[:-1], fs[-1]))


def test_delta_unsupported_on_chains_and_chang():
    from mvdelta.carriers import DeltaUnsupported

    with pytest.raises(DeltaUnsupported):
        FiniteChain(2).delta([1], 0)
    with pytest.raises(DeltaUnsupported):
        CHANG.delta([ChangElem(0, 1)], ChangElem(0, 0))
    with pytest.raises(DeltaUnsupported):
        ProductAlg((FiniteChain(2), FiniteChain(2))).delta([(1, 1)], (0, 0))
    # An empty prefix is midpoint(c, c), refused as well.
    with pytest.raises(DeltaUnsupported):
        FiniteChain(2).delta([], 1)
    with pytest.raises(DeltaUnsupported):
        CHANG.delta([], ChangElem(0, 1))


def test_ideal_enumeration_requires_finite():
    with pytest.raises(CarrierError):
        enumerate_ideals(CHANG)
    with pytest.raises(CarrierError):
        enumerate_ideals(Q01_CARRIER)
    # The multiples of an infinitesimal never settle; refuse instead of looping.
    with pytest.raises(CarrierError):
        principal_ideal(CHANG, ChangElem(0, 1))


def test_generic_operation_dispatch():
    l4 = FiniteChain(4)
    assert getattr(l4, "oplus")(1, 2) == 3
    assert getattr(l4, "neg")(1) == 3
    assert getattr(l4, "dist")(1, 3) == 2
    assert getattr(l4, "nfold")(3, 2) == 4
    assert getattr(CHANG, "meet")(ChangElem(0, 2), ChangElem(1, -1)) == ChangElem(0, 2)


def _counted_cases():
    """(carrier, elements) pairs covering every carrier kind and each override."""
    rng = random.Random(7)
    pl = [random_plfunc(rng, max_interior=2, depth=3) for _ in range(4)] + [pl_identity()]
    q01 = [Q01(k, 12) for k in range(13)] + [Q01(1, 3), Q01(2, 7)]
    chain = FiniteChain(5)
    chang = [ChangElem(0, 0), ChangElem(0, 3), ChangElem(1, -2), ChangElem(1, 0)]
    return [
        (Q01_CARRIER, q01),
        (chain, chain.elements()),
        (FiniteChain(1), [0, 1]),
        (ProductAlg((FiniteChain(2), FiniteChain(3))), ProductAlg((FiniteChain(2), FiniteChain(3))).elements()),
        (ProductAlg((Q01_CARRIER, PL_CARRIER)), [(q, f) for q, f in zip(q01, pl)]),
        (CHANG, chang),
        (PL_CARRIER, pl),
    ]


@pytest.mark.parametrize("carrier, elems", _counted_cases(), ids=lambda c: getattr(c, "spec", ""))
def test_nfold_and_halve_n_agree_with_loops(carrier, elems):
    for x in elems:
        for n in (1, 2, 3, 5, 8, 13):
            assert carrier.nfold(n, x) == nfold_by_loop(carrier, n, x)
        for n in (1, 2, 3, 6):
            try:
                want = halve_n_by_loop(carrier, n, x)
            except DeltaUnsupported as exc:
                with pytest.raises(DeltaUnsupported) as raised:
                    carrier.halve_n(n, x)
                assert raised.value.args == exc.args
                continue
            got = carrier.halve_n(n, x)
            # Equal element objects, so printed elements cannot differ.
            assert got == want and carrier.format_element(got) == carrier.format_element(want)


def test_halve_n_default_is_one_delta_call():
    calls = []

    class Counted(type(Q01_CARRIER)):
        def delta(self, prefix, tail):
            calls.append(len(prefix))
            return super().delta(prefix, tail)

    carrier = Counted()
    assert Carrier.halve_n(carrier, 5, Q01(1, 3)) == Q01(1, 96)
    assert calls == [5]
    with pytest.raises(ValueError):
        Carrier.halve_n(carrier, 0, Q01(1, 3))


@pytest.mark.parametrize(
    "spec",
    [
        "chain:0",
        "chain:7",
        "prod(chain:0,chain:2)",
        "prod(chain:4)",
        "prod(chain:1,prod(chain:2,chain:2))",
        "prod(" + ",".join(["chain:2"] * 5) + ")",
    ],
)
def test_tables_agree_with_the_operations(spec):
    # The index tables composed from the chain factors, and the zero and
    # neg that the good-sequence layer derives from the index order.
    carrier = carrier_from_spec(spec)
    oplus, leq = index_tables(carrier)
    K = _Indices(carrier)
    got = {
        "elements": carrier.chain_factors.elements,
        "zero": 0,
        "neg": K.neg,
        "oplus": oplus,
        "leq": leq,
    }
    want = tables_by_operations(carrier_from_spec(spec))
    for field, value in got.items():
        assert value == getattr(want, field), field


class _Listed(Exception):
    pass


@pytest.mark.parametrize(
    "admitted, refused",
    [
        (FiniteChain(1023), FiniteChain(1024)),
        (
            ProductAlg((FiniteChain(1), FiniteChain(511))),
            ProductAlg((FiniteChain(4), ProductAlg((FiniteChain(0), FiniteChain(204))))),
        ),
    ],
    ids=["chain", "product"],
)
def test_table_budget_admits_1024_elements_and_refuses_1025(monkeypatch, admitted, refused):
    def listed(self):
        raise _Listed(self.spec)

    for cls in (FiniteChain, ProductAlg):
        monkeypatch.setattr(cls, "elements", listed)
    assert admitted.size() == 1024 and refused.size() == 1025
    # The admitted carrier gets past the budget to its one listing; the
    # refused one is stopped before any element is listed.
    with pytest.raises(_Listed):
        admitted.chain_factors
    with pytest.raises(TableBudgetExceeded) as exc:
        refused.chain_factors
    assert str(exc.value) == (
        f"table budget exceeded: {refused.spec} has 1025 elements, "
        "over the limit of 1024 (1048576 table entries)"
    )
