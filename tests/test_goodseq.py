import random
from fractions import Fraction

import pytest

from mvdelta.carriers import CHANG, CarrierMismatch, FiniteChain, ProductAlg
from mvdelta.goodseq import (
    GoodSeq,
    WorkBudgetExceeded,
    _Indices,
    _good_seqs,
    NotGoodSequence,
    enumerate_good_seqs,
    gamma_of_xi,
    good_seq,
    gs_add,
    gs_join,
    gs_leq,
    gs_meet,
    is_good,
    xi_add,
    xi_chain_iso,
    xi_eq,
    xi_from_element,
    xi_join,
    xi_leq,
    xi_meet,
    xi_negate,
    xi_unit,
    xi_zero,
)
from oracles import (
    WrongSum,
    enumerate_good_seqs_by_operations,
    gamma_of_xi_by_operations,
    xi_chain_iso_by_operations,
)

L1 = FiniteChain(1)
L2 = FiniteChain(2)


def test_is_good_examples():
    # Over the three-element chain, entries are integers k denoting k/2.
    assert is_good(L2, [2, 1]) == (True, None)
    assert is_good(L2, [1, 1]) == (False, 0)
    assert is_good(L2, []) == (True, None)
    assert is_good(L2, [1]) == (True, None)
    assert is_good(L2, [2, 2, 1]) == (True, None)
    assert is_good(L2, [2, 1, 1]) == (False, 1)


def test_good_seq_construction():
    assert good_seq(L2, [2, 1, 0, 0]).entries == (2, 1)
    assert good_seq(L2, []).entries == ()
    with pytest.raises(NotGoodSequence) as err:
        good_seq(L2, [1, 1])
    assert err.value.index == 0


def test_gs_add_examples():
    # (1, 1/2) + (1/2) = (1, 1) over the three-element chain.
    a = good_seq(L2, [2, 1])
    b = good_seq(L2, [1])
    assert gs_add(a, b).entries == (2, 2)
    # Monoid identity.
    assert gs_add(a, good_seq(L2, [])).entries == a.entries
    # Boolean chain: non-increasing sequences; (1) + (1) = (1, 1).
    one = good_seq(L1, [1])
    assert gs_add(one, one).entries == (1, 1)


def test_gs_add_carrier_mismatch():
    with pytest.raises(CarrierMismatch):
        gs_add(good_seq(L2, [1]), good_seq(L1, [1]))


def test_gs_order_with_padding():
    a = good_seq(L2, [1])
    b = good_seq(L2, [2, 1])
    assert gs_leq(a, b)
    assert not gs_leq(b, a)
    assert gs_leq(a, a)
    assert gs_join(a, b).entries == (2, 1)
    assert gs_meet(a, b).entries == (1,)


def test_gs_add_always_good_random():
    rng = random.Random(3)
    for n in range(1, 6):
        K = FiniteChain(n)
        pool = enumerate_good_seqs(K, 3)
        for _ in range(60):
            a, b = rng.choice(pool), rng.choice(pool)
            out = gs_add(a, b)  # goodness asserted inside
            assert is_good(K, out.entries) == (True, None)


def test_monoid_laws_random():
    rng = random.Random(5)
    for n in range(1, 6):
        K = FiniteChain(n)
        pool = enumerate_good_seqs(K, 3)
        zero = good_seq(K, [])
        for _ in range(40):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert gs_add(a, b).entries == gs_add(b, a).entries
            assert gs_add(gs_add(a, b), c).entries == gs_add(a, gs_add(b, c)).entries
            assert gs_add(a, zero).entries == a.entries


def test_cancellation_exhaustive_small():
    pool = enumerate_good_seqs(L2, 2)
    for a in pool:
        for b in pool:
            for c in pool:
                if gs_add(a, c).entries == gs_add(b, c).entries:
                    assert a.entries == b.entries


def test_xi_group_identities():
    from mvdelta.goodseq import XiElem

    a = good_seq(L2, [2, 1])
    b = good_seq(L2, [1])
    x = XiElem(a, b)
    y = XiElem(b, a)
    zero = xi_zero(L2)
    assert xi_eq(xi_add(x, y), zero)
    assert xi_eq(xi_negate(x), y)
    unit = xi_unit(L2)
    assert xi_leq(xi_negate(unit), zero)
    assert not xi_leq(unit, zero)
    # unit + unit has entry sum 2 under the sum-of-entries identification.
    two = xi_add(unit, unit)
    assert Fraction(sum(two.pos.entries) - sum(two.neg.entries), 2) == 2
    # (1, 1/2) - (1/2) has entry sum 1, i.e. it is the unit itself.
    assert x == unit
    assert xi_add(x, xi_from_element(L2, 1)) == xi_add(
        xi_from_element(L2, 1), xi_unit(L2)
    )


def test_xi_lattice_sanity():
    unit = xi_unit(L2)
    zero = xi_zero(L2)
    half = xi_from_element(L2, 1)
    assert xi_eq(xi_join(zero, half), half)
    assert xi_eq(xi_meet(unit, half), half)
    assert xi_leq(xi_meet(half, unit), xi_join(half, zero))


def test_gamma_of_xi_chains():
    for n in range(1, 7):
        report = gamma_of_xi(FiniteChain(n))
        assert report.ok, n
        assert report.window_classes == n + 1
    assert gamma_of_xi(FiniteChain(1)).window_classes == 2


def test_gamma_of_xi_trivial_and_product():
    assert gamma_of_xi(FiniteChain(0)).window_classes == 1
    report = gamma_of_xi(ProductAlg((FiniteChain(2), FiniteChain(3))))
    assert report.ok
    assert report.window_classes == 12


def test_xi_chain_iso_examples():
    report = xi_chain_iso(2, 4)
    assert report.sequences == 9 and report.ok
    report = xi_chain_iso(1, 3)
    assert report.sequences == 4 and report.ok
    report = xi_chain_iso(1, 0)
    assert report.sequences == 1 and report.ok
    with pytest.raises(ValueError):
        xi_chain_iso(0, 3)
    with pytest.raises(ValueError):
        xi_chain_iso(2, -3)
    with pytest.raises(ValueError):
        xi_chain_iso(2, Fraction(-1, 2))


def test_enumerate_good_seqs_requires_finite():
    with pytest.raises(CarrierMismatch):
        enumerate_good_seqs(CHANG, 2)


def test_good_seqs_over_chain_shape():
    # Over a chain, goodness forces: a run of tops, one arbitrary entry, zeros.
    for seq in enumerate_good_seqs(FiniteChain(3), 4):
        entries = seq.entries
        if entries:
            assert all(e == 3 for e in entries[:-1])


# The table kernel against the round trips run on the carrier's own
# operations (tests/oracles.py).

GAMMA_GRID = [FiniteChain(n) for n in range(9)] + [
    ProductAlg((FiniteChain(1), FiniteChain(2))),
    ProductAlg((FiniteChain(1), FiniteChain(1), FiniteChain(1))),
    ProductAlg((FiniteChain(2), FiniteChain(3))),
]


@pytest.mark.parametrize("carrier", GAMMA_GRID, ids=lambda c: c.spec)
def test_good_seqs_number_at_least_the_elements(carrier):
    # gamma_of_xi's lower bound: () and the one-entry sequences are |A|.
    K = _Indices(carrier.tables)
    assert len(_good_seqs(K, 1)) == carrier.size() <= len(_good_seqs(K, 3))


def test_gamma_of_xi_refuses_a_long_chain_before_tabulating():
    chain = FiniteChain(1000)
    with pytest.raises(WorkBudgetExceeded, match=r"needs about 1\.00e\+9 steps"):
        gamma_of_xi(chain)
    assert "tables" not in vars(chain)


@pytest.mark.parametrize("carrier", GAMMA_GRID, ids=lambda c: c.spec)
def test_gamma_of_xi_matches_operations_oracle(carrier):
    assert gamma_of_xi(carrier) == gamma_of_xi_by_operations(carrier)


@pytest.mark.parametrize("bound", [0, 1, 2, 4, Fraction(7, 3), Fraction(1, 2)])
def test_xi_chain_iso_matches_operations_oracle(bound):
    for n in range(1, 11):
        assert xi_chain_iso(n, bound) == xi_chain_iso_by_operations(n, bound)


@pytest.mark.parametrize("carrier", GAMMA_GRID[:5] + GAMMA_GRID[-3:], ids=lambda c: c.spec)
def test_enumerate_good_seqs_matches_operations_oracle(carrier):
    for max_len in range(4):
        assert enumerate_good_seqs(carrier, max_len) == enumerate_good_seqs_by_operations(
            carrier, max_len
        )


def _outcome(round_trip, carrier):
    try:
        return round_trip(carrier)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


@pytest.mark.parametrize("n", [2, 3])
def test_gamma_of_xi_tests_the_carriers_own_oplus(n):
    # Every single-entry corruption of the chain's oplus: the table kernel
    # reads the tables off that oplus, so it must give the oracle's report
    # or raise the oracle's exception type.
    outcomes = set()
    for x in range(n + 1):
        for y in range(n + 1):
            for wrong in set(range(n + 1)) - {min(x + y, n)}:
                carrier = WrongSum(n, x, y, wrong)
                got = _outcome(gamma_of_xi, carrier)
                assert got == _outcome(gamma_of_xi_by_operations, carrier), (x, y, wrong)
                outcomes.add(got if isinstance(got, type) else got.ok)
    assert {False, AssertionError} <= outcomes
