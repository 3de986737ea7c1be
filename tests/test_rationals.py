from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvdelta.carriers import Q01_CARRIER
from mvdelta.rationals import ONE, Q01, ZERO, parse_q01

oplus, neg, odot, ominus = Q01_CARRIER.oplus, Q01_CARRIER.neg, Q01_CARRIER.odot, Q01_CARRIER.ominus
dist, join, meet, nfold = Q01_CARRIER.dist, Q01_CARRIER.join, Q01_CARRIER.meet, Q01_CARRIER.nfold

q01s = st.fractions(min_value=0, max_value=1).map(Q01)


def test_q01_canonical_form():
    x = Q01(2, 4)
    assert (x.numerator, x.denominator) == (1, 2)
    assert str(x) == "1/2"
    assert str(Q01(0)) == "0" and str(Q01(1)) == "1"


def test_q01_rejects_out_of_range():
    with pytest.raises(ValueError):
        Q01(3, 2)
    with pytest.raises(ValueError):
        Q01(-1, 2)


def test_parse_q01():
    assert parse_q01("1/2") == Q01(1, 2)
    assert parse_q01("0") == ZERO
    assert parse_q01("1") == ONE
    assert parse_q01("7/12") == Q01(7, 12)
    for bad in ["3/2", "1/0", "-1/2", "1 / 2", "0.5", ""]:
        with pytest.raises(ValueError):
            parse_q01(bad)


def test_oplus_examples():
    assert oplus(Q01(1, 3), Q01(1, 4)) == Q01(7, 12)
    assert oplus(Q01(1, 2), Q01(3, 4)) == ONE


def test_neg_examples():
    assert neg(Q01(2, 5)) == Q01(3, 5)
    assert neg(ZERO) == ONE


def test_derived_examples():
    assert odot(Q01(1, 2), Q01(3, 4)) == Q01(1, 4)
    assert dist(Q01(1, 3), Q01(3, 4)) == Q01(5, 12)
    assert getattr(Q01_CARRIER, "odot")(Q01(1, 2), Q01(3, 4)) == Q01(1, 4)


def test_nfold_examples():
    assert nfold(3, Q01(1, 4)) == Q01(3, 4)
    assert nfold(5, Q01(1, 4)) == ONE
    with pytest.raises(ValueError):
        nfold(0, ONE)


def test_scale_examples():
    assert Q01(Q01(1, 2) * Q01(2, 3)) == Q01(1, 3)
    assert Q01(ZERO * Q01(2, 3)) == ZERO
    assert Q01(ONE * Q01(2, 3)) == Q01(2, 3)


@given(q01s, q01s)
def test_scale_total_and_exact(r, x):
    # The product of two Q01 values is again a Q01: no clamping is needed.
    assert Q01(r * x) == Fraction(r) * Fraction(x)


@given(q01s)
def test_involution_and_units(x):
    assert neg(neg(x)) == x
    assert oplus(x, ZERO) == x
    assert oplus(x, ONE) == ONE
    assert nfold(1, x) == x


@given(q01s, q01s, q01s)
def test_monoid_laws(x, y, z):
    assert oplus(x, y) == oplus(y, x)
    assert oplus(oplus(x, y), z) == oplus(x, oplus(y, z))


def test_characteristic_law_on_grid(grid6):
    for x in grid6:
        for y in grid6:
            assert oplus(neg(oplus(neg(x), y)), y) == oplus(neg(oplus(neg(y), x)), x)


def test_lattice_ops_match_min_max(grid6):
    for x in grid6:
        for y in grid6:
            assert join(x, y) == max(x, y)
            assert meet(x, y) == min(x, y)
            assert dist(x, y) == abs(Fraction(x) - Fraction(y))
    for x in grid6:
        assert join(x, x) == x
        assert meet(x, ONE) == x


def test_order_equivalences_on_grid(grid6):
    # The four characterisations of the order must agree pairwise.
    for x in grid6:
        for y in grid6:
            c1 = oplus(neg(x), y) == ONE
            c2 = ominus(x, y) == ZERO
            c3 = y == oplus(x, ominus(y, x))
            assert c1 == c2 == c3 == (x <= y)


def test_order_witness_exists(grid3):
    for x in grid3:
        for y in grid3:
            has_witness = any(oplus(x, z) == y for z in grid3)
            assert has_witness == (x <= y)


def test_monotonicity_on_grid(grid3):
    for x in grid3:
        for y in grid3:
            if not x <= y:
                continue
            for w in grid3:
                for z in grid3:
                    if w <= z:
                        assert odot(x, w) <= odot(y, z)
                        assert oplus(x, w) <= oplus(y, z)


def test_distance_recovers_order_gap(grid6):
    for x in grid6:
        for y in grid6:
            if x <= y:
                assert y == oplus(x, dist(x, y))


def test_cancellation_on_grid(grid4):
    for x in grid4:
        for y in grid4:
            for z in grid4:
                if (
                    oplus(x, z) == oplus(y, z)
                    and odot(x, z) == ZERO
                    and odot(y, z) == ZERO
                ):
                    assert x == y


def test_absorption_identities(grid6):
    for x in grid6:
        for y in grid6:
            assert oplus(oplus(x, y), odot(x, y)) == oplus(x, y)
            assert oplus(ominus(x, y), odot(oplus(x, neg(y)), y)) == x
