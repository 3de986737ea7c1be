from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdelta.carriers import CHANG, Q01_CARRIER, carrier_from_spec
from mvdelta.rationals import ONE, Q01, ZERO, parse_q01
from mvdelta.terms import ParseError, parse, print_term

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


@settings(derandomize=True)
@given(q01s, q01s)
def test_scale_total_and_exact(r, x):
    # The product of two Q01 values is again a Q01: no clamping is needed.
    assert Q01(r * x) == Fraction(r) * Fraction(x)


@settings(derandomize=True)
@given(q01s)
def test_involution_and_units(x):
    assert neg(neg(x)) == x
    assert oplus(x, ZERO) == x
    assert oplus(x, ONE) == ONE
    assert nfold(1, x) == x


@settings(derandomize=True)
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


# --- literal grammar: ASCII digits only ----------------------------------------

# Characters a literal might be mistyped with: other Unicode digits,
# whitespace (a newline among it), signs, underscores and slashes.
_FOREIGN = "٣３\U0001d7d1² \n\t\u00a0+-_/"


@st.composite
def _mistyped(draw, texts):
    """A text drawn from texts, in half the draws with one foreign character
    inserted or substituted."""
    text = draw(texts)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        j = min(i + draw(st.integers(0, 1)), len(text))
        text = text[:i] + draw(st.sampled_from(_FOREIGN)) + text[j:]
    return text


_rational_texts = _mistyped(st.builds(
    lambda v, k: f"{v.numerator * k}/{v.denominator * k}" if k > 1 else str(v),
    st.fractions(min_value=0, max_value=1, max_denominator=64), st.integers(1, 3),
))
_int_texts = _mistyped(st.integers(-30, 300).map(str))


def _ascii_int(text: str, signed: bool = False):
    """The int an ASCII digit run (optionally after one "-") denotes, else None."""
    digits = text[1:] if signed and text.startswith("-") else text
    if digits and all(ch in "0123456789" for ch in digits):
        return int(text)
    return None


def _canonical_rational(text: str):
    """The canonical print of a p/q literal in [0, 1], else None."""
    parts = text.split("/")
    ints = [_ascii_int(p) for p in parts]
    if len(parts) > 2 or None in ints or (len(ints) == 2 and ints[1] == 0):
        return None
    value = Fraction(ints[0], ints[1] if len(ints) == 2 else 1)
    return str(value) if value <= 1 else None


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_rational_texts)
def test_accepted_rational_literals_print_back_canonically(text):
    expected = _canonical_rational(text)
    try:
        value = parse_q01(text)
    except ValueError:
        assert expected is None
    else:
        assert str(value) == expected and parse_q01(expected) == value
    # The term parser reads a literal as parse_q01 does, up to the
    # whitespace around it: "1 / 2" is no rational in either.
    try:
        want = str(parse_q01(text.strip()))
    except ValueError:
        want = None
    try:
        got = print_term(parse(text))
    except ParseError:
        got = None
    assert got == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_int_texts)
def test_accepted_counts_and_chain_specs_print_back_canonically(text):
    n = _ascii_int(text.strip())  # counts are at least 1
    try:
        printed = print_term(parse(f"nfold({text}, x)"))
    except ParseError:
        assert not n
    else:
        assert n and printed == f"nfold({n}, x)"
    n = _ascii_int(text.rstrip(" "))
    try:
        spec = carrier_from_spec("chain:" + text).spec
    except ValueError:
        assert n is None
    else:
        assert spec == f"chain:{n}" and carrier_from_spec(spec).spec == spec


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_int_texts, _int_texts)
def test_accepted_chang_literals_print_back_canonically(level, offset):
    a, b = _ascii_int(level.strip(" "), signed=True), _ascii_int(offset.strip(" "), signed=True)
    valid = None not in (a, b) and ((a == 0 and b >= 0) or (a == 1 and b <= 0))
    try:
        printed = CHANG.format_element(CHANG.parse_element(f"({level},{offset})"))
    except ValueError:
        assert not valid
    else:
        assert valid and printed == f"({a},{b})"
