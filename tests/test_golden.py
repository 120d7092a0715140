import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from horbits.golden import (
    GoldenNumber,
    ONE,
    TAU,
    TAU_PRIME,
    ZERO,
    golden,
    parse_golden,
    value_fraction,
)

rationals = st.fractions(
    min_value=Fraction(-120), max_value=Fraction(120), max_denominator=24
)
goldens = st.builds(GoldenNumber, rationals, rationals)
nonzero_goldens = goldens.filter(bool)


def test_tau_squared_is_tau_plus_one():
    assert TAU * TAU == golden(1, 1)


def test_tau_prime_times_tau():
    assert TAU_PRIME * TAU == golden(-1)


def test_additive_identity():
    x = golden(Fraction(3, 7), -2)
    assert x + ZERO == x


def test_inverse_of_tau():
    assert TAU.inverse() == golden(-1, 1)


def test_inverse_of_one():
    assert ONE.inverse() == ONE


def test_inverse_round_trip():
    x = golden(3) - TAU
    assert x.inverse() * x == ONE


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_division():
    assert (TAU * TAU) / TAU == TAU


def test_power():
    assert TAU ** 5 == golden(3, 5)
    assert TAU ** 0 == ONE
    assert TAU ** -1 == TAU.inverse()


def test_comparisons():
    assert TAU - 1 > 0
    assert golden(2) - TAU < TAU - 1
    x = golden(Fraction(1, 2), Fraction(-1, 3))
    assert not x < x
    # != comes from __eq__, reflected operands and NotImplemented included
    assert not x != golden(Fraction(1, 2), Fraction(-1, 3)) and x != TAU
    assert not golden(2) != 2 and not 2 != golden(2) and golden(2) != 3
    assert not golden(Fraction(1, 2)) != Fraction(1, 2) and Fraction(1, 3) != golden(Fraction(1, 2))
    assert golden(1) != "1" and "1" != golden(1)


def test_float_values():
    assert float(TAU) == 1.618033988749895
    assert float(ZERO) == 0.0
    assert float(golden(3) - TAU) == 1.381966011250105


def test_text_round_trip_examples():
    for text in ["3", "-1/2t", "1+1t", "0", "1t", "3-2t", "-1/2+1/3t", "-5"]:
        assert str(parse_golden(text)) == text
    assert parse_golden("2/04") == golden(Fraction(1, 2))
    rng = random.Random(13)
    for _ in range(300):
        x = golden(*(Fraction(rng.randint(-99, 99), rng.randint(1, 30)) * rng.randint(0, 1)
                     for _ in range(2)))
        text = str(x)
        assert str(x) == text and parse_golden(text) == x
        assert set(text) <= set("0123456789+-/t")
        with pytest.raises(AttributeError):
            x._text = "0"
        assert str(x) == text


def test_parse_rejects_garbage():
    for bad in ["", "t", "1.5", "one", "1+", "1+2", "1txx", "t2", "1 + 2t",
                "1/0", "1/0t", "1+1/0t", "0/0"]:
        with pytest.raises(ValueError):
            parse_golden(bad)


def test_parse_accepts_signed_tau_coefficient():
    assert parse_golden("1+-2t") == golden(1, -2)
    assert parse_golden("1-+2t") == golden(1, -2)


def test_is_ztau():
    assert golden(2, -3).is_ztau
    assert not golden(Fraction(1, 2), 0).is_ztau


@given(goldens, goldens, goldens)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(nonzero_goldens)
def test_inverse_axiom(x):
    assert x * x.inverse() == ONE


@given(goldens, goldens)
def test_order_via_difference(x, y):
    assert (x > y) == ((x - y) > ZERO)
    assert (x == y) == (not (x < y) and not (y < x))


@given(goldens)
def test_float_sign_matches_exact_sign(x):
    f = float(x)
    if x.sign() > 0:
        assert f > 0
    elif x.sign() < 0:
        assert f < 0
    else:
        assert f == 0.0


@given(goldens)
def test_text_round_trip(x):
    assert parse_golden(str(x)) == x


def _text_by_comparisons(x):
    """The text form spelled out with Fraction comparisons and ``abs``."""
    if x.tau == 0:
        return str(x.rat)
    if x.rat == 0:
        return f"{x.tau}t"
    sep = "+" if x.tau > 0 else "-"
    return f"{x.rat}{sep}{abs(x.tau)}t"


parts_with_zero = st.one_of(st.just(Fraction(0)), rationals)


@given(st.builds(GoldenNumber, parts_with_zero, parts_with_zero))
def test_text_matches_comparison_form(x):
    assert str(x) == _text_by_comparisons(x)
    assert parse_golden(str(x)) == x


@given(goldens, goldens)
def test_value_fraction_orders_like_sign(x, y):
    if x == y:
        assert value_fraction(x) == value_fraction(y)
    else:
        assert (value_fraction(x) < value_fraction(y)) == (x < y)


@given(goldens)
def test_conjugate_is_involutive_multiplicative(x):
    assert x.conjugate().conjugate() == x
    norm = x * x.conjugate()
    assert norm.is_rational


def test_float_is_close_to_definition():
    x = golden(Fraction(12345, 7), Fraction(-999, 13))
    expected = 12345 / 7 - 999 / 13 * (1 + math.sqrt(5)) / 2
    assert math.isclose(float(x), expected, rel_tol=1e-14)
