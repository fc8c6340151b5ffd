from fractions import Fraction

import pytest

from addcubic.scalars import (EXACT, FLOAT, coerce, format_number,
                              parse_rational, require_mode)


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("1e-3") == Fraction(1, 1000)
    assert parse_rational(2) == Fraction(2)
    assert parse_rational(0.5) == Fraction(1, 2)
    assert parse_rational(Fraction(7, 5)) == Fraction(7, 5)


def test_parse_rational_rejects_junk():
    with pytest.raises(TypeError):
        parse_rational(None)
    with pytest.raises(TypeError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational("not a number")


def test_coerce_exact_is_lossless():
    assert coerce(0.5, EXACT) == Fraction(1, 2)
    assert coerce("2/3", EXACT) == Fraction(2, 3)
    assert coerce(7, EXACT) == Fraction(7)
    # exact arithmetic is closed for the four operations
    a, b = coerce("1/3", EXACT), coerce("1/6", EXACT)
    assert a + b == Fraction(1, 2)
    assert a - b == Fraction(1, 6)
    assert a * b == Fraction(1, 18)
    assert a / b == 2


def test_coerce_float():
    assert coerce(Fraction(1, 2), FLOAT) == 0.5
    assert isinstance(coerce(3, FLOAT), float)


def test_require_mode():
    assert require_mode(EXACT) == EXACT
    with pytest.raises(ValueError):
        require_mode("decimal")


def test_format_number_round_trips():
    assert format_number(Fraction(3, 4)) == "3/4"
    assert format_number(Fraction(-5)) == "-5"
    value = 0.1 + 0.2
    assert float(format_number(value)) == value
    assert format_number(value) == repr(value)
