from fractions import Fraction

import pytest

from addcubic.models import point
from addcubic.scalars import FLOAT, format_number, parse_rational


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


def test_point_reads_exact_or_rounds_once():
    # Exact mode reads each value as the rational it spells, losslessly.
    x = point(["1/3", 0.5, 7])
    assert x.coords == (Fraction(1, 3), Fraction(1, 2), 7)
    a, b = x.coords[:2]
    # exact arithmetic is closed for the four operations
    assert (a + b, a - b, a * b, a / b) == (Fraction(5, 6), Fraction(-1, 6),
                                            Fraction(1, 6), Fraction(2, 3))
    # Float mode rounds each value once to a double and keeps its exact value.
    x = point(["1/3", 3, Fraction(1, 2)], FLOAT)
    assert x.coords == (Fraction(1 / 3), 3, Fraction(1, 2))
    assert all(type(c) is Fraction for c in x.coords)
    with pytest.raises(ValueError):
        point([1], "decimal")


def test_format_number_round_trips():
    assert format_number(Fraction(3, 4)) == "3/4"
    assert format_number(Fraction(-5)) == "-5"
    assert format_number(7) == "7"
    # Float mode prints the exact value rounded once: a double by its repr.
    value = 0.1 + 0.2
    assert float(format_number(Fraction(value), FLOAT)) == value
    assert format_number(Fraction(value), FLOAT) == repr(value)
    assert format_number(Fraction(1, 3), FLOAT) == repr(1 / 3)
