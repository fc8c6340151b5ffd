"""Scalar values in two arithmetic modes: exact rationals and 64-bit floats.

Exact mode uses arbitrary-precision ``fractions.Fraction``, which is closed
and lossless under +, -, *, / (nonzero divisor).  Float mode is ordinary
IEEE-754 binary64.  A mode is fixed per evaluation context; helpers here
classify, coerce, parse and format scalars so the rest of the package never
mixes the two silently.  Exact kernels hold rational vectors as
``(integer numerators, denominator)`` pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Number = Union[Fraction, float]

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)


class ModeMismatchError(TypeError):
    """Raised when exact and float scalars meet in one computation."""


def require_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown scalar mode {mode!r}; expected one of {MODES}")
    return mode


def coerce(value, mode: str) -> Number:
    """Coerce ints, Fractions, floats or numeric strings into the given mode.

    Float-to-exact conversion uses the float's exact binary value, which is
    lossless.  Exact-to-float may round; that is the point of float mode.
    """
    require_mode(mode)
    if mode == EXACT:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, float, str)):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} to exact mode")
    if isinstance(value, float):
        return value
    if isinstance(value, (int, Fraction)):
        return float(value)
    if isinstance(value, str):
        return float(Fraction(value))
    raise TypeError(f"cannot coerce {value!r} to float mode")


def integer_ratio(values) -> tuple[list[int], int]:
    """Numerators u over the least common denominator L of ints, Fractions
    or floats (read at their exact binary value): values = u / L."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def add_ratios(a: tuple[list[int], int], b: tuple[list[int], int],
               factor: int = 1) -> tuple[list[int], int]:
    """a + factor * b for (numerators, denominator) vectors, unreduced."""
    (a_nums, a_den), (b_nums, b_den) = a, b
    if a_den == b_den:
        return [p + factor * q for p, q in zip(a_nums, b_nums)], a_den
    g = math.gcd(a_den, b_den)
    a_scale, b_scale = b_den // g, a_den // g
    return ([p * a_scale + factor * q * b_scale
             for p, q in zip(a_nums, b_nums)], a_den * a_scale)


def parse_rational(text) -> Fraction:
    """Parse a JSON-ish scalar ("3/4", "0.25", "1e-3", 2, 0.5) to an exact rational.

    Decimal strings are read as decimal values, so "0.1" is exactly 1/10.
    Python floats are converted via their exact binary value.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(text, (int, float)):
        return Fraction(text)
    if isinstance(text, str):
        return Fraction(text.strip())
    raise TypeError(f"cannot parse scalar from {text!r}")


def format_number(value: Number) -> str:
    """Render a scalar losslessly: rationals as "p/q", floats via repr."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))
