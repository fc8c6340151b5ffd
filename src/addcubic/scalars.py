"""Exact scalars, and the two modes in which they are read and written.

Every value the package computes is exact: model values, residuals,
iterate steps and recovered parts are integers over one denominator, or
``fractions.Fraction``.  A mode is a format at the edges only.  In
``exact`` mode inputs are read as the rationals they spell and outputs
print as "p/q"; in ``float`` mode each input is rounded once to a 64-bit
double and kept at that double's exact value, and each output prints as
its exact value rounded once (:func:`format_number`).  Kernels hold
rational vectors as ``(integer numerators, denominator)`` pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)


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


def over_lcm(vectors) -> tuple[int, list[list[int]]]:
    """(D, numerators over D) of the vectors, D their least common den."""
    den = math.lcm(*{d for _, d in vectors})
    return den, [nums if d == den else [n * (den // d) for n in nums]
                 for nums, d in vectors]


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


def format_number(value, mode: str = EXACT) -> str:
    """An exact scalar's text: "p/q", an integer as itself; in float mode
    its value rounded once to a double, as ``repr`` prints it."""
    return repr(float(value)) if mode == FLOAT else str(value)
