"""Deterministic seeded perturbations with a certified size envelope.

A noise value at a point x is a pure function of (seed, x, output index):
the input coordinates are snapped to the dyadic grid 2^-40, hashed with
BLAKE2b (the builtin ``_blake2``: ``hashlib`` would load OpenSSL) with the
seed and coordinate index, and the digest is mapped to a rational direction
vector in [-1, 1]^m.  The direction is damped by 1/m so its norm is at most
1 under both supported norms, then scaled by amplitude * b^p where
b = max_i |x_i| is an exact rational lower bound of ||x|| for both the
Euclidean and the max norm.  The result:

* outputs are rationals with bounded denominators, so exact mode works;
* ||output|| <= amplitude * ||x||^p holds by construction for p >= 0;
* the same (seed, x) always yields the bit-identical output.

The dyadic snap makes queries at halved/doubled arguments stable, which is
what the direct-method iterations feed this with.  Hashed components are
cached per process, since the cells of a sweep share seed and points.

The value is computed in integers.  The input is integer numerators u
over one denominator L (a model reads float coordinates at their exact
binary values), snapped as floor(u * 2^40 / L), and the output is the
numerator scale * direction over scale denominator * m * 2^20, read
along the dyadic orbit of a point by :func:`orbit`.
"""

from __future__ import annotations

import functools
import math

try:  # on CPython, hashlib.blake2b is this same function
    from _blake2 import blake2b
except ImportError:  # a build without the builtin hashes
    from hashlib import blake2b

QUANT_BITS = 40  # inputs snapped to multiples of 2^-40 before hashing
VALUE_BITS = 20  # direction components live on the grid 2^-20 in [-1, 1]
DIRECTION_CACHE_SIZE = 4096  # hashed direction components kept per process

# Largest p * (bits of the base or of its denominator) for which b^p is
# formed exactly.  Every float's integer ratio has at most 2 098 bits
# (2^1024 over 2^-1074), and the exponents certify_phi can represent are
# below 512, since 76 * 4^p * eps must be a finite float; their product is
# about 2^20.  Twice that admits those with room, and forms a power in well
# under a second instead of hanging on an exponent such as 10^10.
MAX_POWER_BITS = 1 << 21

# Pad applied when amplitude * b^p must be computed through float pow
# (non-integer exponents); float pow errs by ~1 ulp, the pad is 2^-30.
_POWER_SAFETY = ((1 << 30) - 1, 1 << 30)


@functools.lru_cache(maxsize=DIRECTION_CACHE_SIZE)
def _direction_component(seed: int, snapped: tuple, index: int) -> int:
    """Hash-derived numerator over 2^20 of a direction in [-1, 1]."""
    payload = f"{seed}|{index}|{','.join(map(str, snapped))}"
    digest = blake2b(payload.encode("ascii"), digest_size=8).digest()
    raw = int.from_bytes(digest, "big")
    span = (1 << (VALUE_BITS + 1)) + 1  # odd count keeps 0 reachable
    return raw % span - (1 << VALUE_BITS)


def _scale(ints, den: int, amplitude: tuple[int, int],
           exponent: tuple[int, int]) -> tuple[int, int]:
    """Certified s = num / den' <= amplitude * ||x||^p at x = ints / den."""
    (a_num, a_den), (p_num, p_den) = amplitude, exponent
    if a_num == 0:
        return 0, 1
    if p_num == 0:
        return a_num, a_den
    base = max(map(abs, ints))  # max_i |x_i| = base / den
    if base == 0:
        return 0, 1
    if p_den == 1:
        if p_num * max(base.bit_length(), den.bit_length()) > MAX_POWER_BITS:
            raise OverflowError(
                f"noise scale overflow: exponent {p_num} would form a power "
                f"of more than {MAX_POWER_BITS} bits")
        return a_num * base ** p_num, a_den * den ** p_num
    powered = (base / den) ** (p_num / p_den)
    if not math.isfinite(powered):
        raise OverflowError("noise scale overflow: |x|^p is not finite")
    f_num, f_den = powered.as_integer_ratio()
    return (a_num * f_num * _POWER_SAFETY[0],
            a_den * f_den * _POWER_SAFETY[1])


def sample(seed: int, coords, amplitude: tuple[int, int],
           exponent: tuple[int, int], dim_out: int, den: int = 1):
    """Noise output coordinates at the given input coordinates.

    ``amplitude`` and ``exponent`` are integer ratios in lowest terms.
    Takes integer numerators ``coords`` over ``den`` and returns
    ``(numerators, denominator)``.  The envelope
    ||output|| <= amplitude * (max_i |x_i|)^exponent
    <= amplitude * ||x||^exponent is guaranteed exactly.
    """
    return orbit(seed, coords, den, amplitude, exponent, dim_out)(0, False)


def orbit(seed: int, coords, den: int, amplitude: tuple[int, int],
          exponent: tuple[int, int], dim_out: int):
    """Reader of :func:`sample` along the orbit y = x * 2^k of x = coords
    / den, read at (coords << k, den) or (coords, den << -k).

    ``read(k, odd)`` is N(y), or with ``odd`` (N(y) - N(-y)) / 2 from one
    scale, as a model's odd part needs.
    """
    def read(k: int, odd: bool):
        y, d = (([u << k for u in coords], den) if k >= 0
                else (coords, den << -k))
        scale_num, scale_den = _scale(y, d, amplitude, exponent)
        if scale_num == 0:
            return [0] * dim_out, 1
        plus = tuple([(u << QUANT_BITS) // d for u in y])
        if odd:  # D(y) - D(-y)
            minus = tuple([(-u << QUANT_BITS) // d for u in y])
            nums = [scale_num * (_direction_component(seed, plus, j)
                                 - _direction_component(seed, minus, j))
                    for j in range(dim_out)]
        else:
            nums = [scale_num * _direction_component(seed, plus, j)
                    for j in range(dim_out)]
        # damping 1/m, grid 2^-20, and the odd part's 1/2
        return nums, scale_den * dim_out << (VALUE_BITS + odd)
    return read
