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
cached per process, since the cells of a sweep share seed and points.  The
value is computed in integers: u over one denominator L is snapped as
floor(u * 2^40 / L), and :func:`orbit` reads it along a dyadic orbit.
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
    """Noise (numerators, denominator) at ``coords`` over ``den``; its norm
    is at most amplitude * (max_i |x_i|)^exponent, so at most amplitude *
    ||x||^exponent, exactly."""
    read = orbit(seed, coords, den, amplitude, exponent, dim_out)[1]
    return read(1, 0, False)


def orbit(seed: int, coords, den: int, amplitude: tuple[int, int],
          exponent: tuple[int, int], dim_out: int):
    """:func:`sample` on the orbit y = x * 2^k of x = coords / den, as
    (B, read): ``read(cofactor, k, odd)`` is N(y), or with ``odd``
    (N(y) - N(-y)) / 2, over cofactor * B times 2^j.  The scale at y is
    that at x times 2^(k p) for an integer p (den^p is in B once), and a
    fractional p's float b^p has a power-of-two denominator."""
    (a_num, a_den), (p_num, p_den) = amplitude, exponent
    base = max(map(abs, coords))
    if a_num == 0 or (p_num and not base):  # zero everywhere
        return 1, lambda cofactor, k, odd: ([0] * dim_out, cofactor)
    # _scale's power check passes at y = x * 2^k iff k_low <= k <= k_high.
    room = MAX_POWER_BITS // p_num if p_num and p_den == 1 else math.inf
    k_low, k_high = den.bit_length() - room, room - base.bit_length()
    k_low, k_high = (k_low, k_high) if k_low <= 0 <= k_high else (1, 0)
    fixed, scale_den = (  # over a_den 2^(30 + j) at y for a fractional p
        (None, a_den * _POWER_SAFETY[1]) if p_den != 1
        else _scale(coords, den, amplitude, exponent) if k_low <= 0 <= k_high
        else (0, 1))  # too wide at x, so at every y: each read raises
    orbit_den = scale_den * dim_out << (VALUE_BITS + 1)  # 1/m, 2^-20, 1/2

    def read(cofactor: int, k: int, odd: bool):
        shift, d, b = ((QUANT_BITS + k, den, base << k) if k >= 0
                       else (QUANT_BITS, den << -k, base))
        if fixed is not None:
            if not k_low <= k <= k_high:
                _scale((b,), d, amplitude, exponent)  # raises as at y
            scale, e = fixed * cofactor, 1 - odd + k * p_num
        else:
            scale, at_y = _scale((b,), d, amplitude, exponent)
            scale *= cofactor
            e = 1 - odd + scale_den.bit_length() - at_y.bit_length()
        scale, out_den = ((scale << e, orbit_den * cofactor) if e >= 0
                          else (scale, orbit_den * cofactor << -e))
        plus = tuple([(u << shift) // d for u in coords])
        if not odd:
            return [scale * _direction_component(seed, plus, i)
                    for i in range(dim_out)], out_den
        minus = tuple([(-u << shift) // d for u in coords])
        return [scale * (_direction_component(seed, plus, i)
                         - _direction_component(seed, minus, i))
                for i in range(dim_out)], out_den
    return orbit_den, read
