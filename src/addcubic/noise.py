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
from operator import add

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
    out_den, columns, _ = orbit([(seed, amplitude, exponent)], coords, den,
                                dim_out, False, (0,))
    return tuple([column[0] for column in columns]), out_den


def _scales(base: int, den: int, amplitude: tuple[int, int],
            exponent: tuple[int, int], ks) -> list:
    """:func:`_scale` at each y = x * 2^k, b = base / den; for a fractional
    p, float pow at b's float times 2^k, which is the float of b 2^k while
    both lie well inside the normal range."""
    (a_num, a_den), (p_num, p_den) = amplitude, exponent
    t = base.bit_length() - den.bit_length()  # 2^(t - 1) < b < 2^(t + 1)
    b = base / den if a_num and p_den != 1 and -1019 <= t <= 1021 else 0.0
    scales, q = [], p_num / p_den
    for k in ks:
        if b and -1019 <= t + k <= 1021:
            f_num, f_den = (math.ldexp(b, k) ** q).as_integer_ratio()
            scales.append((a_num * f_num * _POWER_SAFETY[0],
                           a_den * f_den * _POWER_SAFETY[1]))
        else:
            scales.append(_scale((base << max(k, 0),), den << max(-k, 0),
                                 amplitude, exponent))
    return scales


def orbit(atoms, coords, den: int, dim_out: int, odd: bool, ks):
    """The sum N of :func:`sample` over the (seed, amplitude, exponent)
    ``atoms`` at each y = x * 2^k, k in ``ks``, of x = coords / den: (D,
    columns over D, N(x) with ``odd`` if 0 is in ks, or None), columns[j]
    output j of N(y), or with ``odd`` (N(y) - N(-y)) / 2, at each k in
    order.  An integer p's scale at y is that at x shifted by k p; a
    fractional p's has a dyadic den part (:func:`_scales`)."""
    base, low, high, terms = max(map(abs, coords)), min([0, *ks]), max(ks), []
    for seed, amplitude, (p_num, p_den) in atoms:
        # _scale's power check passes at y = x * 2^k iff k_low <= k <= k_high.
        room = MAX_POWER_BITS // p_num if p_num and p_den == 1 else math.inf
        k_low, k_high = den.bit_length() - room, room - base.bit_length()
        fixed, scale_den = (  # over a_den 2^(30 + j) at y for a fractional p
            (None, amplitude[1] * _POWER_SAFETY[1]) if p_den != 1
            else _scale(coords, den, amplitude, (p_num, p_den))
            if k_low <= 0 <= k_high else (None, 1))  # else _scale raises
        if fixed is not None and (k_low <= low and high <= k_high
                                  or not fixed):  # 0 passes at every y
            top, scales = -low * p_num, [fixed << (k - low) * p_num
                                         for k in ks]
        else:  # a fractional p; or _scale raises as at the widest y
            scales = _scales(base, den, amplitude, (p_num, p_den),
                             ks if fixed is None else (high, low))
            bits = [y_den.bit_length() - scale_den.bit_length()
                    for _, y_den in scales]
            top = max([0, *bits])
            scales = [scale << top - j for (scale, _), j in zip(scales, bits)]
        terms.append((seed, scales, scale_den << top))  # over that 2^top
    total = math.lcm(*[d for _, _, d in terms])
    # floor(s u 2^(40 + k) / den) per k, s = 1, -1 (without odd, just 1).
    plus, minus = ([list(zip(*[iter([
        (v << QUANT_BITS + k) // den if k >= 0 else at_x >> -k
        for k in ks for v, at_x in signed])] * len(coords)))
        for signed in [[(s * u, (s * u << QUANT_BITS) // den) for u in coords]
                       for s in (1, -1)[:1 + odd]]] * 2)[-2:]
    at = ks.index(0) if odd and 0 in ks else None  # N(x): D is halved
    values, plain = [0] * (len(ks) * dim_out), [0] * dim_out
    for seed, scales, scale_den in terms:  # each by its cofactor to total
        cofactor = total // scale_den
        scales = scales if cofactor == 1 else [s * cofactor for s in scales]
        values = list(map(add, values, [scale * (_direction_component(
            seed, a, i) - (odd and _direction_component(seed, b, i)))
            for scale, a, b in zip(scales, plus, minus)
            for i in range(dim_out)]))
        if at is not None:
            plain = [t + (scales[at] * _direction_component(
                seed, plus[at], i) << 1) for i, t in enumerate(plain)]
    return (total * dim_out << VALUE_BITS + odd if terms else 1,
            [values[j::dim_out] for j in range(dim_out)],
            None if at is None else tuple(plain))
