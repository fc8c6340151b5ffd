"""Independent brute-force evaluators used as oracles by the tests.

Everything here works on plain Python callables and scalars (1-D), with no
dependence on the package's models, term tables or series machinery, so a
bug there cannot hide in here.
"""

import decimal
import hashlib
import math
from fractions import Fraction


def mixed(f, x, y):
    """Difference of the two sides of the mixed additive-cubic rule."""
    return (3 * f(x + 3 * y) - f(3 * x + y)
            - 12 * (f(x + y) + f(x - y))
            + 16 * (f(x) + f(y))
            - 12 * f(2 * y) + 4 * f(2 * x))


def additive_rule(f, x, y):
    return (3 * f(x + 3 * y) - f(3 * x + y)
            - (12 * (f(x + y) + f(x - y)) - 24 * f(x) + 8 * f(y)))


def cubic_rule(f, x, y):
    return (3 * f(x + 3 * y) - f(3 * x + y)
            - (12 * (f(x + y) + f(x - y)) - 48 * f(x) + 80 * f(y)))


def double_arg(f, x):
    return f(4 * x) - 10 * f(2 * x) + 16 * f(x)


def series_sum(weight, phi_of_scale, l, n_terms, prefactor=Fraction(1, 2),
               start_offset=0):
    """Brute partial sum of prefactor * sum_i w^(il) phi(x / 2^(l(i+l))).

    ``phi_of_scale`` maps the argument scale factor (a Fraction s with
    argument = s * x) to the diagonal control value.  Exact arithmetic
    throughout; the caller supplies exact phi values.
    """
    start = abs(l - 1) // 2 + start_offset
    total = Fraction(0)
    for i in range(start, start + n_terms):
        scale = Fraction(1, 2) ** (l * (i + l))
        total += prefactor * Fraction(weight) ** (l * i) * phi_of_scale(scale)
    return total


def series_closed_form(weight, phi, coords, norm_kind, l,
                       prefactor=Fraction(1, 2), start_offset=0):
    """prefactor * sum_{i>=i0} w^(il) phi(x / 2^(l(i+l)), same), summed.

    ``phi`` is ("constant", c), ("sum", theta, p) for theta (||x||^p +
    ||y||^p) or ("product", theta, r, s) for theta ||x||^r ||y||^s, and
    ``coords`` are rationals.  The diagonal is homogeneous of degree d =
    p or r + s (0 for a constant), so term i is phi(x, x) 2^-d 2^(i e)
    with e = l (log2 w - d), and the sum from i0 = |l - 1|/2 + offset is
    phi(x, x) 2^-d 2^(i0 e) / (1 - 2^e); ``math.inf`` where e >= 0 and
    phi(x, x) > 0.  The value is a Fraction, exact, where it is rational:
    an integer d under the max norm or in one dimension, or an even
    integer d under the Euclidean norm.  Elsewhere it is a Decimal of 60
    significant digits.
    """
    kind, theta, *exponents = phi
    theta, exponents = Fraction(theta), [Fraction(q) for q in exponents]
    degree = sum(exponents, Fraction(0))
    count = 2 if kind == "sum" else 1
    e = l * (Fraction(weight.bit_length() - 1) - degree)
    start = abs(l - 1) // 2 + start_offset
    coords = [abs(Fraction(c)) for c in coords]
    squares = sum(c * c for c in coords)
    single = norm_kind == "max" or len(coords) == 1
    if degree.denominator == 1 and (single or degree.numerator % 2 == 0):
        if single:
            power = max(coords) ** degree.numerator
        else:
            power = squares ** (degree.numerator // 2)
        diagonal = count * theta * power * Fraction(1, 2) ** degree.numerator
        if diagonal == 0:
            return Fraction(0)
        if e >= 0:
            return math.inf
        ratio = Fraction(2) ** e.numerator
        return prefactor * diagonal * ratio ** start / (1 - ratio)
    with decimal.localcontext() as context:
        context.prec = 60

        def real(q):
            return decimal.Decimal(q.numerator) / q.denominator

        def power_of(base, exponent):  # base^exponent with 0^0 = 1
            return base ** real(exponent) if exponent else decimal.Decimal(1)

        norm = real(max(coords)) if single else real(squares).sqrt()
        two = decimal.Decimal(2)
        diagonal = (count * real(theta) * power_of(norm, degree)
                    / power_of(two, degree))
        if diagonal == 0:
            return decimal.Decimal(0)
        if e >= 0:
            return math.inf
        ratio = power_of(two, e)
        return real(prefactor) * diagonal * ratio ** start / (1 - ratio)


def power_diag(theta, p_num, norm_x, pair_count=2):
    """phi(z, z) for power-family control functions with integer exponent.

    Returns a callable scale -> theta * count * (scale * norm_x)^p, which is
    phi(sx, sx) for SumOfPowers (count 2) and ProductOfPowers (count 1).
    """
    theta = Fraction(theta)
    norm_x = Fraction(norm_x)

    def phi(scale: Fraction) -> Fraction:
        return theta * pair_count * (scale * norm_x) ** p_num

    return phi


def _lattice_argument(x, y, a, b):
    return tuple(a * xi + b * yi for xi, yi in zip(x, y))


def lattice_sum(f, x, y, terms):
    """Exact sum of c * f(a x + b y), term by term, in Fractions.

    ``f`` maps a coordinate tuple to a value tuple; ``x`` and ``y`` are
    coordinate tuples and ``terms`` rows (c, a, b) with c a rational or
    its string.
    """
    total = None
    for c, a, b in terms:
        values = f(_lattice_argument(x, y, a, b))
        contribution = [Fraction(c) * v for v in values]
        total = contribution if total is None \
            else [t + v for t, v in zip(total, contribution)]
    return tuple(total)


def _norm(values, norm_kind):
    floats = [abs(float(v)) for v in values]
    if norm_kind == "max":
        return max(floats)
    if len(floats) == 1:
        return floats[0]
    return math.sqrt(math.fsum(v * v for v in floats))


def certified_depth(w, degree, l, bits=20):
    """First n with 2 rho^n <= 2^-bits, rho = 2^(l (w - degree)), or None.

    Searched step by step on the base-2 logarithm 1 + n l (w - degree) of
    2 rho^n, in Fractions; ``w`` is 1 (additive) or 3 (cubic).
    """
    exponent = l * (w - Fraction(degree))
    if exponent >= 0:
        return None
    n = 0
    while 1 + n * exponent > -bits:
        n += 1
    return n


def dyadic_recovery(f, x, norm_kind, l_additive, l_cubic, n_max, degree):
    """Direct-method recovery at one point, every value evaluated afresh.

    ``f`` maps a coordinate tuple to a value tuple; ``x`` is a coordinate
    tuple of Fractions (exact) or floats.  Each iterate step evaluates
    f(2a), f(-2a), f(a) and f(-a) at a = x (1/2)^(l n), with nothing
    reused, and the arithmetic follows the direct method coordinate by
    coordinate: odd part (f(y) - f(-y)) * 1/2, step value
    (odd(2a) - c odd(a)) * w^(l n), A = -final / 6, C = final / 6.  Each
    iterate runs to :func:`certified_depth` of the control function's
    diagonal ``degree`` when that is at most ``n_max``, and is then
    converged; otherwise it runs ``n_max`` steps.
    Returns a dict of the traces and the recovered values and errors.
    """
    exact = not isinstance(x[0], float)
    num = (lambda q: q) if exact else float

    def odd(y):
        plus, minus = f(y), f(tuple(-c for c in y))
        return tuple(num(Fraction(1, 2)) * (p - m)
                     for p, m in zip(plus, minus))

    def iterate(l, weight, subtract):
        depth = certified_depth(weight.bit_length() - 1, degree, l)
        converged = depth is not None and depth <= n_max
        trace = {"values": [], "gaps": [], "converged": converged,
                 "converged_at": depth if converged else None}
        for n in range((depth if converged else n_max) + 1):
            a = tuple(num(Fraction(1, 2) ** (l * n)) * c for c in x)
            doubled = odd(tuple(num(2) * c for c in a))
            single = odd(a)
            w = num(Fraction(weight) ** (l * n))
            value = tuple(w * (d - num(subtract) * s)
                          for d, s in zip(doubled, single))
            trace["values"].append(value)
            if n == 0:
                continue
            previous = trace["values"][-2]
            trace["gaps"].append(
                _norm([v - p for v, p in zip(value, previous)], norm_kind))
        return trace

    trace_a = iterate(l_additive, 2, 8)
    trace_c = iterate(l_cubic, 8, 2)
    additive = tuple(num(Fraction(-1, 6)) * v for v in trace_a["values"][-1])
    cubic = tuple(num(Fraction(1, 6)) * v for v in trace_c["values"][-1])

    def error(values):
        return _norm([v - a - c for v, a, c in zip(values, additive, cubic)],
                     norm_kind)

    return {"additive_trace": trace_a, "cubic_trace": trace_c,
            "additive": additive, "cubic": cubic,
            "error": error(odd(x)), "raw_error": error(f(x))}


def gajda(x, mu=1):
    """Gajda's counterexample to stability at p = 1, at the rational x.

    f(x) = sum_{n>=0} 2^-n psi(2^n x) with psi(t) = mu clamp(t, -1, 1).  It
    is odd and 2 mu for |x| >= 1; for 0 < |x| < 1 it is mu (N |x| + 2^(1-N))
    with N the least n such that 2^n |x| >= 1 (Gajda 1991).
    """
    x = Fraction(x)
    if x < 0:
        return -gajda(-x, mu)
    if x == 0:
        return Fraction(0)
    n = 0
    while x * 2 ** n < 1:
        n += 1
    return mu * (n * x + Fraction(2) ** (1 - n))


def gajda_cubic(x, mu=1):
    """The cubic analogue of :func:`gajda`, excluded exponent p = 3.

    f(x) = sum_{n>=0} 8^-n psi3(2^n x) with psi3(t) = mu t^3 for |t| < 1
    and mu sign(t) otherwise.  It is odd and (8/7) mu for |x| >= 1; for
    0 < |x| < 1 it is mu (N |x|^3 + (8/7) 8^-N) with N the least n such
    that 2^n |x| >= 1.
    """
    x = Fraction(x)
    if x < 0:
        return -gajda_cubic(-x, mu)
    if x == 0:
        return Fraction(0)
    n = 0
    while x * 2 ** n < 1:
        n += 1
    return mu * (n * x ** 3 + Fraction(8, 7) * Fraction(1, 8) ** n)


def plain_iterate(f, x, norm_kind, l, weight, subtract, n_steps):
    """values[n] = w^(l n) (f(2a) - s f(a)) at a = x (1/2)^(l n), with f
    read whole (not its odd part), and the Cauchy gaps, in Fractions."""
    values, gaps = [], []
    for n in range(n_steps + 1):
        a = tuple(Fraction(1, 2) ** (l * n) * c for c in x)
        doubled, single = f(tuple(2 * c for c in a)), f(a)
        values.append(tuple(Fraction(weight) ** (l * n) * (d - subtract * s)
                            for d, s in zip(doubled, single)))
        if n:
            gaps.append(_norm([v - p for v, p in zip(values[-1], values[-2])],
                              norm_kind))
    return values, gaps


def noise_value(seed, amplitude, exponent, dim_out, x):
    """Seeded noise at the rational point x, built from its specification.

    Coordinates are floored to the grid 2^-40 and hashed with BLAKE2b as
    "seed|j|s_1,...,s_d"; the digest modulo 2^21 + 1, less 2^20, over 2^20
    is the direction of output j, damped by 1/dim_out and scaled by
    amplitude * b^p with b = max |x_i|.  A fractional p takes b^p through
    float pow, padded down by (2^30 - 1) / 2^30.
    """
    amplitude, exponent = Fraction(amplitude), Fraction(exponent)
    base = max(abs(c) for c in x)
    if exponent.denominator == 1:
        scale = amplitude * base ** exponent.numerator
    else:
        scale = (amplitude * Fraction(float(base) ** float(exponent))
                 * Fraction(2 ** 30 - 1, 2 ** 30))
    snapped = ",".join(str(math.floor(c * 2 ** 40)) for c in x)
    out = []
    for j in range(dim_out):
        payload = f"{seed}|{j}|{snapped}".encode("ascii")
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        raw = int.from_bytes(digest, "big") % (2 ** 21 + 1) - 2 ** 20
        out.append(scale * Fraction(raw, 2 ** 20) / dim_out)
    return out


def atom_sum(atoms, x, dim_out):
    """Exact value of a sum of atoms at the rational point x, term by term.

    ``atoms`` are (kind, data) pairs: ("linear", rows of M),
    ("cubic", per output the rows ((i, j, k), c) of c x_i x_j x_k),
    ("even", per output the matrix Q of x^T Q x) or
    ("noise", (seed, amplitude, exponent)).  Every term is a Fraction.
    """
    x = [Fraction(c) for c in x]
    total = [Fraction(0)] * dim_out
    for kind, data in atoms:
        if kind == "linear":
            values = [sum(Fraction(m) * c for m, c in zip(row, x))
                      for row in data]
        elif kind == "cubic":
            values = [sum(Fraction(c) * x[i] * x[j] * x[k]
                          for (i, j, k), c in rows) for rows in data]
        elif kind == "even":
            values = [sum(Fraction(q[i][j]) * x[i] * x[j]
                          for i in range(len(x)) for j in range(len(x)))
                      for q in data]
        else:
            values = noise_value(*data, dim_out, x)
        total = [t + v for t, v in zip(total, values)]
    return total
