"""Independent brute-force evaluators used as oracles by the tests.

Everything here works on plain Python callables and scalars (1-D), with no
dependence on the package's models, term tables or series machinery, so a
bug there cannot hide in here.
"""

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
    # Zero multiples are left out rather than added, so a zero coordinate
    # keeps its sign in float mode.
    if b == 0:
        return tuple(a * xi for xi in x)
    if a == 0:
        return tuple(b * yi for yi in y)
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


def lattice_float_sum(f, x, y, terms):
    """The same sum in floats: float(c) * v added in term order."""
    total = None
    for c, a, b in terms:
        values = f(_lattice_argument(x, y, a, b))
        contribution = [float(Fraction(c)) * v for v in values]
        total = contribution if total is None \
            else [t + v for t, v in zip(total, contribution)]
    return tuple(total)
