"""Stability bound series, closed-form constants and envelope certification.

The recovery error bounds are geometric-type series

    additive:  (1/2) * sum_{i=i0}^inf 2^(i*l) * phi(x / 2^(l(i+l)), same)
    cubic:     (1/2) * sum_{i=i0}^inf 8^(i*l) * phi(x / 2^(l(i+l)), same)
    combined:  (1/12) * sum_{i=i0}^inf (2^(i*l) + 8^(i*l)) * phi(...)

with i0 = |l-1|/2, i.e. terms start at i = 0 for l = +1 and i = 1 for
l = -1.  A control function is theta times a sum of norm monomials of one
diagonal degree (:class:`~addcubic.models.ControlFunction`), so it is
homogeneous on the diagonal and each component series is one geometric
sum, its first term over 1 - rho with rho = 2^e (:func:`series_exponent`),
e read from the degree alone, summed in closed form and rounded
outward (Moore, *Interval Analysis*, 1966): the true value lies in
[partial_sum, upper].  Divergence (e >= 0) is reported as a status, never
as a silently huge number; for power control functions this happens
exactly at exponent 1 (additive part) and 3 (cubic part).  The exponent
also fixes the depth of the direct-method iterates, :func:`certified_depth`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .models import (Constant, ControlFunction, FuncModel, Linear,
                     CubicHomogeneous, PowerNoise, Point, SumOfPowers, norm,
                     phi_value)
from .noise import _POWER_SAFETY
from .residuals import ABS_COEFFICIENT_SUM

CONVERGED = "converged"
DIVERGED = "diverged"

COMPONENT_WEIGHTS = {"additive": 2, "cubic": 8}
TAIL_BITS = 20  # an iterate stops once its tail is at most 2^-20 of its bound

EXCLUDED_ADDITIVE_EXPONENT = 1
EXCLUDED_CUBIC_EXPONENT = 3


class ExcludedExponentError(ValueError):
    """Control-function exponent at which one component series diverges."""


class CertificationError(ValueError):
    """Model contains atoms with no certified perturbation envelope."""


class SeriesResult(NamedTuple):
    """A closed form rounded outward: true value in [partial_sum, upper]."""

    partial_sum: float
    tail_bound: float
    terms_used: int
    status: str

    @property
    def upper(self) -> float:
        """Certified upper bound; this is what recovery errors are checked against."""
        return self.partial_sum + self.tail_bound


def require_direction(l: int) -> int:
    if l not in (-1, 1):
        raise ValueError(f"direction must be -1 or +1, got {l!r}")
    return l


def series_exponent(weight: int, phi: ControlFunction, l: int) -> Fraction:
    """e = l * (log2 w - deg phi), exact; the series converges iff e < 0."""
    require_direction(l)
    degree = phi.degree  # in integers: Fraction arithmetic takes 2.5x
    return Fraction(l * ((weight.bit_length() - 1) * degree.denominator
                         - degree.numerator), degree.denominator)


def term_ratio(weight: int, phi: ControlFunction, l: int) -> float:
    """rho = 2^e = w^l * 2^(-l*p), the term ratio of one component's series."""
    return 2.0 ** float(series_exponent(weight, phi, l))


def _pad(degree: float, size: float) -> float:
    """Relative half-width (12 + d (2 + |ln ||z|||/2)) 2^-52 of an enclosure.

    d = deg phi, ``size`` = ||z||, z the first argument, u = 2^-53.  First-
    order relative errors: ||z|| 3u (a rounding per coordinate; Euclidean:
    square, fsum, sqrt); each pow ||z||^q 3q u, 2u (1 ulp) and q |ln ||z|||
    u (q rounded to a float); so phi(z, z), with theta and two products, 7u
    + 3d u + d |ln ||z||| u.  1 - rho = -expm1(e ln 2): 5u (3u in e ln 2,
    damped by |y| e^y / (1 - e^y) < 1 at y < 0; 2u in expm1).  The
    division u, the rounding by 1 -+ pad 2u, :func:`merge_series` 4u.  Like
    the theta pad of certify_phi, the pad exceeds the total, by 5u + d u
    for second-order terms, while every value stays in the normal range.
    """
    spread = 2.0 + abs(math.log(size)) / 2.0 if degree else 0.0
    return (12.0 + degree * spread) * 2.0 ** -52


def _component_series(weight: int, phi: ControlFunction, x: Point,
                      l: int) -> SeriesResult:
    """(1/2) sum w^(il) phi(x/2^(l(i+l)), same) in closed form.

    The first term is evaluated at its actual argument, its power of two
    applied to theta before the monomials add up, so that it overflows only
    where the term does; the sum is that term over 1 - rho, rounded outward
    by :func:`_pad`.
    """
    require_direction(l)
    degree = phi.degree  # e = rate / den, as series_exponent, in ints
    rate = l * ((weight.bit_length() - 1) * degree.denominator
                - degree.numerator)
    i0 = abs(l - 1) // 2  # 0 for l = +1, 1 for l = -1
    k = l * (i0 + l)  # ||z|| of the first argument z = x / 2^k, if read
    size = 0.0 if degree == 0 else norm(x if k == 0 else x.scale(
        Fraction(1, 1 << k) if k > 0 else Fraction(1 << -k)))
    first = phi_value(phi, size, size,
                      0.5 * 2.0 ** (l * i0 * (weight.bit_length() - 1)))
    if first == 0.0:
        # zero phi, or homogeneous phi at the origin: every term is zero
        return SeriesResult(0.0, 0.0, 1, CONVERGED)
    if rate >= 0:
        return SeriesResult(first, math.inf, 1, DIVERGED)
    value = first / -math.expm1(rate / degree.denominator * math.log(2.0))
    pad = _pad(float(degree), size)
    low, high = value * (1.0 - pad), value * (1.0 + pad)
    # high - low is exact (Sterbenz); for an overflowed inf it is taken as 0
    return SeriesResult(low, high - low if low < high else 0.0, 1, CONVERGED)


def merge_series(a, b, scale: float) -> SeriesResult:
    status = DIVERGED if DIVERGED in (a.status, b.status) else CONVERGED
    return SeriesResult(scale * (a.partial_sum + b.partial_sum),
                        scale * (a.tail_bound + b.tail_bound),
                        max(a.terms_used, b.terms_used), status)


def series_bound(kind: str, phi: ControlFunction, x: Point, l) -> SeriesResult:
    """Bound series of the requested kind at x.

    ``kind`` is "additive", "cubic" or "combined".  For "combined", ``l``
    may be a single direction or a pair (l_additive, l_cubic); the combined
    value is (1/6) * (additive series + cubic series), which coincides with
    the (1/12) * sum (2^(il) + 8^(il)) phi form when both directions agree.
    """
    if kind in COMPONENT_WEIGHTS:
        return _component_series(COMPONENT_WEIGHTS[kind], phi, x, l)
    if kind != "combined":
        raise ValueError(f"unknown series kind {kind!r}")
    l_add, l_cub = (l, l) if isinstance(l, int) else tuple(l)
    s_add = _component_series(2, phi, x, l_add)
    s_cub = _component_series(8, phi, x, l_cub)
    return merge_series(s_add, s_cub, 1.0 / 6.0)


def certified_depth(component: str, phi: ControlFunction,
                    l: int) -> int | None:
    """First n whose uniqueness tail, 2 rho^n times the series (the sum
    of its terms from i0 + n on, unhalved), is at most 2^-TAIL_BITS of it.

    ceil((TAIL_BITS + 1) / |w - deg phi|), w = 1 (additive) or 3 (cubic),
    whatever x and theta; None where l (w - deg phi) >= 0: no tail."""
    exponent = series_exponent(COMPONENT_WEIGHTS[component], phi, l)
    if exponent >= 0:
        return None
    return math.ceil((TAIL_BITS + 1) / -exponent)


# ---------------------------------------------------------------------------
# The corollary closed form
# ---------------------------------------------------------------------------

def excluded(phi: ControlFunction) -> bool:
    """Whether phi's degree is 1 or 3, where a component series diverges,
    or the float exponent :func:`corollary_bound` reads is, where its
    bracket divides by zero."""
    _, ((r, s), *_) = phi._floats
    return any(p in (EXCLUDED_ADDITIVE_EXPONENT, EXCLUDED_CUBIC_EXPONENT)
               for p in (phi.degree, r + s))


def _closed_form(coefficient: float, p: float, norm_x: float) -> float:
    """coefficient * [1/|2^p - 2| + 1/|2^p - 8|] * ||x||^p, never overflowing.

    Where 2^p or ||x||^p leaves the float range, 2^-p is taken out of the
    bracket into (||x||/2)^p; only a true value beyond the float range
    gives ``math.inf``.
    """
    try:
        power = 2.0 ** p
        factor = 1.0 / abs(power - 2.0) + 1.0 / abs(power - 8.0)
        return coefficient * factor * norm_x ** p
    except OverflowError:
        pass
    outer = coefficient * (1.0 / abs(1.0 - 2.0 ** (1.0 - p))
                           + 1.0 / abs(1.0 - 2.0 ** (3.0 - p)))
    try:
        return outer * (norm_x / 2.0) ** p
    except OverflowError:  # (||x||/2)^p > max float; outer may be tiny
        if outer == 0.0:
            return 0.0
        try:
            return math.exp(math.log(outer) + p * math.log(norm_x / 2.0))
        except OverflowError:
            return math.inf


def corollary_bound(phi: ControlFunction, x: Point) -> float:
    """phi(x, x)/12 * [1/|2^p - 2| + 1/|2^p - 8|], p = deg phi.

    The combined recovery bound of every corollary: phi(x, x) is m theta
    ||x||^p for m monomials, which gives theta/6 for theta (||x||^p +
    ||y||^p) and theta/12 for theta ||x||^r ||y||^s.  p is r + s of the
    first monomial, added as floats; :func:`excluded` exponents raise.
    """
    if excluded(phi):
        raise ExcludedExponentError(f"exponent p = {phi.degree} makes one "
                                    "component series diverge")
    theta, ((r, s), *_) = phi._floats
    return _closed_form(theta / (12 / len(phi.monomials)), r + s, norm(x))


def auto_directions(phi: ControlFunction) -> tuple[int, int]:
    """Direction pair (additive, cubic) making each component series converge.

    Power families with diagonal degree p: the additive series converges
    for l = +1 iff p > 1 and for l = -1 iff p < 1; the cubic series swaps 1
    for 3.  Constant control functions, of degree 0, take l = -1.  At the
    excluded exponents no direction converges; the returned choice then
    yields a diverged series status downstream rather than an error here.
    """
    p = phi.degree
    l_add = 1 if p > EXCLUDED_ADDITIVE_EXPONENT else -1
    l_cub = 1 if p > EXCLUDED_CUBIC_EXPONENT else -1
    return (l_add, l_cub)


# ---------------------------------------------------------------------------
# Envelope certification for constructed models
# ---------------------------------------------------------------------------

def certify_phi(f: FuncModel) -> ControlFunction:
    """A control function phi with ||D(f)(x, y)|| <= phi(x, y) certified.

    The difference operator is linear in f and vanishes on Linear and
    CubicHomogeneous atoms, so only noise atoms contribute.  Each of the 8
    operator terms applies f to a x + b y with |a| + |b| <= 4, and the
    absolute coefficients sum to 76, which gives:

    * power noise (eps, p), p > 0:     phi = SumOfPowers(76 * 4^p * eps, p),
      using ||a x + b y||^p <= 4^p (||x||^p + ||y||^p);
    * power noise (eps, 0), which includes bounded noise of amplitude eps:
      phi = Constant(76 * eps).

    Noise atoms of one exponent add up.  Noise atoms of several exponents,
    0 among them or not, have no envelope of one diagonal degree and are
    rejected, as is any atom without an envelope (Even).
    """
    totals: dict[Fraction, Fraction] = {}  # amplitude by noise exponent
    for atom in f.atoms:
        if isinstance(atom, (Linear, CubicHomogeneous)):
            continue
        if not isinstance(atom, PowerNoise):
            raise CertificationError(
                f"no certified envelope for atom {type(atom).__name__}")
        totals[atom.exponent] = totals.get(atom.exponent, 0) + atom.amplitude
    if len(totals) > 1:
        raise CertificationError(
            f"noise atoms of exponents {', '.join(map(str, sorted(totals)))} "
            "have no envelope of one diagonal degree")
    p, eps = next(iter(totals.items()), (0, 0))
    coeff = Fraction(ABS_COEFFICIENT_SUM)
    if p == 0:
        return Constant(coeff * eps)
    if p.denominator == 1:
        # theta above 2^1024 overflows at first float use: fail before 4^p.
        scaled = coeff * eps
        if scaled and 2 * p.numerator + scaled.numerator.bit_length() \
                - scaled.denominator.bit_length() > 1024:
            raise OverflowError(f"theta = 76 * 4^{p} * eps exceeds 2^1024")
        theta = scaled * Fraction(4) ** p.numerator
    else:
        # float pow errs by ~1 ulp: pad up by the noise scale's 2^-30
        pad = 2 - Fraction(*_POWER_SAFETY)
        theta = Fraction(float(coeff) * 4.0 ** float(p)) * pad * eps
    return SumOfPowers(theta, p)


# ---------------------------------------------------------------------------
# Corollary closed form vs. series consistency
# ---------------------------------------------------------------------------

class FormCheck(NamedTuple):
    """The corollary closed form against the combined series' upper end."""

    closed: float
    series: float
    ok: bool


def form_check(phi: ControlFunction, x: Point,
               tol: float = 1e-9) -> FormCheck:
    """:func:`corollary_bound` against the upper end of phi's combined
    series.  Match when |series - closed| <= tol * max(1, |closed|):
    absolute up to 1, relative above.  A mismatch is a failed check, not
    an exception.
    """
    closed = corollary_bound(phi, x)
    series = series_bound("combined", phi, x, auto_directions(phi))
    return FormCheck(closed, series.upper, series.status == CONVERGED and abs(
        series.upper - closed) <= tol * max(1.0, abs(closed)))
