"""Stability bound series, closed-form constants and envelope certification.

The recovery error bounds are geometric-type series

    additive:  (1/2) * sum_{i=i0}^inf 2^(i*l) * phi(x / 2^(l(i+l)), same)
    cubic:     (1/2) * sum_{i=i0}^inf 8^(i*l) * phi(x / 2^(l(i+l)), same)
    combined:  (1/12) * sum_{i=i0}^inf (2^(i*l) + 8^(i*l)) * phi(...)

with i0 = |l-1|/2, i.e. terms start at i = 0 for l = +1 and i = 1 for
l = -1.  Every supported control function is homogeneous on the diagonal,
so each component series is one geometric sum, its first term over 1 - rho
with rho = 2^e (:func:`series_exponent`), summed in closed form and rounded
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
                     CubicHomogeneous, PowerNoise, Point, ProductOfPowers,
                     SumOfPowers, norm, phi_degree, phi_value)
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
    degree = phi_degree(phi)  # in integers: Fraction arithmetic takes 2.5x
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


def _component_series(weight: int, phi: ControlFunction, x: Point, l: int,
                      prefactor: float = 0.5,
                      extra_offset: int = 0) -> SeriesResult:
    """prefactor * sum w^(il) phi(x/2^(l(i+l)), same) in closed form.

    ``extra_offset`` shifts the start index (used by the uniqueness tails).
    The first term is evaluated at its actual argument; the sum is that
    term over 1 - rho, rounded outward by :func:`_pad`.
    """
    require_direction(l)
    degree = phi_degree(phi)  # e = rate / den, as series_exponent, in ints
    rate = l * ((weight.bit_length() - 1) * degree.denominator
                - degree.numerator)
    i0 = abs(l - 1) // 2 + extra_offset  # 0 for l = +1, 1 for l = -1
    k = l * (i0 + l)  # ||z|| of the first argument z = x / 2^k, if read
    size = 0.0 if isinstance(phi, Constant) else norm(x if k == 0 else x.scale(
        Fraction(1, 1 << k) if k > 0 else Fraction(1 << -k)))
    first = (prefactor * 2.0 ** (l * i0 * (weight.bit_length() - 1))
             * phi_value(phi, size, size))
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


def uniqueness_tail(component: str, phi: ControlFunction, x: Point, l: int,
                    n: int) -> SeriesResult:
    """Tail series sum_{i=n+i0}^inf w^(il) phi(...) bounding limit ambiguity.

    Two runs of the same iteration truncated at N1 < N2 can differ by at
    most this tail evaluated at n = N1: 2 rho^n times the series.
    """
    weight = COMPONENT_WEIGHTS[component]
    return _component_series(weight, phi, x, l, prefactor=1.0,
                             extra_offset=n)


def certified_depth(component: str, phi: ControlFunction,
                    l: int) -> int | None:
    """First n with uniqueness_tail(n) <= 2^-TAIL_BITS * series_bound.

    ceil((TAIL_BITS + 1) / |w - deg phi|), w = 1 (additive) or 3 (cubic),
    whatever x and theta; None where l (w - deg phi) >= 0: no tail."""
    exponent = series_exponent(COMPONENT_WEIGHTS[component], phi, l)
    if exponent >= 0:
        return None
    return math.ceil((TAIL_BITS + 1) / -exponent)


# ---------------------------------------------------------------------------
# Closed forms for the power-family control functions
# ---------------------------------------------------------------------------

def _closed_form(coefficient: float, p: float, norm_x: float) -> float:
    """coefficient * [1/|2^p - 2| + 1/|2^p - 8|] * ||x||^p, never overflowing.

    Where 2^p or ||x||^p leaves the float range, 2^-p is taken out of the
    bracket into (||x||/2)^p; only a true value beyond the float range
    gives ``math.inf``.
    """
    if p == EXCLUDED_ADDITIVE_EXPONENT or p == EXCLUDED_CUBIC_EXPONENT:
        raise ExcludedExponentError(
            f"exponent p = {p} makes one component series diverge; "
            f"p must differ from {EXCLUDED_ADDITIVE_EXPONENT} and "
            f"{EXCLUDED_CUBIC_EXPONENT}")
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


def corollary_sum_bound(theta, p, x: Point) -> float:
    """(theta/6) * [1/|2^p - 2| + 1/|2^p - 8|] * ||x||^p.

    Combined recovery bound for phi(x, y) = theta (||x||^p + ||y||^p);
    exponents 1 and 3 are rejected as divergent.
    """
    theta_f, p_f = float(theta), float(p)
    if theta_f < 0 or p_f < 0:
        raise ValueError("theta and p must be nonnegative")
    return _closed_form(theta_f / 6.0, p_f, norm(x))


def corollary_product_bound(theta, r, s, x: Point) -> float:
    """(theta/12) * [1/|2^p - 2| + 1/|2^p - 8|] * ||x||^p with p = r + s."""
    theta_f, r_f, s_f = float(theta), float(r), float(s)
    if theta_f < 0 or r_f < 0 or s_f < 0:
        raise ValueError("theta, r, s must be nonnegative")
    return _closed_form(theta_f / 12.0, r_f + s_f, norm(x))


def auto_directions(phi: ControlFunction) -> tuple[int, int]:
    """Direction pair (additive, cubic) making each component series converge.

    Power families with diagonal degree p: the additive series converges
    for l = +1 iff p > 1 and for l = -1 iff p < 1; the cubic series swaps 1
    for 3.  Constant control functions, of degree 0, take l = -1.  At the
    excluded exponents no direction converges; the returned choice then
    yields a diverged series status downstream rather than an error here.
    """
    p = phi_degree(phi)
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

    Noise atoms of one exponent add up.  Mixing exponent 0 with a positive
    exponent, or several distinct positive exponents, has no representation
    in the three control-function variants and is rejected, as is any atom
    without an envelope (Even).
    """
    bounded_total = Fraction(0)
    power_total: dict[Fraction, Fraction] = {}
    for atom in f.atoms:
        if isinstance(atom, (Linear, CubicHomogeneous)):
            continue
        if isinstance(atom, PowerNoise):
            if atom.exponent == 0:  # bounded noise
                bounded_total += atom.amplitude
            else:
                power_total[atom.exponent] = \
                    power_total.get(atom.exponent, Fraction(0)) + atom.amplitude
        else:
            raise CertificationError(
                f"no certified envelope for atom {type(atom).__name__}")
    coeff = Fraction(ABS_COEFFICIENT_SUM)
    if power_total and bounded_total:
        raise CertificationError(
            "mixed bounded and power noise envelopes are not representable "
            "by a single control function")
    if len(power_total) > 1:
        raise CertificationError(
            "power noise atoms with distinct exponents have no single envelope")
    if power_total:
        p, eps = next(iter(power_total.items()))
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
    return Constant(coeff * bounded_total)


# ---------------------------------------------------------------------------
# Corollary closed forms vs. series consistency
# ---------------------------------------------------------------------------

class ConsistencyReport(NamedTuple):
    p: float
    theta: float
    sum_closed: float
    sum_series: float
    sum_ok: bool
    product_closed: float
    product_series: float
    product_ok: bool

    @property
    def ok(self) -> bool:
        return self.sum_ok and self.product_ok


def consistency_check(theta, p, x: Point, tol: float = 1e-9,
                      r=None, s=None) -> ConsistencyReport:
    """Compare the combined series' upper end against both closed forms.

    The sum-of-powers form is checked at exponent p; the product form at
    (r, s), defaulting to the even split r = s = p/2.  Each matches when
    |series - closed| <= tol * max(1, |closed|): absolute up to 1, relative
    above.  A mismatch is a failed report, not an exception.
    """
    p_frac = Fraction(p)
    r_frac = Fraction(r) if r is not None else p_frac / 2
    s_frac = Fraction(s) if s is not None else p_frac - r_frac
    directions = auto_directions(SumOfPowers(Fraction(theta), p_frac))

    sum_closed = corollary_sum_bound(theta, p_frac, x)
    sum_series = series_bound("combined", SumOfPowers(Fraction(theta), p_frac),
                              x, directions)
    product_closed = corollary_product_bound(theta, r_frac, s_frac, x)
    product_series = series_bound(
        "combined", ProductOfPowers(Fraction(theta), r_frac, s_frac),
        x, directions)

    sum_ok, product_ok = [
        series.status == CONVERGED
        and abs(series.upper - closed) <= tol * max(1.0, abs(closed))
        for series, closed in ((sum_series, sum_closed),
                               (product_series, product_closed))]
    return ConsistencyReport(float(p_frac), float(theta), sum_closed,
                             sum_series.upper, sum_ok, product_closed,
                             product_series.upper, product_ok)
