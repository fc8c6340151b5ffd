"""Stability bound series, closed-form constants and envelope certification.

The recovery error bounds are geometric-type series

    additive:  (1/2) * sum_{i=i0}^inf 2^(i*l) * phi(x / 2^(l(i+l)), same)
    cubic:     (1/2) * sum_{i=i0}^inf 8^(i*l) * phi(x / 2^(l(i+l)), same)
    combined:  (1/12) * sum_{i=i0}^inf (2^(i*l) + 8^(i*l)) * phi(...)

with i0 = |l-1|/2, i.e. terms start at i = 0 for l = +1 and i = 1 for
l = -1.  Truncation is certified: for every supported control function the
term ratio is an exact geometric constant, so a partial sum always comes
with a tail bound and the true value lies in [partial, partial + tail].
Divergence (term ratio >= 1) is reported as a status, never as a silently
huge number; for power control functions this happens exactly at exponent
1 (additive part) and 3 (cubic part).  The ratio also fixes the depth of
the direct-method iterates, :func:`certified_depth`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .models import (Constant, ControlFunction, FuncModel, Linear,
                     CubicHomogeneous, PowerNoise, Point, ProductOfPowers,
                     SumOfPowers, norm, phi_degree, phi_diagonal)
from .noise import _POWER_SAFETY
from .residuals import ABS_COEFFICIENT_SUM

CONVERGED = "converged"
DIVERGED = "diverged"
INCONCLUSIVE = "inconclusive"

MAX_TERMS = 512
DIVERGENCE_EPS = 1e-12   # ratios at least 1 - this are treated as non-shrinking
DIVERGENCE_RUN = 8       # consecutive non-shrinking terms before giving up

COMPONENT_WEIGHTS = {"additive": 2, "cubic": 8}
TAIL_BITS = 20  # an iterate stops once its tail is at most 2^-20 of its bound

EXCLUDED_ADDITIVE_EXPONENT = 1
EXCLUDED_CUBIC_EXPONENT = 3


class ExcludedExponentError(ValueError):
    """Control-function exponent at which one component series diverges."""


class CertificationError(ValueError):
    """Model contains atoms with no certified perturbation envelope."""


class SeriesResult(NamedTuple):
    """A certified truncation: true value in [partial_sum, partial_sum + tail_bound]."""

    partial_sum: float
    tail_bound: float
    terms_used: int
    status: str

    @property
    def upper(self) -> float:
        """Certified upper bound; this is what recovery errors are checked against."""
        return self.partial_sum + self.tail_bound


def start_index(l: int) -> int:
    """First summation index: 0 for l = +1, 1 for l = -1 (that is |l-1|/2)."""
    return abs(l - 1) // 2


def require_direction(l: int) -> int:
    if l not in (-1, 1):
        raise ValueError(f"direction must be -1 or +1, got {l!r}")
    return l


def term_ratio(weight: int, phi: ControlFunction, l: int) -> float:
    """rho = w^l * 2^(-l*p), the term ratio of one component's series."""
    return 2.0 ** (l * (weight.bit_length() - 1 - float(phi_degree(phi))))


def _component_series(weight: int, phi: ControlFunction, x: Point, l: int,
                      tol: float, prefactor: float = 0.5,
                      extra_offset: int = 0) -> SeriesResult:
    """Certified truncation of prefactor * sum w^(il) phi(x/2^(l(i+l)), same).

    ``extra_offset`` shifts the start index (used by the uniqueness tails);
    the term ratio is :func:`term_ratio`, exact for all three families.
    The first term is evaluated at its actual argument; later terms follow
    the exact geometric recurrence, which keeps deep tails free of float
    overflow and underflow artifacts.
    """
    require_direction(l)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    w_bits = weight.bit_length() - 1  # 2 -> 1, 8 -> 3
    ratio = term_ratio(weight, phi, l)

    i0 = start_index(l) + extra_offset
    first_argument = x.scale(Fraction(1, 2) ** (l * (i0 + l)))
    term = prefactor * 2.0 ** (l * i0 * w_bits) * phi_diagonal(phi, first_argument)
    if term == 0.0:
        # The diagonal is identically zero (zero phi, or homogeneous phi at
        # the origin), so the whole series is exactly zero.
        return SeriesResult(0.0, 0.0, 1, CONVERGED)

    partial = 0.0
    flat = ratio >= 1.0 - DIVERGENCE_EPS  # a ratio that does not shrink
    remainder = 1.0 - ratio
    for terms in range(1, MAX_TERMS + 1):
        partial += term
        if flat:
            if terms >= DIVERGENCE_RUN:
                return SeriesResult(partial, math.inf, terms, DIVERGED)
        else:
            tail = term * ratio / remainder
            if tail <= tol * (partial if partial > 1.0 else 1.0):
                return SeriesResult(partial, tail, terms, CONVERGED)
        term *= ratio
    # Term cap reached; `term` already holds the next, not yet added, term.
    tail = term / (1.0 - ratio) if ratio < 1.0 else math.inf
    status = INCONCLUSIVE if math.isfinite(tail) else DIVERGED
    return SeriesResult(partial, tail, terms, status)


def merge_series(a, b, scale: float) -> SeriesResult:
    statuses = {a.status, b.status}
    if DIVERGED in statuses:
        status = DIVERGED
    elif INCONCLUSIVE in statuses:
        status = INCONCLUSIVE
    else:
        status = CONVERGED
    return SeriesResult(scale * (a.partial_sum + b.partial_sum),
                        scale * (a.tail_bound + b.tail_bound),
                        max(a.terms_used, b.terms_used), status)


def series_bound(kind: str, phi: ControlFunction, x: Point, l,
                 tol: float = 1e-12) -> SeriesResult:
    """Bound series of the requested kind at x.

    ``kind`` is "additive", "cubic" or "combined".  For "combined", ``l``
    may be a single direction or a pair (l_additive, l_cubic); the combined
    value is (1/6) * (additive series + cubic series), which coincides with
    the (1/12) * sum (2^(il) + 8^(il)) phi form when both directions agree.
    """
    if kind in COMPONENT_WEIGHTS:
        return _component_series(COMPONENT_WEIGHTS[kind], phi, x, l, tol)
    if kind != "combined":
        raise ValueError(f"unknown series kind {kind!r}")
    l_add, l_cub = (l, l) if isinstance(l, int) else tuple(l)
    s_add = _component_series(2, phi, x, l_add, tol)
    s_cub = _component_series(8, phi, x, l_cub, tol)
    return merge_series(s_add, s_cub, 1.0 / 6.0)


def uniqueness_tail(component: str, phi: ControlFunction, x: Point, l: int,
                    n: int, tol: float = 1e-12) -> SeriesResult:
    """Tail series sum_{i=n+i0}^inf w^(il) phi(...) bounding limit ambiguity.

    Two runs of the same iteration truncated at N1 < N2 can differ by at
    most this tail evaluated at n = N1: 2 rho^n times the series.
    """
    weight = COMPONENT_WEIGHTS[component]
    return _component_series(weight, phi, x, l, tol, prefactor=1.0,
                             extra_offset=n)


def certified_depth(component: str, phi: ControlFunction,
                    l: int) -> int | None:
    """First n with uniqueness_tail(n) <= 2^-TAIL_BITS * series_bound.

    ceil((TAIL_BITS + 1) / |w - deg phi|), w = 1 (additive) or 3 (cubic),
    whatever x and theta; None where l (w - deg phi) >= 0: no tail."""
    require_direction(l)
    w_bits = COMPONENT_WEIGHTS[component].bit_length() - 1
    exponent = l * (w_bits - phi_degree(phi))
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
    for 3.  Constant control functions converge only for l = -1.  At the
    excluded exponents no direction converges; the returned choice then
    yields a diverged series status downstream rather than an error here.
    """
    if isinstance(phi, Constant):
        return (-1, -1)
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
# Closed form vs. truncated series consistency
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
    """Compare the truncated combined series against both closed forms.

    The sum-of-powers form is checked at exponent p; the product form at
    (r, s), defaulting to the even split r = s = p/2.  A mismatch is a
    failed report, not an exception.
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

    sum_ok = (sum_series.status == CONVERGED
              and abs(sum_series.upper - sum_closed) <= tol)
    product_ok = (product_series.status == CONVERGED
                  and abs(product_series.upper - product_closed) <= tol)
    return ConsistencyReport(float(p_frac), float(theta), sum_closed,
                             sum_series.upper, sum_ok, product_closed,
                             product_series.upper, product_ok)
