"""Direct-method recovery of additive and cubic parts from a perturbed map.

Two transforms isolate the parts of an odd function f:

    H(x) = f(2x) - 8 f(x)   (equals -6 * additive part on exact solutions)
    G(x) = f(2x) - 2 f(x)   (equals +6 * cubic part on exact solutions)

and G(x) - H(x) = 6 f(x) identically.  For a perturbed f the rescaled
iterates

    A_n(x) = 2^(l n) * H(x / 2^(l n)),   C_n(x) = 8^(l n) * G(x / 2^(l n))

converge (direction l in {-1, +1}, arguments shrink for +1 and grow for
-1) to the unique additive and cubic limits A_0, C_0, and the recovered
decomposition is A = -A_0 / 6, C = C_0 / 6.  The distance from f to A + C
is certified by the bound series in :mod:`addcubic.bounds`.

Given phi, an iterate stops where the series tail, which bounds its
distance from the limit, is at most 2^-20 of the series
(:func:`bounds.certified_depth`); a Cauchy gap above the tail fails.

Both iterates and the residual of one point read f on the same dyadic
orbit x * 2^k.  :func:`recover` gives each point one :class:`OrbitTable`
over one orbit reader (``models.orbit``): a model is expanded once at x
and read at each argument y by shifts, giving the odd part
(f(y) - f(-y)) / 2, and f(y) at k = 0, and each value is guarded once.
A point costs depth + 2 reads, the deeper depth when both directions
agree and the sum of both when they differ; a callable that is not a
model is called twice per argument.  :func:`odd_part`,
:func:`h_transform` and :func:`g_transform` read the same table at x.

Both modes run in integers: x is u over one denominator L (a double at
its exact binary value), the argument x * 2^k is (u << k, L) or
(u, L << -k), and each value is integer numerators over one denominator,
so a step w^(l n) * (hi - s * lo) is a shift and at most one gcd, formed
with its magnitude and Cauchy gap in :func:`_iterate` itself.  Norms
divide int by int, which rounds as ``float(Fraction)`` does, and a trace
builds a step's point only when it is read.  :func:`recover` forms A, C
and both residuals on those vectors too, so a float-mode result is the
exact-mode result at the same double with each value rounded once: no
float cancellation can hide a Cauchy gap.

Iterations at distinct points are independent; every structure here is
either immutable or built single-threaded per point, so points may be
processed concurrently while report assembly preserves input order.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from typing import Callable, NamedTuple, Sequence

from . import bounds as bounds_mod
from .bounds import require_direction
from .models import ControlFunction, FuncModel, Point, coords_norm, orbit
from .scalars import (EXACT, add_ratios, format_number, integer_ratio,
                      ratio_values)

OVERFLOW_GUARD_BITS = 500  # abort when any evaluation norm exceeds 2^500

DEFAULT_N_MAX = 48


class OverflowGuardError(ArithmeticError):
    """Growing-argument iteration exceeded the magnitude guard."""


class DivergentControlError(ValueError):
    """The control function's bound series diverges for the chosen direction."""


def _vector_point(mode: str, norm_kind: str, vector) -> Point:
    """The vector as a point: ``Fraction``s in exact mode, each coordinate
    rounded once in float mode."""
    return Point(tuple(ratio_values(vector, mode)), norm_kind)


def _norm(vector, norm_kind: str) -> float:
    nums, den = vector  # n / den rounds as float(Fraction) does
    if len(nums) == 1:
        return abs(nums[0] / den)
    return coords_norm([n / den for n in nums], norm_kind)


class OrbitTable:
    """Memoized values of f along the dyadic orbit x * 2^k of one point.

    x is read as integer numerators u over one denominator L, a double at
    its exact binary value, so in both modes the argument x * 2^k is
    (u << k, L) or (u, L << -k), and f is read through one
    :func:`models.orbit` reader made for x.  With ``odd`` a value is the
    odd part (f(y) - f(-y)) / 2, otherwise f(y); each is guarded once,
    when it is formed.  Entries are keyed by k and hold (numerators,
    denominator) vectors.  The methods work on those vectors, and
    ``point`` turns one into a point of x's mode; it holds the mode and
    norm kind only, so a trace that keeps it does not keep the table's
    entries alive.
    """

    def __init__(self, func: Callable[[Point], Point], x: Point,
                 odd: bool = True):
        self.x = x
        u, den = integer_ratio(x.coords)
        self._moves = any(u)  # at x = 0 every k is the one argument 0
        self._read = orbit(func, tuple(u), den, x.norm_kind, odd)
        self._entries: dict = {}
        self.point = partial(_vector_point, x.mode, x.norm_kind)

    def entry(self, k: int) -> tuple:
        """(f(y), table value) at y = x * 2^k; f(y) is None at k != 0 of
        an odd table."""
        entry = self._entries.get(k)
        if entry is None:
            try:
                entry = self._read(k)
            except OverflowError as exc:
                raise OverflowGuardError(
                    f"evaluation overflowed float range: {exc}") from exc
            nums, den = entry[1]
            # |n / den| < 2^(bits + 1) and the norm is at most sqrt(m) times
            # that, so within 498 - ceil(log2(m) / 2) bits it is below 2^499.
            bits = max(map(abs, nums), default=0).bit_length() - den.bit_length()
            if bits > (OVERFLOW_GUARD_BITS - 2
                       - ((len(nums) - 1).bit_length() + 1) // 2):
                self.magnitude(entry[1])
            self._entries[k] = entry
        return entry

    def pair(self, k: int) -> tuple:
        """The table values at x * 2^(k+1) and at x * 2^k."""
        hi, lo = (k + 1, k) if self._moves else (0, 0)
        entries = self._entries
        return ((entries.get(hi) or self.entry(hi))[1],
                (entries.get(lo) or self.entry(lo))[1])

    def magnitude(self, vector) -> float:
        """The vector's norm; the overflow guard."""
        try:
            magnitude = _norm(vector, self.x.norm_kind)
        except OverflowError as exc:
            raise OverflowGuardError(
                "evaluation magnitude exceeds float range") from exc
        if not math.isfinite(magnitude) \
                or magnitude > 2.0 ** OVERFLOW_GUARD_BITS:
            raise OverflowGuardError(
                f"evaluation norm {magnitude!r} exceeds 2^{OVERFLOW_GUARD_BITS}")
        return magnitude

    def distance(self, a, b) -> float:
        return _norm(add_ratios(a, b, -1), self.x.norm_kind)


def odd_part(f) -> Callable[[Point], Point]:
    """x -> (f(x) - f(-x)) / 2, the odd value of x's orbit table."""
    def odd(x: Point) -> Point:
        table = OrbitTable(f, x)
        return table.point(table.entry(0)[1])
    return odd


def _transform(f, subtract: int) -> Callable[[Point], Point]:
    """x -> f(2x) - subtract * f(x), the orbit table's step at k = 0."""
    def transform(x: Point) -> Point:
        table = OrbitTable(f, x, odd=False)
        return table.point(add_ratios(*table.pair(0), -subtract))
    return transform


def h_transform(f) -> Callable[[Point], Point]:
    """x -> f(2x) - 8 f(x); kills cubic content, -6 times the additive part."""
    return _transform(f, 8)


def g_transform(f) -> Callable[[Point], Point]:
    """x -> f(2x) - 2 f(x); kills additive content, 6 times the cubic part."""
    return _transform(f, 2)


class IterationTrace:
    """One rescaled-iterate run: values, Cauchy gaps and convergence flags."""

    def __init__(self, direction: int, weight: int,
                 to_point: Callable[[object], Point]):
        self.direction, self.weight = direction, weight
        self.to_point = to_point
        self.steps: list = []  # orbit vectors, turned into points on read
        self.cauchy_gaps: list[float] = []
        self.converged = False
        self.converged_at: int | None = None

    @cached_property
    def final(self) -> Point:
        return self.to_point(self.steps[-1])

    @cached_property
    def values(self) -> list[Point]:
        return [*map(self.to_point, self.steps[:-1]), self.final]

    @property
    def n_steps(self) -> int:
        return len(self.steps) - 1


def _iterate(f, x: Point, l: int, component: str, n_steps: int,
             phi: ControlFunction | None) -> IterationTrace:
    require_direction(l)
    if n_steps < 1:
        raise ValueError("iteration count must be at least 1")
    if not isinstance(f, OrbitTable):
        f = OrbitTable(f, x, odd=False)
    elif f.x != x:
        raise ValueError("orbit table belongs to another point")
    weight = bounds_mod.COMPONENT_WEIGHTS[component]
    subtract = 8 if weight == 2 else 2
    bits = weight.bit_length() - 1
    trace = IterationTrace(direction=l, weight=weight, to_point=f.point)
    depth = None if phi is None else bounds_mod.certified_depth(component,
                                                                 phi, l)
    if depth is not None and depth <= n_steps:
        trace.converged, trace.converged_at = True, depth
        n_steps = depth
    steps = trace.steps
    for n in range(n_steps + 1):
        # 2^(l n bits) * (value(2a) - subtract * value(a)) at a = x / 2^(l n),
        # formed on the numerators over the pair's common denominator.
        (h, h_den), (g, g_den) = f.pair(-l * n)
        common = math.gcd(h_den, g_den)
        h_scale, g_scale = g_den // common, subtract * (h_den // common)
        den, e = h_den * h_scale, l * n * bits
        if e < 0:
            den, e = den << -e, 0
        value = [(p * h_scale - q * g_scale) << e for p, q in zip(h, g)], den
        f.magnitude(value)  # the overflow guard on the step
        steps.append(value)
        if n:
            trace.cauchy_gaps.append(f.distance(value, steps[-2]))
    return trace


def additive_iterate(f, x: Point, l: int, n_steps: int = DEFAULT_N_MAX,
                     phi: ControlFunction | None = None) -> IterationTrace:
    """values[n] = 2^(ln) [f(x / 2^(l(n-l))) - 8 f(x / 2^(ln))].

    On exact solutions every value equals H(x).  Given the envelope
    ``phi`` the run stops at the certified depth, converged, when that is
    at most ``n_steps``; otherwise it runs ``n_steps``, not converged.
    Only the growth guard (direction -1 with fast-growing f) raises.
    """
    return _iterate(f, x, l, "additive", n_steps, phi)


def cubic_iterate(f, x: Point, l: int, n_steps: int = DEFAULT_N_MAX,
                  phi: ControlFunction | None = None) -> IterationTrace:
    """values[n] = 8^(ln) [f(x / 2^(l(n-l))) - 2 f(x / 2^(ln))].

    Same stopping behavior as :func:`additive_iterate`.
    """
    return _iterate(f, x, l, "cubic", n_steps, phi)


class ProbeResult(NamedTuple):
    """Distance between two truncation depths of one iteration."""

    gap: float
    tail_bound: float | None


def uniqueness_probe(f, x: Point, l: int, component: str, n1: int, n2: int,
                     phi: ControlFunction | None = None,
                     tol: float = 1e-12) -> ProbeResult:
    """||final(n1) - final(n2)|| for one component's iteration.

    Any two candidate limits agree up to the tail series at min(n1, n2);
    when ``phi`` is given the certified tail bound is attached so callers
    can assert gap <= tail.  One run to max(n1, n2) holds both depths.
    """
    if n1 == n2:
        raise ValueError("probe depths must differ")
    if min(n1, n2) < 1:
        raise ValueError("iteration count must be at least 1")
    table = f if isinstance(f, OrbitTable) else OrbitTable(f, x, odd=False)
    trace = _iterate(table, x, l, component, max(n1, n2), None)
    gap = table.distance(trace.steps[n1], trace.steps[n2])
    tail = None
    if phi is not None:
        tail = bounds_mod.uniqueness_tail(component, phi, x, l,
                                          min(n1, n2), tol).upper
    return ProbeResult(gap, tail)


# ---------------------------------------------------------------------------
# Combined recovery
# ---------------------------------------------------------------------------

class PointRecovery:
    """Recovered values and certified bound at one sample point."""

    def __init__(self, x: Point, additive: Point, cubic: Point, error: float,
                 raw_error: float, bound: float, within_bound: bool,
                 additive_trace: IterationTrace, cubic_trace: IterationTrace):
        self.x, self.additive, self.cubic = x, additive, cubic
        self.error, self.raw_error, self.bound = error, raw_error, bound
        self.within_bound = within_bound
        self.additive_trace, self.cubic_trace = additive_trace, cubic_trace


class RecoveryReport:
    """Deterministic record of a recovery run over a list of points."""

    def __init__(self, direction_additive: int, direction_cubic: int,
                 phi: ControlFunction, mode: str, norm_kind: str, n_max: int):
        self.direction_additive = direction_additive
        self.direction_cubic = direction_cubic
        self.phi, self.mode, self.norm_kind = phi, mode, norm_kind
        self.n_max = n_max
        self.points: list[PointRecovery] = []

    @property
    def max_error(self) -> float:
        return max((p.error for p in self.points), default=0.0)

    @property
    def max_raw_error(self) -> float:
        return max((p.raw_error for p in self.points), default=0.0)

    @property
    def all_within_bound(self) -> bool:
        return all(p.within_bound for p in self.points)

    @property
    def all_converged(self) -> bool:
        return all(p.additive_trace.converged and p.cubic_trace.converged
                   for p in self.points)

    @property
    def ok(self) -> bool:
        return self.all_within_bound

    CSV_HEADER = ("index", "x", "additive", "cubic", "error", "raw_error",
                  "bound", "within_bound", "additive_converged",
                  "cubic_converged")

    def to_json_dict(self) -> dict:
        from .config import phi_to_json  # late import: config sits above this module

        def trace_dict(trace: IterationTrace) -> dict:
            return {
                "n_steps": trace.n_steps,
                "converged": trace.converged,
                "converged_at": trace.converged_at,
                "final": [format_number(c) for c in trace.final.coords],
                "cauchy_gaps": list(trace.cauchy_gaps),
            }

        return {
            "schema_version": 1,
            "mode": self.mode,
            "norm": self.norm_kind,
            "direction_additive": self.direction_additive,
            "direction_cubic": self.direction_cubic,
            "phi": phi_to_json(self.phi),
            "n_max": self.n_max,
            "summary": {
                "count": len(self.points),
                "max_error": self.max_error,
                "max_raw_error": self.max_raw_error,
                "all_within_bound": self.all_within_bound,
                "all_converged": self.all_converged,
            },
            "points": [
                {
                    "x": [format_number(c) for c in item.x.coords],
                    "additive": [format_number(c) for c in item.additive.coords],
                    "cubic": [format_number(c) for c in item.cubic.coords],
                    "error": item.error,
                    "raw_error": item.raw_error,
                    "bound": item.bound,
                    "within_bound": item.within_bound,
                    "additive_trace": trace_dict(item.additive_trace),
                    "cubic_trace": trace_dict(item.cubic_trace),
                }
                for item in self.points
            ],
        }


def resolve_directions(phi: ControlFunction, l_additive="auto",
                       l_cubic="auto") -> tuple[int, int]:
    auto_add, auto_cub = bounds_mod.auto_directions(phi)
    l_a = auto_add if l_additive == "auto" else require_direction(l_additive)
    l_c = auto_cub if l_cubic == "auto" else require_direction(l_cubic)
    return l_a, l_c


def _gaps_within_tails(trace: IterationTrace, series, phi) -> bool:
    """Each gap at step n at most the tail at n - 1, 2 rho^(n-1) series."""
    ratio = bounds_mod.term_ratio(trace.weight, phi, trace.direction)
    tail = 2.0 * series.upper
    for gap in trace.cauchy_gaps:
        if gap > tail:
            return False
        tail *= ratio
    return True


def recover(f: FuncModel, points: Sequence[Point],
            phi: ControlFunction | None = None,
            l_additive="auto", l_cubic="auto",
            n_max: int = DEFAULT_N_MAX) -> RecoveryReport:
    """Recover the additive and cubic parts of f at the given points.

    f is odd-symmetrized first, through one :class:`OrbitTable` per point
    that both iterates and the residuals read; the perturbation envelope
    phi is either supplied or certified from the model's noise atoms.  Per
    point, the report carries A(x), C(x), the odd-part and raw errors, the
    certified combined bound, and both iteration traces.  A point is within
    its bound when its error is, and each Cauchy gap at step n is at most
    the uniqueness tail at n - 1.  A control function whose series diverges
    for the chosen direction raises :class:`DivergentControlError`.
    """
    if phi is None:
        phi = bounds_mod.certify_phi(f)
    l_add, l_cub = resolve_directions(phi, l_additive, l_cubic)

    mode = points[0].mode if points else EXACT
    norm_kind = points[0].norm_kind if points else "euclidean"
    report = RecoveryReport(direction_additive=l_add, direction_cubic=l_cub,
                            phi=phi, mode=mode, norm_kind=norm_kind,
                            n_max=n_max)
    for x in points:
        series_a = bounds_mod.series_bound("additive", phi, x, l_add)
        series_c = bounds_mod.series_bound("cubic", phi, x, l_cub)
        series = bounds_mod.merge_series(series_a, series_c, 1.0 / 6.0)
        if series.status == bounds_mod.DIVERGED:
            raise DivergentControlError(
                "bound series diverges for the chosen directions "
                f"(additive l={l_add}, cubic l={l_cub})")
        bound_value = series.upper
        orbit = OrbitTable(f, x)
        trace_a = additive_iterate(orbit, x, l_add, n_max, phi)
        trace_c = cubic_iterate(orbit, x, l_cub, n_max, phi)
        (a_nums, a_den), (c_nums, c_den) = trace_a.steps[-1], trace_c.steps[-1]
        additive = [-n for n in a_nums], 6 * a_den  # A = -final / 6
        cubic = c_nums, 6 * c_den  # C = final / 6
        parts = add_ratios(additive, cubic)
        raw, odd = orbit.entry(0)
        error = orbit.distance(odd, parts)
        report.points.append(PointRecovery(
            x=x,
            additive=orbit.point(additive),
            cubic=orbit.point(cubic),
            error=error,
            raw_error=orbit.distance(raw, parts),
            bound=bound_value,
            within_bound=(error <= bound_value
                          and _gaps_within_tails(trace_a, series_a, phi)
                          and _gaps_within_tails(trace_c, series_c, phi)),
            additive_trace=trace_a,
            cubic_trace=trace_c,
        ))
    return report
