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
is certified by the bound series in :mod:`addcubic.bounds`.  Given phi,
an iterate stops where the series tail is at most 2^-20 of the series
(:func:`bounds.certified_depth`); a Cauchy gap above the tail fails.

One :class:`OrbitTable` per point reads f on the dyadic orbit x * 2^k: a
model's polynomial part once, at x, which H and G take to one constant
per step, and the rest (the noise atoms, or a plain callable) once per
argument, over one denominator times powers of two, so steps, Cauchy gaps,
A and C align by shifts.  A float-mode result is the exact one at the same
double, rounded once.

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
_NEAR = OVERFLOW_GUARD_BITS - 64  # 2^(_NEAR + 1) sqrt(m) < 2^500, m < 2^126

DEFAULT_N_MAX = 48

_STEPS = {"additive": (1, 8), "cubic": (3, 2)}  # w, s of f(2a) - s f(a)


class OverflowGuardError(ArithmeticError):
    """Growing-argument iteration exceeded the magnitude guard."""


class DivergentControlError(ValueError):
    """The control function's bound series diverges for the chosen direction."""


def _vector_point(mode: str, norm_kind: str, vector) -> Point:
    return Point(tuple(ratio_values(vector, mode)), norm_kind)


def _norm(vector, norm_kind: str) -> float:
    nums, den = vector  # n / den rounds as float(Fraction) does
    if len(nums) == 1:
        return abs(nums[0] / den)
    return coords_norm([n / den for n in nums], norm_kind)


def _bits(vector) -> int:
    """b with every |n / den| below 2^(b + 1)."""
    nums, den = vector
    return max(map(abs, nums), default=0).bit_length() - den.bit_length()


def _step(hi, lo, e: int, s: int, offset=None):
    """2^e (hi - s lo) + offset."""
    nums, den = add_ratios(hi, lo, -s)
    value = ([n << e for n in nums], den) if e >= 0 else (nums, den << -e)
    return value if offset is None else add_ratios(value, offset)


class OrbitTable:
    """Memoized values of f on the dyadic orbit x * 2^k, through one
    :func:`models.orbit`: with ``odd`` (f(y) - f(-y)) / 2, else f(y).
    ``point`` makes a vector a point of x's mode and holds no table."""

    def __init__(self, func: Callable[[Point], Point], x: Point,
                 odd: bool = True):
        self.x, self._odd = x, odd
        u, den = integer_ratio(x.coords)
        self._moves = any(u)  # at x = 0 every k is the one argument 0
        den, parts, self._read = orbit(func, tuple(u), den, x.norm_kind, odd)
        self._parts = {r: (column, den) for r, column in parts}
        # Degree r adds (2^r - s) 2^(l n (w - r)) times its part to step
        # n: r = w the same each step, r = 2 through R, other odd r none.
        self._offsets = {component: self._parts.get(w) and (
            [((1 << w) - s) * c for c in self._parts[w][0]], den)
            for component, (w, s) in _STEPS.items()}
        # An odd part at x * 2^k is below 2^(top + k r + 1), r = 1 or 3.
        self._top = max([_bits(self._parts[r]) for r in (1, 3)
                         if r in self._parts], default=-math.inf)
        self._rest: dict = {}
        self.point = partial(_vector_point, x.mode, x.norm_kind)

    def _whole(self, k: int, rest, degrees=(1, 3)):
        """``rest`` at y = x * 2^k plus the parts of the given degrees."""
        for r, (column, den) in self._parts.items():
            if r in degrees:  # the part at x times 2^(k r)
                rest = add_ratios(rest, ([c << k * r for c in column], den)
                                  if k >= 0 else (column, den << -k * r))
        return rest

    def rest(self, k: int) -> tuple:
        """(f(y) or None, R(y), b), |R_j| < 2^(b + 1), at y = x * 2^k: the
        rest, read once and guarded whole by a bit-length bound."""
        k = k if self._moves else 0
        entry = self._rest.get(k)
        if entry is None:
            try:
                plain, value = self._read(k)
            except OverflowError as exc:
                raise OverflowGuardError(
                    f"evaluation overflowed float range: {exc}") from exc
            if not self._odd:
                plain = value = self._whole(k, value, (2,))
            bits = _bits(value)  # two parts and R add two bits
            if max(bits, self._top + k * (3 if k >= 0 else 1)) + 2 > _NEAR:
                self.guard(self._whole(k, value))
            entry = self._rest[k] = plain, value, bits
        return entry

    def entry(self, k: int) -> tuple:
        """(f(y), or None at k != 0 if odd, table value) at x * 2^k."""
        plain, rest, _ = self.rest(k)
        value = self._whole(k, rest)
        return (plain and self._whole(k, plain, (1, 2, 3)) if self._odd
                else value), value

    def guard(self, vector) -> None:
        """The overflow guard on the vector's norm."""
        try:
            magnitude = _norm(vector, self.x.norm_kind)
        except OverflowError as exc:
            raise OverflowGuardError(
                "evaluation magnitude exceeds float range") from exc
        if not math.isfinite(magnitude) \
                or magnitude > 2.0 ** OVERFLOW_GUARD_BITS:
            raise OverflowGuardError(
                f"evaluation norm {magnitude!r} exceeds 2^{OVERFLOW_GUARD_BITS}")


def odd_part(f) -> Callable[[Point], Point]:
    """x -> (f(x) - f(-x)) / 2, the odd value of x's orbit table."""
    def odd(x: Point) -> Point:
        table = OrbitTable(f, x)
        return table.point(table.entry(0)[1])
    return odd


def _transform(f, component: str) -> Callable[[Point], Point]:
    """x -> f(2x) - s f(x), the component's step at n = 0."""
    def transform(x: Point) -> Point:
        table = OrbitTable(f, x, odd=False)
        return table.point(_step(table.rest(1)[1], table.rest(0)[1], 0,
                                 _STEPS[component][1],
                                 table._offsets[component]))
    return transform


def h_transform(f) -> Callable[[Point], Point]:
    """x -> f(2x) - 8 f(x); kills cubic content, -6 times the additive part."""
    return _transform(f, "additive")


def g_transform(f) -> Callable[[Point], Point]:
    """x -> f(2x) - 2 f(x); kills additive content, 6 times the cubic part."""
    return _transform(f, "cubic")


class IterationTrace:
    """One rescaled-iterate run: values, Cauchy gaps and convergence flags;
    ``steps`` hold each step less ``offset``, the same at every step."""

    def __init__(self, direction: int, weight: int,
                 to_point: Callable[[object], Point], offset=None):
        self.direction, self.weight = direction, weight
        self.to_point, self.offset = to_point, offset
        self.steps: list = []
        self.cauchy_gaps: list[float] = []
        self.converged = False
        self.converged_at: int | None = None

    def vector(self, n: int):
        step = self.steps[n]
        return step if self.offset is None else add_ratios(step, self.offset)

    @cached_property
    def final(self) -> Point:
        return self.to_point(self.vector(-1))

    @cached_property
    def values(self) -> list[Point]:
        return [*[self.to_point(self.vector(n))
                  for n in range(self.n_steps)], self.final]

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
    offset = f._offsets[component]
    trace = IterationTrace(l, bounds_mod.COMPONENT_WEIGHTS[component],
                           f.point, offset)
    depth = None if phi is None else bounds_mod.certified_depth(component,
                                                                 phi, l)
    if depth is not None and depth <= n_steps:
        trace.converged, trace.converged_at = True, depth
        n_steps = depth
    w, s = _STEPS[component]
    near = offset is not None and _bits(offset) + 1 > _NEAR  # offset alone
    steps, gaps = trace.steps, trace.cauchy_gaps
    for n in range(n_steps + 1):
        # 2^e (R(k + 1) - s R(k)), k = -l n, e = l n w; R's bits bound it.
        hi, lo = (1 - l * n, -l * n) if f._moves else (0, 0)
        _, hi_value, hi_bits = f._rest.get(hi) or f.rest(hi)
        _, lo_value, lo_bits = f._rest.get(lo) or f.rest(lo)
        e = l * n * w
        value = _step(hi_value, lo_value, e, s)
        if near or max(hi_bits, lo_bits + 3) + 2 + e > _NEAR:
            f.guard(value if offset is None else add_ratios(value, offset))
        if n:
            gaps.append(_norm(add_ratios(value, steps[-1], -1), x.norm_kind))
        steps.append(value)
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
    """||final(n1) - final(n2)|| for one component's iteration, one run.

    Any two candidate limits agree up to the tail series at min(n1, n2);
    when ``phi`` is given the certified tail bound is attached so callers
    can assert gap <= tail.
    """
    if n1 == n2:
        raise ValueError("probe depths must differ")
    if min(n1, n2) < 1:
        raise ValueError("iteration count must be at least 1")
    trace = _iterate(f, x, l, component, max(n1, n2), None)
    gap = _norm(add_ratios(trace.steps[n1], trace.steps[n2], -1), x.norm_kind)
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

    f is odd-symmetrized, through one :class:`OrbitTable` per point; phi
    is supplied or certified from the model's noise atoms.  Per point, the
    report carries A(x), C(x), the odd-part and raw errors, the certified
    combined bound, and both traces.  A point is within its bound when its
    error is, and each Cauchy gap at step n is at most the uniqueness tail
    at n - 1.  A series that diverges raises :class:`DivergentControlError`.
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
        (a_nums, a_den), (c_nums, c_den) = final_a, final_c = (
            trace_a.vector(-1), trace_c.vector(-1))
        # A = -final / 6 and C = final / 6: ||v - A - C|| is
        # ||6 v - (C_final - A_final)|| / 6, aligned by shifts.
        six = add_ratios(final_c, final_a, -1)
        raw_error, error = [
            _norm((nums, 6 * den), norm_kind) for nums, den in (
                add_ratios(([6 * n for n in vector[0]], vector[1]), six, -1)
                for vector in orbit.entry(0))]
        report.points.append(PointRecovery(
            x=x,
            additive=orbit.point(([-n for n in a_nums], 6 * a_den)),
            cubic=orbit.point((c_nums, 6 * c_den)),
            error=error,
            raw_error=raw_error,
            bound=bound_value,
            within_bound=(error <= bound_value
                          and _gaps_within_tails(trace_a, series_a, phi)
                          and _gaps_within_tails(trace_c, series_c, phi)),
            additive_trace=trace_a,
            cubic_trace=trace_c,
        ))
    return report
