"""Direct-method recovery of additive and cubic parts from a perturbed map.

For an odd f, H(x) = f(2x) - 8 f(x) and G(x) = f(2x) - 2 f(x) are -6 and
6 times the additive and cubic parts of an exact solution.  For a
perturbed f the rescaled iterates A_n(x) = 2^(l n) H(x / 2^(l n)) and
C_n(x) = 8^(l n) G(x / 2^(l n)) converge (arguments shrink for l = +1 and
grow for l = -1) to the unique additive and cubic limits A_0, C_0, and
A = -A_0 / 6, C = C_0 / 6, within the bound series of
:mod:`addcubic.bounds`.  Given phi, an iterate stops where the series
tail is at most 2^-20 of the series (:func:`bounds.certified_depth`); a
Cauchy gap above the tail fails.

One :class:`OrbitTable` per point holds f on the dyadic orbit x * 2^k: a
model's polynomial part, summed once at x, which H and G take to one
constant per step, and the rest (noise atoms, or a plain callable), read
once per argument and in one batch per iterate, as integer columns over
one denominator.  An iterate is integer loops over them, each gap an
int/int division, so a float result is the exact one rounded once.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from itertools import chain, repeat, takewhile
from typing import Callable, NamedTuple, Sequence

from . import bounds as bounds_mod
from .bounds import require_direction
from .models import ControlFunction, FuncModel, Point, coords_norm, orbit
from .scalars import (EXACT, add_ratios, format_number, integer_ratio,
                      over_lcm, ratio_values)

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
    return coords_norm([n / den for n in nums], norm_kind)


def _bits(vector) -> int:
    """b with every |n / den| below 2^(b + 1)."""
    nums, den = vector
    return max(max(nums, default=0), -min(nums, default=0)).bit_length() \
        - den.bit_length()


class OrbitTable:
    """f on the dyadic orbit x * 2^k, through one :func:`models.orbit`:
    with ``odd`` (f(y) - f(-y)) / 2, else f(y), each argument read once.
    ``point`` makes a vector a point of x's mode and holds no table."""

    def __init__(self, func: Callable[[Point], Point], x: Point,
                 odd: bool = True):
        self.x, self._odd = x, odd
        u, den = integer_ratio(x.coords)
        self._moves = any(u)  # at x = 0 every k is the one argument 0
        den, parts, self._read = orbit(func, tuple(u), den, x.norm_kind, odd)
        self._parts = {r: (column, den) for r, column in parts}
        # An odd part at x * 2^k is below 2^(top + k r + 1), r = 1 or 3.
        self._top = max([_bits(self._parts[r]) for r in (1, 3)
                         if r in self._parts], default=-math.inf)
        self._rest: dict = {}  # k -> the rest R(y), (numerators, den)
        self._plain = None  # with odd, f(x)'s rest
        self.point = partial(_vector_point, x.mode, x.norm_kind)

    def _whole(self, k: int, rest, degrees=(1, 3)):
        """``rest`` at y = x * 2^k plus the parts of the given degrees."""
        for r, (column, den) in self._parts.items():
            if r in degrees:  # the part at x times 2^(k r)
                rest = add_ratios(rest, ([c << k * r for c in column], den)
                                  if k >= 0 else (column, den << -k * r))
        return rest

    def column(self, ks) -> tuple:
        """(columns, den, error): per output, R at y = x * 2^k for the ks
        in order, over one den.  New ks are read in one batch, or if that
        raises one at a time; the columns stop at the first k whose read
        raises or whose whole value trips the guard, with its ``error``."""
        ks = ks if self._moves else [0] * len(ks)
        new, error = [k for k in dict.fromkeys(ks) if k not in self._rest], None
        try:  # what any read raises is raised at its step, so it waits
            batches = [(new, self._read(new))] if new else []
        except Exception:
            batches = []
            for k in new:
                try:
                    batches.append(([k], self._read([k])))
                except Exception as exc:
                    error = exc
                    break
        if isinstance(error, OverflowError):  # the guard's, caused by it
            error, error.__cause__ = OverflowGuardError(
                f"evaluation overflowed float range: {error}"), error
        for read, (den, rows, plain) in batches:  # or f(y) less odd parts
            self._rest.update(zip(read, zip(rows, repeat(den))) if self._odd
                              else [(k, self._whole(k, (row, den), (2,)))
                                    for k, row in zip(read, rows)])
            self._plain = self._plain or plain and (plain, den)
        den, rows = over_lcm(list(takewhile(bool, map(self._rest.get, ks))))
        if max(_bits((tuple(chain.from_iterable(rows)), den)),
               self._top + 3 * max([1, *ks])) + 2 > _NEAR:  # 2 parts, 2 bits
            for at, (k, row) in enumerate(zip(ks, rows)):
                try:
                    self.guard(self._whole(k, (row, den)))
                except OverflowGuardError as exc:
                    rows, error = rows[:at], exc
                    break
        return list(zip(*rows)), den, error  # no columns if no rows

    def read(self, ks) -> list:
        """f's table values at y = x * 2^k for the ks, or what one raised."""
        columns, den, error = self.column(ks)
        if error is not None:
            raise error
        return [self._whole(k, (row, den)) for k, row in zip(ks, zip(*columns))]

    def entry(self) -> tuple:
        """(f(x), odd part) at x, on an odd table."""
        value, = self.read([0])
        return self._whole(0, self._plain, (1, 2, 3)), value

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
        return table.point(table.entry()[1])
    return odd


def _transform(f, s: int) -> Callable[[Point], Point]:
    """x -> f(2x) - s f(x), read from x's orbit table."""
    def transform(x: Point) -> Point:
        table = OrbitTable(f, x, odd=False)
        return table.point(add_ratios(*table.read([1, 0]), -s))
    return transform


def h_transform(f) -> Callable[[Point], Point]:
    """x -> f(2x) - 8 f(x); kills cubic content, -6 times the additive part."""
    return _transform(f, 8)


def g_transform(f) -> Callable[[Point], Point]:
    """x -> f(2x) - 2 f(x); kills additive content, 6 times the cubic part."""
    return _transform(f, 2)


class IterationTrace:
    """One rescaled-iterate run: values, Cauchy gaps and convergence flags;
    ``steps`` hold each step less ``offset``, the same at every step."""

    def __init__(self, direction: int, weight: int,
                 to_point: Callable[[object], Point], offset, steps: list,
                 cauchy_gaps: list[float], converged_at: int | None):
        self.direction, self.weight = direction, weight
        self.to_point, self.offset = to_point, offset
        self.steps, self.cauchy_gaps = steps, cauchy_gaps
        self.converged, self.converged_at = converged_at is not None, converged_at

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
             phi: ControlFunction | None, depth: int | None) -> IterationTrace:
    require_direction(l)
    if n_steps < 1:
        raise ValueError("iteration count must be at least 1")
    if not isinstance(f, OrbitTable):
        f = OrbitTable(f, x, odd=False)
    elif f.x != x:
        raise ValueError("orbit table belongs to another point")
    w, s = _STEPS[component]
    # Degree r adds (2^r - s) 2^(l n (w - r)) times its part to step n:
    # r = w the same each step, r = 2 through R, other odd r none.
    column, part_den = f._parts.get(w, (None, 1))
    offset = column and ([((1 << w) - s) * c for c in column], part_den)
    if depth is None and phi is not None:
        depth = bounds_mod.certified_depth(component, phi, l)
    depth = depth if depth is not None and depth <= n_steps else None
    n_steps = depth or n_steps
    # Step n reads k = 1 - l n and -l n: 1 and 0, then one new k per step.
    columns, den, error = f.column(
        range(1, -n_steps - 1, -1) if l > 0 else [1, 0, *range(2, n_steps + 2)])
    run = min(n_steps + 1, len(columns[0] if columns else ()) - 1)
    if l < 0:  # in k order 0, 1, 2, ...: step n reads n + 1 and n
        columns = [c[1::-1] + c[2:] for c in columns]
    # Step n, (R(k + 1) - s R(k)) at c[n + (l < 0)] and c[n + (l > 0)],
    # shifted by l n w less the lowest, which goes into the one den.
    last = 0 if l > 0 else n_steps * w
    den <<= last
    columns = [[(a - s * b) << e for a, b, e in zip(
        c[l < 0:], c[l > 0:], range(last, last + l * run * w, l * w))]
        for c in columns]
    steps = list(zip(zip(*columns), repeat(den)))
    # A step and an offset each below 2^_NEAR stay below the guard.
    if max(_bits((tuple(chain.from_iterable(columns)), den)),
           _bits(offset or ((), 1))) >= _NEAR:
        for step in steps:
            f.guard(step if offset is None else add_ratios(step, offset))
    if run <= n_steps:  # a read of step run raised
        raise error
    gaps = [[b - a for a, b in zip(c, c[1:])] for c in columns]
    gaps = [abs(gap) / den for gap in gaps[0]] if len(gaps) == 1 \
        else [_norm((gap, den), x.norm_kind) for gap in zip(*gaps)]
    return IterationTrace(l, bounds_mod.COMPONENT_WEIGHTS[component],
                          f.point, offset, steps, gaps, depth)


def additive_iterate(f, x: Point, l: int, n_steps: int = DEFAULT_N_MAX,
                     phi: ControlFunction | None = None, *,
                     depth: int | None = None) -> IterationTrace:
    """values[n] = 2^(ln) [f(x / 2^(l(n-l))) - 8 f(x / 2^(ln))].

    On exact solutions every value equals H(x).  Given the envelope
    ``phi``, or its certified ``depth``, the run stops at that depth,
    converged, when it is at most ``n_steps``; otherwise it runs
    ``n_steps``, not converged.  Only the growth guard (direction -1 with
    fast-growing f) raises.
    """
    return _iterate(f, x, l, "additive", n_steps, phi, depth)


def cubic_iterate(f, x: Point, l: int, n_steps: int = DEFAULT_N_MAX,
                  phi: ControlFunction | None = None, *,
                  depth: int | None = None) -> IterationTrace:
    """values[n] = 8^(ln) [f(x / 2^(l(n-l))) - 2 f(x / 2^(ln))].

    Same stopping behavior as :func:`additive_iterate`.
    """
    return _iterate(f, x, l, "cubic", n_steps, phi, depth)


class ProbeResult(NamedTuple):
    """Distance between two truncation depths of one iteration."""

    gap: float
    tail_bound: float | None


def uniqueness_probe(f, x: Point, l: int, component: str, n1: int, n2: int,
                     phi: ControlFunction | None = None) -> ProbeResult:
    """||final(n1) - final(n2)|| for one component's iteration, one run.

    Any two candidate limits agree up to the tail series at min(n1, n2);
    when ``phi`` is given the certified tail bound is attached so callers
    can assert gap <= tail.
    """
    if n1 == n2:
        raise ValueError("probe depths must differ")
    if min(n1, n2) < 1:
        raise ValueError("iteration count must be at least 1")
    trace = _iterate(f, x, l, component, max(n1, n2), None, None)
    gap = _norm(add_ratios(trace.steps[n1], trace.steps[n2], -1), x.norm_kind)
    tail = None
    if phi is not None:
        tail = bounds_mod.uniqueness_tail(component, phi, x, l,
                                          min(n1, n2)).upper
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
    l_add, l_cub = bounds_mod.auto_directions(phi)
    l_add = l_add if l_additive == "auto" else require_direction(l_additive)
    l_cub = l_cub if l_cubic == "auto" else require_direction(l_cubic)

    mode = points[0].mode if points else EXACT
    norm_kind = points[0].norm_kind if points else "euclidean"
    report = RecoveryReport(direction_additive=l_add, direction_cubic=l_cub,
                            phi=phi, mode=mode, norm_kind=norm_kind,
                            n_max=n_max)
    depth_a = bounds_mod.certified_depth("additive", phi, l_add)
    depth_c = bounds_mod.certified_depth("cubic", phi, l_cub)
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
        trace_a = additive_iterate(orbit, x, l_add, n_max, depth=depth_a)
        trace_c = cubic_iterate(orbit, x, l_cub, n_max, depth=depth_c)
        (a_nums, a_den), (c_nums, c_den) = final_a, final_c = (
            trace_a.vector(-1), trace_c.vector(-1))
        # ||v - A - C|| = ||6 v - (C_final - A_final)|| / 6.
        six = add_ratios(final_c, final_a, -1)
        raw_error, error = [
            _norm((nums, 6 * den), norm_kind) for nums, den in (
                add_ratios(([6 * n for n in vector[0]], vector[1]), six, -1)
                for vector in orbit.entry())]
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
