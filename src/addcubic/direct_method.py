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
in one batch for every k both iterates need, as per-output integer
columns over one denominator.  An iterate is integer loops over slices of
them, each gap an int/int division: a float is the exact value rounded.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate, chain, repeat
from operator import gt, mul
from typing import Callable, NamedTuple, Sequence

from . import bounds as bounds_mod
from .bounds import require_direction
from .models import ControlFunction, FuncModel, Point, coords_norm, orbit
from .scalars import (EXACT, add_ratios, format_number, integer_ratio,
                      over_lcm)

OVERFLOW_GUARD_BITS = 500  # abort when any evaluation norm exceeds 2^500
_NEAR = OVERFLOW_GUARD_BITS - 64  # 2^(_NEAR + 1) sqrt(m) < 2^500, m < 2^126

DEFAULT_N_MAX = 48

_STEPS = {"additive": (1, 8), "cubic": (3, 2)}  # w, s of f(2a) - s f(a)


class OverflowGuardError(ArithmeticError):
    """Growing-argument iteration exceeded the magnitude guard."""


class DivergentControlError(ValueError):
    """The control function's bound series diverges for the chosen direction."""


def _vector_point(norm_kind: str, vector) -> Point:
    nums, den = vector
    return Point(tuple([Fraction(n, den) for n in nums]), norm_kind)


def _norm(vector, norm_kind: str) -> float:
    nums, den = vector  # n / den rounds as float(Fraction) does
    return coords_norm([n / den for n in nums], norm_kind)


def _bits(vector) -> int:
    """b with every |n / den| below 2^(b + 1)."""
    nums, den = vector
    return max(max(nums, default=0), -min(nums, default=0)).bit_length() \
        - den.bit_length()


def _prefix(check, order, seen: dict | None = None) -> tuple:
    """(n, error): ``check`` passes order[:n], and raises error at order[n].
    ``seen`` keeps each k's result, or its error, for a later order."""
    seen = {} if seen is None else seen
    for n, k in enumerate(order):
        if k not in seen:
            try:
                seen[k] = check(k)
            except Exception as exc:
                if isinstance(exc, OverflowError):  # the guard's, caused by it
                    exc, exc.__cause__ = OverflowGuardError(
                        f"evaluation overflowed float range: {exc}"), exc
                seen[k] = exc
        if isinstance(seen[k], Exception):
            return n, seen[k]
    return len(order), None


def _joined(reads: list) -> tuple:
    """Reads of one k each, in order, as the one read of all those ks."""
    plain = [(p, d) for d, _, p in reads if p is not None]
    den, rows = over_lcm([([c for c, in columns], d) for d, columns, _ in reads]
                         + plain)
    return den, list(zip(*rows[:len(reads)])), rows[-1] if plain else None


class OrbitTable:
    """f on the dyadic orbit x * 2^k, ``low`` <= k <= ``high``, read through
    one :func:`models.orbit` in one batch on first use: per output one
    integer column over one denominator, with ``odd`` (f(y) - f(-y)) / 2,
    else f(y).  An iterate reads 1, 0, then away from x; the first k whose
    read raises, or whose whole value trips the guard, ends it with that
    error (raised on reading if 1 or 0; a batch that raises is read k by
    k, each k once, and those reads are kept).  ``point`` makes a vector a
    point of x's norm and holds no table."""

    def __init__(self, func: Callable[[Point], Point], x: Point,
                 odd: bool = True, low: int = 0, high: int = 0):
        self.x, self._odd, self._ks = x, odd, range(low, high + 1)
        u, den = integer_ratio(x.coords)
        den, parts, self._read = orbit(func, tuple(u), den, x.norm_kind, odd)
        self._parts = {r: (column, den) for r, column in parts}
        self.point = partial(_vector_point, x.norm_kind)
        self._moves = any(u)  # at x = 0 every k is the one argument 0

    @cached_property
    def _columns(self) -> list:
        """The columns, read on first use, with the read's ``_cuts``."""
        odd, ks, read = self._odd, self._ks, self._read
        # Each direction's order of ks: 1, 0, then away from x.
        orders = [range(min(1, ks[-1]), ks[0] - 1, -1),
                  [*(1, 0)[ks[-1] < 1:], *range(2, ks[-1] + 1)]]
        self._cuts = [(len(order), None) for order in orders]
        try:
            den, columns, plain = read(ks if self._moves else [0])
        except Exception:
            reads: dict = {}  # each k read alone once: its read, or error
            self._cuts = [_prefix(lambda k: read([k]), order, reads)
                          for order in orders]
            # The ks the orders passed: one range, as each runs from 1 and 0.
            ks = sorted(k for k, r in reads.items()
                        if not isinstance(r, Exception))
            den, columns, plain = _joined([reads[k] for k in ks])
            ks = ks or [0]
        if not self._moves:
            columns = [list(column) * len(ks) for column in columns]
        if not odd and 2 in self._parts:  # f(y) less its odd parts
            den, rows = over_lcm([self._whole(k, (row, den), (2,))
                                  for k, row in zip(ks, zip(*columns))])
            columns = list(zip(*rows))
        self._low, self._den, self._columns, self._plain = (ks[0], den,
                                                            columns, plain)
        self._bits = _bits((list(chain(*columns)), den))
        # An odd part at x * 2^k is below 2^(top + k r + 1), r = 1 or 3.
        top = max([_bits(self._parts[r]) for r in (1, 3)
                   if r in self._parts], default=-math.inf)
        if max(self._bits, top + 3 * max(1, ks[-1])) + 2 > _NEAR:  # 2 parts
            for i, (n, error) in enumerate(self._cuts):
                n, trip = _prefix(lambda k: self.guard(self.value(k)),
                                  orders[i][:n])
                self._cuts[i] = n, trip or error
        if self._cuts[1][0] < min(2, len(orders[1])):  # ended at 1 or 0
            del self._columns  # so that each use raises it again
            raise self._cuts[1][1]
        return columns

    def _whole(self, k: int, rest, degrees=(1, 3)):
        """``rest`` at y = x * 2^k plus the parts of the given degrees."""
        for r, (column, den) in self._parts.items():
            if r in degrees:  # the part at x times 2^(k r)
                rest = add_ratios(rest, ([c << k * r for c in column], den)
                                  if k >= 0 else (column, den << -k * r))
        return rest

    def value(self, k: int):
        """f's table value at y = x * 2^k, from the columns as read."""
        return self._whole(k, ([c[k - self._low] for c in self._columns],
                               self._den))

    def entry(self) -> tuple:
        """(f(x), odd part) at x, on an odd table."""
        value = self.value(0)  # reads the table, and with it plain
        return self._whole(0, (self._plain, self._den), (1, 2, 3)), value

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
        table = OrbitTable(f, x, False, 0, 1)
        return table.point(add_ratios(table.value(1), table.value(0), -s))
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

    def __init__(self, direction: int, to_point: Callable[[object], Point],
                 offset, steps: list, cauchy_gaps: list[float],
                 converged_at: int | None):
        self.direction, self.to_point = direction, to_point
        self.offset, self.steps, self.cauchy_gaps = offset, steps, cauchy_gaps
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
    if depth is None and phi is not None:
        depth = bounds_mod.certified_depth(component, phi, l)
    depth = depth if depth is not None and depth <= n_steps else None
    n_steps = depth or n_steps
    if not isinstance(f, OrbitTable):
        f = OrbitTable(f, x, False, -n_steps * (l > 0), 1 + n_steps * (l < 0))
    elif f.x != x:
        raise ValueError("orbit table belongs to another point")
    w, s = _STEPS[component]
    # Degree r adds (2^r - s) 2^(l n (w - r)) times its part to step n:
    # r = w the same each step, r = 2 through R, other odd r none.
    column, part_den = f._parts.get(w, (None, 1))
    offset = column and ([((1 << w) - s) * c for c in column], part_den)
    # The iterate reads n_steps + 2 ks, fewer where the orbit ends, in the
    # order 1, 0, -1, ... (l = +1) or 0, 1, 2, ... (l = -1).  There step n,
    # R(k + 1) - s R(k), is c[n + (l < 0)] - s c[n + (l > 0)], shifted by
    # l n w less the lowest shift, which goes into the den.
    columns, (n, error) = f._columns, f._cuts[l < 0]  # reading sets cuts
    if n < n_steps + 2 and error is None:
        raise ValueError("orbit table does not reach the iterate's ks")
    run, last = min(n - 1, n_steps + 1), (l < 0) * n_steps * w
    low, high = (1 - run, 1) if l > 0 else (0, run)
    den = f._den << last
    columns = [[(a - s * b) << e for a, b, e in zip(
        c[l < 0:], c[l > 0:], range(last, last + l * run * w, l * w))]
        for c in [c[low - f._low:high - f._low + 1][::-l] for c in columns]]
    rows = list(zip(*columns))
    steps = list(zip(rows, repeat(den)))
    # A step is below 9 times its reads times 2^(n w) for l = +1; a step
    # and an offset each below 2^_NEAR stay below the guard.
    if max(f._bits + 4 + (l > 0) * (run - 1) * w,
           _bits(offset or ((), 1))) >= _NEAR:
        for step in steps:
            f.guard(step if offset is None else add_ratios(step, offset))
    if run <= n_steps:  # a read of step run raised
        raise error
    c = columns[0]
    gaps = [abs(b - a) / den for a, b in zip(c, c[1:])] if len(columns) == 1 \
        else [_norm(([q - p for p, q in zip(a, b)], den), x.norm_kind)
              for a, b in zip(rows, rows[1:])]
    return IterationTrace(l, f.point, offset, steps, gaps, depth)


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
                 phi: ControlFunction, norm_kind: str, n_max: int):
        self.direction_additive = direction_additive
        self.direction_cubic = direction_cubic
        self.phi, self.norm_kind = phi, norm_kind
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

    ok = all_within_bound

    CSV_HEADER = ("index", "x", "additive", "cubic", "error", "raw_error",
                  "bound", "within_bound", "additive_converged",
                  "cubic_converged")

    def to_json_dict(self, mode: str = EXACT) -> dict:
        """The report, each point and value printed in ``mode``."""
        from .config import phi_to_json  # late import: config sits above this module

        def trace_dict(trace: IterationTrace) -> dict:
            return {
                "n_steps": trace.n_steps,
                "converged": trace.converged,
                "converged_at": trace.converged_at,
                "final": [format_number(c, mode) for c in trace.final.coords],
                "cauchy_gaps": list(trace.cauchy_gaps),
            }

        return {
            "schema_version": 1,
            "mode": mode,
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
                    "x": [format_number(c, mode) for c in item.x.coords],
                    "additive": [format_number(c, mode)
                                 for c in item.additive.coords],
                    "cubic": [format_number(c, mode) for c in item.cubic.coords],
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


def recover(f: FuncModel, points: Sequence[Point],
            phi: ControlFunction | None = None,
            l_additive="auto", l_cubic="auto",
            n_max: int = DEFAULT_N_MAX) -> RecoveryReport:
    """Recover the additive and cubic parts of f at the given points.

    f is odd-symmetrized, through one :class:`OrbitTable` per point, read
    once for both iterates; phi is supplied or certified from the model's
    noise atoms.  Per point, the report carries A(x), C(x), the odd-part
    and raw errors, the certified combined bound, and both traces.  A
    point is within its bound when its error is, and each Cauchy gap at
    step n is at most the uniqueness tail at n - 1, 2 rho^(n-1) times its
    series.  A series that diverges raises :class:`DivergentControlError`.
    """
    if phi is None:
        phi = bounds_mod.certify_phi(f)
    l_add, l_cub = bounds_mod.auto_directions(phi)
    l_add = l_add if l_additive == "auto" else require_direction(l_additive)
    l_cub = l_cub if l_cubic == "auto" else require_direction(l_cubic)

    norm_kind = points[0].norm_kind if points else "euclidean"
    report = RecoveryReport(direction_additive=l_add, direction_cubic=l_cub,
                            phi=phi, norm_kind=norm_kind, n_max=n_max)
    depth_a = bounds_mod.certified_depth("additive", phi, l_add)
    depth_c = bounds_mod.certified_depth("cubic", phi, l_cub)
    # One read per point, of k = 1 down to -n (l = +1) or 0 up to n + 1 for
    # an iterate of n steps, for both.
    n_a, n_c = [max(1, n_max if depth is None or depth > n_max else depth)
                for depth in (depth_a, depth_c)]
    reach = (-max(n_a * (l_add > 0), n_c * (l_cub > 0)),
             1 + max(n_a * (l_add < 0), n_c * (l_cub < 0)))
    # rho per part; a series of e >= 0 that converges is 0, its tails too.
    ratios = [bounds_mod.term_ratio(w, phi, l) if depth is not None else 1.0
              for w, l, depth in ((2, l_add, depth_a), (8, l_cub, depth_c))]
    for x in points:
        series_a = bounds_mod.series_bound("additive", phi, x, l_add)
        series_c = bounds_mod.series_bound("cubic", phi, x, l_cub)
        series = bounds_mod.merge_series(series_a, series_c, 1.0 / 6.0)
        if series.status == bounds_mod.DIVERGED:
            raise DivergentControlError(
                "bound series diverges for the chosen directions "
                f"(additive l={l_add}, cubic l={l_cub})")
        orbit = OrbitTable(f, x, True, *reach)
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
            bound=series.upper,
            within_bound=error <= series.upper and not any(
                any(map(gt, trace.cauchy_gaps, accumulate(
                    repeat(rho), mul, initial=2.0 * part.upper)))
                for trace, part, rho in zip((trace_a, trace_c),
                                            (series_a, series_c), ratios)),
            additive_trace=trace_a,
            cubic_trace=trace_c,
        ))
    return report
