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

Both iterates and the residual of one point read f on the same dyadic
orbit x * 2^k.  :func:`recover` gives each point one :class:`OrbitTable`,
which makes one model call per argument y for f(y) and the odd part
(f(y) - f(-y)) / 2 (``models.evaluate(..., odd=True)``) and guards it
once.  With ``n_max = N`` and no early stop a point costs N + 2 model
calls when both directions agree and 2N + 2 when they differ; a callable
that is not a model is called twice per argument.  :func:`odd_part`,
:func:`h_transform` and :func:`g_transform` read the same table at x.

Exact mode runs in integers: x is u over one denominator L, the argument
x * 2^k is (u << k, L) or (u, L << -k), and each value is integer
numerators over one denominator, so a step w^(l n) * (hi - s * lo) is a
shift and at most one gcd.  The model is called through its integer
entry, norms divide int by int, which rounds as ``float(Fraction)`` does,
and a trace builds a step's ``Fraction`` point only when it is read.
Float mode reads the arguments x * 2^-(l n) and their doubles exactly as
computed, so results hold bit for bit even where x * 2^k is subnormal.

Iterations at distinct points are independent; every structure here is
either immutable or built single-threaded per point, so points may be
processed concurrently while report assembly preserves input order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

from . import bounds as bounds_mod
from .bounds import require_direction
from .models import (ControlFunction, FuncModel, Point, coords_norm, evaluate,
                     norm)
from .scalars import EXACT, add_ratios, format_number, integer_ratio

OVERFLOW_GUARD_BITS = 500  # abort when any evaluation norm exceeds 2^500

DEFAULT_N_MAX = 48
DEFAULT_TOL_ABS = 1e-12
DEFAULT_TOL_REL = 1e-10
CONSECUTIVE_GAPS = 3  # small gaps in a row required to call it converged
_HALF = Fraction(1, 2)


class OverflowGuardError(ArithmeticError):
    """Growing-argument iteration exceeded the magnitude guard."""


class DivergentControlError(ValueError):
    """The control function's bound series diverges for the chosen direction."""


class OrbitTable:
    """Memoized values of f along the dyadic orbit x * 2^k of one point.

    With ``odd`` a value is the odd part (f(y) - f(-y)) / 2, otherwise f(y);
    each is guarded once, when it is formed.  Exact entries are keyed by k
    and hold (numerators, denominator) vectors; float entries are keyed by
    the argument's coordinates and hold float tuples.  The methods work on
    those vectors, and :meth:`point` turns one into a point.
    """

    def __init__(self, func: Callable[[Point], Point], x: Point,
                 odd: bool = True):
        self.func, self.x, self.odd = func, x, odd
        self.exact = x.mode == EXACT
        if self.exact:
            u, self._den = integer_ratio(x.coords)
            self._u = tuple(u)
        self._entries: dict = {}

    def _entry(self, key) -> tuple:
        """(f(y), table value) at the argument y the key stands for."""
        entry = self._entries.get(key)
        if entry is None:
            coords, den = key, None
            if self.exact:  # y = x * 2^key
                coords, den = ((tuple(c << key for c in self._u), self._den)
                               if key >= 0 else (self._u, self._den << -key))
            try:
                raw = value = evaluate(self.func, coords, self.x.mode,
                                       self.x.norm_kind, den, self.odd)
                if self.odd:
                    raw, value = value
            except OverflowError as exc:
                raise OverflowGuardError(
                    f"evaluation overflowed float range: {exc}") from exc
            self.magnitude(value)
            entry = self._entries[key] = (raw, value)
        return entry

    def _combination(self, a, b, factor: int, e: int):
        """2^e * (a - factor * b)."""
        if self.exact:
            nums, den = add_ratios(a, b, -factor)
            if e == 0:
                return nums, den
            return ([n << e for n in nums], den) if e > 0 \
                else (nums, den << -e)
        scale, factor = 2.0 ** e, float(factor)
        return tuple(scale * (p - factor * q) for p, q in zip(a, b))

    def _norm(self, vector) -> float:
        if self.exact:
            nums, den = vector
            vector = [n / den for n in nums]  # rounds as float(Fraction) does
        return coords_norm(vector, self.x.norm_kind)

    def step(self, k: int, subtract: int, bits: int):
        """2^(-k bits) * (value(2a) - subtract * value(a)) at a = x * 2^k."""
        if self.exact:  # at x = 0 every k is the one argument 0
            hi, lo = (k + 1, k) if any(self._u) else (0, 0)
        else:
            lo = tuple(float(_HALF ** -k) * c for c in self.x.coords)
            hi = tuple(2.0 * c for c in lo)
        hi = self._entry(hi)[1]
        return self._combination(hi, self._entry(lo)[1], subtract, -k * bits)

    def magnitude(self, vector) -> float:
        """The vector's norm; the overflow guard."""
        try:
            magnitude = self._norm(vector)
        except OverflowError as exc:
            raise OverflowGuardError(
                "evaluation magnitude exceeds float range") from exc
        if not math.isfinite(magnitude) \
                or magnitude > 2.0 ** OVERFLOW_GUARD_BITS:
            raise OverflowGuardError(
                f"evaluation norm {magnitude!r} exceeds 2^{OVERFLOW_GUARD_BITS}")
        return magnitude

    def distance(self, a, b) -> float:
        return self._norm(self._combination(a, b, 1, 0))

    def point(self, vector) -> Point:
        if self.exact:
            nums, den = vector
            vector = [Fraction(n, den) for n in nums]
        return Point(tuple(vector), self.x.norm_kind)

    def at_x(self) -> tuple[Point, Point]:
        """f(x) and the table value at x, as points."""
        raw, value = self._entry(0 if self.exact else self.x.coords)
        return self.point(raw), self.point(value)


def odd_part(f) -> Callable[[Point], Point]:
    """x -> (f(x) - f(-x)) / 2, the odd value of x's orbit table."""
    return lambda x: OrbitTable(f, x).at_x()[1]


def _transform(f, subtract: int) -> Callable[[Point], Point]:
    """x -> f(2x) - subtract * f(x), the orbit table's step at k = 0."""
    def transform(x: Point) -> Point:
        table = OrbitTable(f, x, odd=False)
        return table.point(table.step(0, subtract, 0))
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


def _iterate(f, x: Point, l: int, weight: int, n_steps: int,
             tol_abs: float, tol_rel: float, stop_early: bool) -> IterationTrace:
    require_direction(l)
    if n_steps < 1:
        raise ValueError("iteration count must be at least 1")
    if not isinstance(f, OrbitTable):
        f = OrbitTable(f, x, odd=False)
    elif f.x != x:
        raise ValueError("orbit table belongs to another point")
    subtract = 8 if weight == 2 else 2
    bits = weight.bit_length() - 1
    trace = IterationTrace(direction=l, weight=weight, to_point=f.point)
    streak = 0
    for n in range(n_steps + 1):
        try:
            value = f.step(-l * n, subtract, bits)
        except OverflowError as exc:
            raise OverflowGuardError(
                f"iterate step {n} overflowed float range") from exc
        magnitude = f.magnitude(value)
        trace.steps.append(value)
        if n == 0:
            previous = value
            continue
        gap = f.distance(value, previous)
        previous = value
        trace.cauchy_gaps.append(gap)
        if gap <= max(tol_abs, tol_rel * magnitude):
            streak += 1
            if streak >= CONSECUTIVE_GAPS and not trace.converged:
                trace.converged = True
                trace.converged_at = n
                if stop_early:
                    break
        else:
            streak = 0
    return trace


def additive_iterate(f, x: Point, l: int, n_steps: int = DEFAULT_N_MAX,
                     tol_abs: float = DEFAULT_TOL_ABS,
                     tol_rel: float = DEFAULT_TOL_REL,
                     stop_early: bool = True) -> IterationTrace:
    """values[n] = 2^(ln) [f(x / 2^(l(n-l))) - 8 f(x / 2^(ln))].

    On exact solutions every value equals H(x).  Non-convergence within
    ``n_steps`` is reported via the flag, not an error; only the growth
    guard (direction -1 with fast-growing f) raises.

    Stopping at the gap criterion is the default: in float mode with l = -1
    the cubic content of f eventually dominates every evaluation and the
    additive signal drops below its ulp, so iterating past convergence only
    degrades the value.  Exact-mode points reproduce the infinite-precision
    sequence at any depth (use ``stop_early=False`` to force full depth).
    """
    return _iterate(f, x, l, 2, n_steps, tol_abs, tol_rel, stop_early)


def cubic_iterate(f, x: Point, l: int, n_steps: int = DEFAULT_N_MAX,
                  tol_abs: float = DEFAULT_TOL_ABS,
                  tol_rel: float = DEFAULT_TOL_REL,
                  stop_early: bool = True) -> IterationTrace:
    """values[n] = 8^(ln) [f(x / 2^(l(n-l))) - 2 f(x / 2^(ln))].

    Same stopping behavior as :func:`additive_iterate`.
    """
    return _iterate(f, x, l, 8, n_steps, tol_abs, tol_rel, stop_early)


_ITERATORS = {"additive": additive_iterate, "cubic": cubic_iterate}


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
    trace = _ITERATORS[component](f, x, l, n_steps=max(n1, n2),
                                  stop_early=False)
    gap = norm(trace.values[n1] - trace.values[n2])
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
                 phi: ControlFunction, mode: str, norm_kind: str, n_max: int,
                 tol_abs: float, tol_rel: float):
        self.direction_additive = direction_additive
        self.direction_cubic = direction_cubic
        self.phi, self.mode, self.norm_kind = phi, mode, norm_kind
        self.n_max, self.tol_abs, self.tol_rel = n_max, tol_abs, tol_rel
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
            "tolerances": {"abs": self.tol_abs, "rel": self.tol_rel},
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


def recover(f: FuncModel, points: Sequence[Point],
            phi: ControlFunction | None = None,
            l_additive="auto", l_cubic="auto",
            n_max: int = DEFAULT_N_MAX,
            tol_abs: float = DEFAULT_TOL_ABS,
            tol_rel: float = DEFAULT_TOL_REL,
            series_tol: float = 1e-12,
            stop_early: bool = True) -> RecoveryReport:
    """Recover the additive and cubic parts of f at the given points.

    f is odd-symmetrized first, through one :class:`OrbitTable` per point
    that both iterates and the residuals read; the perturbation envelope
    phi is either supplied or certified from the model's noise atoms.  Per
    point, the report carries A(x), C(x), the odd-part and raw errors, the
    certified combined bound, and both iteration traces.  A control function
    whose series diverges for the chosen direction raises
    :class:`DivergentControlError`.
    """
    if phi is None:
        phi = bounds_mod.certify_phi(f)
    l_add, l_cub = resolve_directions(phi, l_additive, l_cubic)

    sixth = Fraction(1, 6)
    mode = points[0].mode if points else EXACT
    norm_kind = points[0].norm_kind if points else "euclidean"
    report = RecoveryReport(direction_additive=l_add, direction_cubic=l_cub,
                            phi=phi, mode=mode, norm_kind=norm_kind,
                            n_max=n_max, tol_abs=tol_abs, tol_rel=tol_rel)
    for x in points:
        series = bounds_mod.series_bound("combined", phi, x, (l_add, l_cub),
                                         tol=series_tol)
        if series.status == bounds_mod.DIVERGED:
            raise DivergentControlError(
                "bound series diverges for the chosen directions "
                f"(additive l={l_add}, cubic l={l_cub})")
        bound_value = series.upper
        orbit = OrbitTable(f, x)
        trace_a = additive_iterate(orbit, x, l_add, n_max, tol_abs, tol_rel,
                                   stop_early=stop_early)
        trace_c = cubic_iterate(orbit, x, l_cub, n_max, tol_abs, tol_rel,
                                stop_early=stop_early)
        additive_value = trace_a.final.scale(-sixth)
        cubic_value = trace_c.final.scale(sixth)
        raw, odd = orbit.at_x()
        residual = odd - additive_value - cubic_value
        raw_residual = raw - additive_value - cubic_value
        error = norm(residual)
        report.points.append(PointRecovery(
            x=x,
            additive=additive_value,
            cubic=cubic_value,
            error=error,
            raw_error=norm(raw_residual),
            bound=bound_value,
            within_bound=error <= bound_value,
            additive_trace=trace_a,
            cubic_trace=trace_c,
        ))
    return report
