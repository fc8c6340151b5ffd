import gc
import itertools
import random
import re
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from addcubic import (BoundedNoise, Constant, CubicHomogeneous,
                      DivergentControlError, Even, FuncModel, Linear,
                      OverflowGuardError, PowerNoise, SumOfPowers,
                      additive_iterate, additive_residual, certify_phi,
                      cubic_1d, cubic_iterate, cubic_residual, even_1d,
                      linear_1d, model_1d, norm, point, random_cubic,
                      random_linear, random_point, random_rational, recover,
                      solution_1d)
from addcubic import direct_method, noise
from addcubic.models import Point
from addcubic.residuals import (ADDITIVE_RULE, CUBIC_RULE, MIXED_RULE,
                                TermTables)

EPS = Fraction(1, 1000)


def noisy_solution(seed=7, eps=EPS):
    return model_1d(linear_1d(2), cubic_1d(1), BoundedNoise(seed, eps))


def odd(f):
    """x -> (f(x) - f(-x)) / 2, in Point arithmetic."""
    return lambda x: (f(x) - f(-x)).scale(Fraction(1, 2))


def H(f, x):
    """H(x) = f(2x) - 8 f(x), step 0 of the additive iterate."""
    return additive_iterate(f, x, 1, 1).values[0]


def G(f, x):
    """G(x) = f(2x) - 2 f(x), step 0 of the cubic iterate."""
    return cubic_iterate(f, x, 1, 1).values[0]


class _Counted:
    """A model wrapper recording every argument it is evaluated at."""

    def __init__(self, model):
        self.model = model
        self.calls = []

    def __call__(self, p):
        self.calls.append(p.coords)
        return self.model(p)


# ---------------------------------------------------------------------------
# H and G, the iterates' first steps
# ---------------------------------------------------------------------------

def test_h_transform_examples():
    f = solution_1d(2, 1)
    for v in (1, -2, Fraction(1, 2), 5, Fraction(-7, 3), 4, Fraction(9, 8),
              3, -1, Fraction(2, 5)):
        assert H(f, point([v])).coords == (Fraction(-12) * v,)
    assert H(model_1d(cubic_1d(1)), point([3])).is_zero
    assert H(model_1d(linear_1d(1)), point([1])).coords == (Fraction(-6),)


def test_g_transform_examples():
    f = solution_1d(2, 1)
    for v in (1, 2, Fraction(-3, 2)):
        assert G(f, point([v])).coords == (Fraction(6) * v ** 3,)
    assert G(model_1d(linear_1d(1)), point([4])).is_zero


def test_transform_difference_identity():
    # G(x) - H(x) = 6 f(x) for every f, exactly in exact mode
    rng = random.Random(12)
    for _ in range(50):
        f = model_1d(random_linear(rng, 1, 1), random_cubic(rng, 1, 1),
                     even_1d(rng.randint(-5, 5)),
                     BoundedNoise(rng.randint(0, 999), Fraction(1, 50)))
        x = random_point(rng, 1)
        assert (G(f, x) - H(f, x)).coords == f(x).scale(6).coords


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sets(st.sampled_from(("linear", "cubic", "even",
                                           "bounded_noise", "power_noise")),
                          min_size=1),
       st.sampled_from(("exact", "float")))
def test_table_maps_match_point_arithmetic(data, kinds, mode):
    # The odd value of x's orbit table and the first iterate steps, H and
    # G, read the table; the references are their formulas in exact Point
    # arithmetic at the value x holds, read in either mode.
    d = data.draw(st.integers(1, 3), label="dim")
    rng = random.Random(data.draw(st.integers(0, 10_000), label="seed"))
    f = FuncModel(d, d, tuple(_atom(kind, rng, d) for kind in sorted(kinds)))
    values = st.fractions(min_value=-20, max_value=20, max_denominator=16)
    x = point(data.draw(st.lists(values, min_size=d, max_size=d), label="x"),
              mode, data.draw(st.sampled_from(("euclidean", "max")),
                              label="norm"))
    table = direct_method.OrbitTable(f, x)
    assert table.point(table.entry()[1]) == odd(f)(x)
    for transform, subtract in ((H, 8), (G, 2)):
        assert transform(f, x) == f(x.scale(2)) - f(x).scale(subtract)


# ---------------------------------------------------------------------------
# Iterations
# ---------------------------------------------------------------------------

def test_additive_iterate_constant_on_exact_solutions():
    f = solution_1d(2, 1)
    x = point([1])
    trace = additive_iterate(f, x, 1, 8)
    assert all(v.coords == (Fraction(-12),) for v in trace.values)
    assert not trace.converged  # no phi, no tail, no claim
    assert trace.final.coords == (Fraction(-12),)
    assert all(g == 0.0 for g in trace.cauchy_gaps)
    # p = 4 gives additive depth ceil(21 / 3) = 7.
    assert additive_iterate(f, x, 1, 8, SumOfPowers(EPS, 4)).converged_at == 7


def test_cubic_iterate_constant_on_exact_solutions():
    f = solution_1d(2, 1)
    trace = cubic_iterate(f, point([1]), 1, 8)
    assert all(v.coords == (Fraction(6),) for v in trace.values)


def test_iterate_fixed_point_matches_transforms():
    rng = random.Random(3)
    for _ in range(10):
        f = model_1d(random_linear(rng, 1, 1), random_cubic(rng, 1, 1))
        x = random_point(rng, 1)
        trace_a = additive_iterate(f, x, -1, 6)
        trace_c = cubic_iterate(f, x, -1, 6)
        assert all(v.coords == H(f, x).coords for v in trace_a.values)
        assert all(v.coords == G(f, x).coords for v in trace_c.values)


def test_iterate_zero_function():
    f = FuncModel(1, 1, ())
    trace = additive_iterate(f, point([1]), 1, 8, SumOfPowers(EPS, 4))
    assert all(v.is_zero for v in trace.values)
    assert trace.converged


def test_zero_atom_model_through_integer_entry():
    f = FuncModel(2, 3, ())
    assert f.evaluate_coords((3, -4), den=7) == ([0, 0, 0], 7)
    x, y = point(["3/4", "-1/2"]), point(["5", "1/3"])
    tables = TermTables((MIXED_RULE, ADDITIVE_RULE, CUBIC_RULE))
    assert all(v.is_zero and v.value.dim == 3
               for v in tables.residuals(f, x, y))
    item = recover(f, [x], SumOfPowers(EPS, 2), 1, -1).points[0]
    assert item.additive.is_zero and item.cubic.is_zero
    assert item.additive.dim == item.cubic.dim == 3
    assert item.error == item.raw_error == 0.0
    assert item.additive_trace.converged and item.cubic_trace.converged


def test_iterate_direction_consistency_float():
    f = solution_1d(2, 1)
    for v in (1.0, -0.5, 3.0):
        x = point([v], mode="float")
        up = additive_iterate(f, x, 1).final.coords[0]
        down = additive_iterate(f, x, -1).final.coords[0]
        assert abs(up - down) <= 1e-9 * max(1.0, abs(up))


def test_iterate_noisy_limits_within_stability_bound():
    # exact mode, full depth: the limit sits within the bound of the exact part
    fo = odd(noisy_solution())
    x = point([1])
    trace = additive_iterate(fo, x, -1, 40)
    assert abs(float(trace.final.coords[0]) + 12) <= 76 * float(EPS)
    trace_c = cubic_iterate(fo, x, -1, 40)
    assert abs(float(trace_c.final.coords[0]) - 6) <= 76 * float(EPS) / 7


def test_iterate_gap_envelopes_constant_noise():
    # gaps fall like 76 eps 2^-n (additive) and 8 * 76 eps 8^-n (cubic)
    fo = odd(noisy_solution())
    for x in (point([1]), point([Fraction(5, 2)])):
        trace = additive_iterate(fo, x, -1, 24)
        for n, gap in enumerate(trace.cauchy_gaps):
            assert gap <= 76 * float(EPS) * 2.0 ** -n
        trace_c = cubic_iterate(fo, x, -1, 24)
        for n, gap in enumerate(trace_c.cauchy_gaps):
            assert gap <= 8 * 76 * float(EPS) * 8.0 ** -n


def test_iterate_input_validation():
    f = solution_1d(2, 1)
    with pytest.raises(ValueError):
        additive_iterate(f, point([1]), 0, 5)
    with pytest.raises(ValueError):
        additive_iterate(f, point([1]), 1, 0)


def test_overflow_guard_trips_on_growing_direction():
    spike = model_1d(PowerNoise(3, Fraction(10) ** 60, Fraction(8)))
    with pytest.raises(OverflowGuardError, match=re.escape(
            "evaluation norm 2.560499765358062e+151 exceeds 2^500")):
        additive_iterate(spike, point([8], mode="float"), -1, 48)
    # p = 1/2 runs the additive iterate 42 steps deep, past k = 35.
    for mode in ("float", "exact"):
        with pytest.raises(OverflowGuardError, match=re.escape(
                "evaluation norm 1.9517528119657766e+151 exceeds 2^500")):
            recover(spike, [point([8], mode=mode)],
                    SumOfPowers(1, Fraction(1, 2)), -1, -1)


def _first_trip(run):
    # The first n_max at which run(n_max) trips the overflow guard, with
    # the guard's message.
    for n in range(1, 49):
        try:
            run(n)
        except OverflowGuardError as exc:
            return n, str(exc)
    return None


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("atoms", [
    # 2^398 (1 +- 2^-40) x^3 at x = 2^k: the cubic part dominates, and at
    # k = 34 its norm is just above 2^500, or just below it.
    (linear_1d(5), cubic_1d(Fraction(2 ** 398) * (1 + Fraction(1, 2 ** 40)))),
    (linear_1d(5), cubic_1d(Fraction(2 ** 398) * (1 - Fraction(1, 2 ** 40)))),
    # 2^350 |x|^5 noise with l = -1 dominates the linear part.
    (linear_1d(5), PowerNoise(5, 2 ** 350, 5))])
def test_guard_trips_at_the_same_step_for_model_and_callable(mode, atoms):
    # The guard raises where the whole value (polynomial part plus noise)
    # first exceeds 2^500, by bit-length bounds on the parts a model reads
    # apart; a plain callable is read whole.  Both trip at the same step,
    # with the same norm, and neither one step shallower.
    f, x = model_1d(*atoms), point([1], mode)
    phi = SumOfPowers(1, Fraction(1, 2))  # additive depth 42 for l = -1
    for run in (lambda g: lambda n: additive_iterate(g, x, -1, n),
                lambda g: lambda n: recover(g, [x], phi, -1, -1, n_max=n)):
        trip = _first_trip(run(f))
        assert trip is not None and trip[0] > 1
        assert _first_trip(run(lambda p: f(p))) == trip
        run(f)(trip[0] - 1)
        run(lambda p: f(p))(trip[0] - 1)


def test_a_batch_that_raises_reads_each_argument_at_most_twice():
    # A callable that raises beyond |x| = 2^10 ends the l = -1 orbit of
    # x = 3 at k = 9 (3 * 2^9 = 1536), inside the batch read.  Each k is
    # then read alone once, and that read is kept for both iterate orders
    # and the held window: every argument is called by the batch and by
    # its own read at most, and the error is the same at the same step.
    model = noisy_solution()
    calls = []

    def f(p):
        calls.append(p.coords)
        if max(abs(c) for c in p.coords) > 2 ** 10:
            raise ValueError(f"argument {p.coords[0]} beyond 2^10")
        return model(p)

    x, message = point([3]), re.escape("argument 1536 beyond 2^10")
    with pytest.raises(ValueError, match=message):
        recover(f, [x], DIRECTION_PHI[(-1, -1)], -1, -1, n_max=12)
    assert len(set(calls)) == 19 and max(Counter(calls).values()) <= 2
    for iterate in (additive_iterate, cubic_iterate):
        assert iterate(f, x, -1, 7).values == iterate(model, x, -1, 7).values
        calls.clear()
        with pytest.raises(ValueError, match=message):
            iterate(f, x, -1, 8)
        assert max(Counter(calls).values()) <= 2
    # The held window, read k by k, serves the other direction whole.
    calls.clear()
    table = direct_method.OrbitTable(f, x, True, -6, 13)
    assert cubic_iterate(table, x, 1, 6).values \
        == cubic_iterate(odd(model), x, 1, 6).values
    assert table.entry() == direct_method.OrbitTable(model, x).entry()
    assert max(Counter(calls).values()) <= 2


def test_norm_guard_before_the_power_width_check_wins():
    # Power noise of exponent 512 at x = 5 * 2^4066: _scale's power-width
    # check (MAX_POWER_BITS) refuses every x * 2^k from k = 28 on, which
    # an l = -1 run of 48 steps reads (up to k = 49).  The tiny amplitude
    # keeps the noise below 2^500 up to k = 6; the norm guard trips at
    # k = 7, step 6, and that first error is the one raised.
    p, b = 512, 5 << 4066
    amplitude = Fraction(1, 1 << (p * 4075 - 700))
    f, x = model_1d(PowerNoise(3, amplitude, p)), point([b])
    width = re.escape("evaluation overflowed float range: noise scale "
                      f"overflow: exponent {p} would form a power of more "
                      f"than {noise.MAX_POWER_BITS} bits")
    rest = 1, amplitude.as_integer_ratio(), (p, 1)
    noise._scale((b << 27,), *rest)
    with pytest.raises(OverflowError):
        noise._scale((b << 28,), *rest)
    with pytest.raises(OverflowGuardError, match=width):
        additive_iterate(f, point([b << 28]), -1, 1)
    message = "evaluation norm 4.043239354927012e+258 exceeds 2^500"
    for iterate in (additive_iterate, cubic_iterate):
        assert _first_trip(lambda n: iterate(f, x, -1, n)) == (6, message)
        with pytest.raises(OverflowGuardError, match=re.escape(message)):
            iterate(f, x, -1, 48)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_guard_trips_on_a_step_whose_reads_stay_below_it(mode):
    # Noise bounded by 2^420 keeps every read below 2^500, but the l = +1
    # cubic step 8^n (f(2a) - 2 f(a)) passes it: only the step guard,
    # which bounds a step by the bits of its reads, can trip.
    f, x = model_1d(BoundedNoise(5, 2 ** 420)), point([1], mode)
    trip = _first_trip(lambda n: cubic_iterate(f, x, 1, n))
    assert trip is not None and 20 < trip[0] < 48
    assert _first_trip(lambda n: cubic_iterate(lambda p: f(p), x, 1, n)) \
        == trip
    cubic_iterate(f, x, 1, trip[0] - 1)


@pytest.mark.parametrize("l", [-1, 1])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_plain_iterate_with_even_atom_matches_oracle(l, mode):
    # Without the odd part the even part stays in every step, as
    # (4 - s) 2^(l n (w - 2)) Q(x): the iterate is checked against f read
    # whole at each argument, in Fractions.
    rng = random.Random(5)
    f = FuncModel(2, 2, (random_linear(rng, 2, 2), random_cubic(rng, 2, 2),
                         _atom("even", rng, 2), BoundedNoise(3, EPS)))
    x = point(["5/4", "-1/3"], mode)
    for iterate, weight, subtract in ((additive_iterate, 2, 8),
                                      (cubic_iterate, 8, 2)):
        trace = iterate(f, x, l, 12)
        values, gaps = oracles.plain_iterate(
            lambda c: tuple(f.evaluate_coords(c)),
            x.coords, x.norm_kind, l, weight, subtract, 12)
        assert [v.coords for v in trace.values] == values
        assert _bits(trace.cauchy_gaps) == _bits(gaps)


def test_early_stop_truncates_trace():
    # Given phi an iterate stops at its certified depth, 21 additive and 7
    # cubic steps for a constant phi, as a prefix of the uncapped run; a
    # cap below that depth runs to the cap and claims nothing.
    fo = odd(noisy_solution())
    x = point([1], mode="float")
    phi = Constant(76 * EPS)
    for iterate, depth in ((additive_iterate, 21), (cubic_iterate, 7)):
        full = iterate(fo, x, -1, 48)
        short = iterate(fo, x, -1, 48, phi)
        assert not full.converged and full.n_steps == 48
        assert short.converged and short.converged_at == short.n_steps == depth
        assert _rationals(short.steps) == _rationals(full.steps[:depth + 1])
        capped = iterate(fo, x, -1, depth - 1, phi)
        assert (capped.converged, capped.converged_at, capped.n_steps) \
            == (False, None, depth - 1)


def _rationals(steps):
    # Steps as values: each trace puts its steps over its own denominator.
    return [[Fraction(n, den) for n in nums] for nums, den in steps]


def test_trace_structure_invariants():
    fo = odd(noisy_solution())
    x = point([1], mode="float")
    phi = Constant(76 * EPS)  # depth 21 for l = -1, none for l = +1
    for (l, n), final_first in itertools.product(((-1, 30), (1, 12)),
                                                 (True, False)):
        trace = additive_iterate(fo, x, l, n, phi)
        # Points are built when read, each once; final is the last value
        # whichever is read first.
        built = []
        to_point = trace.to_point
        trace.to_point = lambda v: built.append(v) or to_point(v)
        first = trace.final if final_first else trace.values[-1]
        assert len(built) == (1 if final_first else len(trace.steps))
        assert trace.final is trace.values[-1] is first
        assert len(built) == len(trace.steps) == trace.n_steps + 1
        assert len(trace.values) == trace.n_steps + 1
        assert len(trace.cauchy_gaps) == trace.n_steps
        assert trace.n_steps == (trace.converged_at or n)
        assert trace.converged == (l == -1)


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------

def test_recover_keeps_no_orbit_table_alive(monkeypatch):
    # Each trace once kept its table's bound method ``point``, so every
    # table and all its entries lived as long as the report.
    rng = random.Random(7)
    points = [random_point(rng, 1, mode="float", max_denominator=7)
              for _ in range(40)]
    expected = recover(noisy_solution(), points, l_additive=-1,
                       l_cubic=-1).to_json_dict()
    tables = []

    class Recorded(direct_method.OrbitTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tables.append(weakref.ref(self))

    monkeypatch.setattr(direct_method, "OrbitTable", Recorded)
    report = recover(noisy_solution(), points, l_additive=-1, l_cubic=-1)
    gc.collect()
    assert len(tables) == 40
    assert [ref() for ref in tables] == [None] * 40
    # The traces still build their points on read.
    assert report.to_json_dict() == expected
    trace = report.points[0].additive_trace
    assert trace.values[-1] is trace.final
    assert len(trace.values) == trace.n_steps + 1


@pytest.mark.parametrize("count", [0, 1, 5])
def test_recover_computes_each_certified_depth_once(monkeypatch, count):
    # phi and the directions are fixed per call, so each component's depth
    # is computed once per recover, whatever the point count, uncached.
    calls = []
    depth = direct_method.bounds_mod.certified_depth
    monkeypatch.setattr(direct_method.bounds_mod, "certified_depth",
                        lambda *args: calls.append(args) or depth(*args))
    phi = SumOfPowers(EPS, 2)
    points = [point([Fraction(n, 7)]) for n in range(1, count + 1)]
    report = recover(noisy_solution(), points, phi, 1, -1)
    assert calls == [("additive", phi, 1), ("cubic", phi, -1)]
    assert [(p.additive_trace.converged_at, p.cubic_trace.converged_at)
            for p in report.points] == [(21, 21)] * count
    assert not hasattr(depth, "cache_info")


def test_recover_exact_solution():
    f = solution_1d(2, 1)
    xs = [point([v], mode="float") for v in (1, -1, 0.5, -0.5, 3)]
    report = recover(f, xs)
    for item, v in zip(report.points, (1, -1, 0.5, -0.5, 3)):
        assert item.additive.coords[0] == pytest.approx(2 * v, abs=1e-12)
        assert item.cubic.coords[0] == pytest.approx(v ** 3, abs=1e-12)
        assert item.error <= 1e-12
        assert item.within_bound
    assert report.ok and report.all_converged


def test_recover_even_function_is_all_zero():
    f = model_1d(even_1d(1))
    report = recover(f, [point([v], mode="float") for v in (1, 2, -3)],
                     phi=Constant(0))
    for item in report.points:
        assert item.additive.is_zero
        assert item.cubic.is_zero
        assert item.error == 0.0
        # the raw function is nowhere near A + C = 0
        assert item.raw_error > 0


def test_recover_direction_agreement_on_exact_solution():
    f = solution_1d(2, 1)
    xs = [point([v], mode="float") for v in (1, -1, 0.5, -0.5, 3)]
    down = recover(f, xs, phi=Constant(0), l_additive=-1, l_cubic=-1)
    up = recover(f, xs, phi=Constant(0), l_additive=1, l_cubic=1)
    for a, b in zip(down.points, up.points):
        assert abs(a.additive.coords[0] - b.additive.coords[0]) <= 1e-9
        assert abs(a.cubic.coords[0] - b.cubic.coords[0]) <= 1e-9


def test_recover_bounded_noise_within_bound():
    f = noisy_solution()
    rng = random.Random(42)
    xs = [random_point(rng, 1) for _ in range(40)]
    report = recover(f, xs)
    expected_bound = 152 * float(EPS) / 21
    assert report.direction_additive == -1 and report.direction_cubic == -1
    for item in report.points:
        assert item.bound == pytest.approx(expected_bound, rel=1e-9)
    assert report.max_error <= expected_bound
    assert report.ok


def test_recover_flags_point_over_bound():
    # lie about the envelope: a tiny phi makes real errors exceed the bound
    f = noisy_solution()
    rng = random.Random(1)
    xs = [random_point(rng, 1) for _ in range(10)]
    report = recover(f, xs, phi=Constant(Fraction(1, 10 ** 9)))
    assert not report.ok
    assert any(not item.within_bound for item in report.points)


def test_recover_divergent_control_raises():
    f = model_1d(linear_1d(2), cubic_1d(1), PowerNoise(3, EPS, Fraction(1)))
    xs = [point([1])]
    with pytest.raises(DivergentControlError):
        recover(f, xs)


# Gajda's counterexample: f meets the hypothesis with phi = 24 (|x| + |y|)
# at the excluded exponent p = 1, and no additive map is within K |x|.

def _gajda(p):
    return point([oracles.gajda(p.coords[0])])


def test_gajda_has_no_linear_bound_near_zero():
    for k in (4, 16, 64, 256):
        x = Fraction(1, 2 ** k)
        assert abs(oracles.gajda(x)) / x == k + 2
        assert oracles.gajda(-x) == -oracles.gajda(x)
    assert oracles.gajda(1) == oracles.gajda(Fraction(7, 2)) == 2


def test_recover_refuses_gajda_at_the_excluded_exponent():
    phi = SumOfPowers(24, 1)
    xs = [point([Fraction(1, 3)]), point([Fraction(1, 2 ** 64)])]
    for directions in (("auto", "auto"), (1, 1), (1, -1), (-1, 1), (-1, -1)):
        with pytest.raises(DivergentControlError):
            recover(_gajda, xs, phi, *directions)


def test_gajda_additive_trace_never_converges():
    # Every l = +1 gap is 6 |x|, about 3.3e-19 at x = 2^-64; three gaps
    # below a fixed 1e-12 once passed for convergence at n = 3.
    x = point([Fraction(1, 2 ** 64)])
    for phi in (None, SumOfPowers(24, 1)):
        trace = additive_iterate(_gajda, x, 1, phi=phi)
        assert (trace.converged, trace.converged_at, trace.n_steps) \
            == (False, None, 48)
        assert set(trace.cauchy_gaps) == {6 * 2.0 ** -64}


def test_gajda_cubic_has_no_cubic_bound_near_zero():
    for k in (4, 16, 64):
        x = Fraction(1, 2 ** k)
        assert abs(oracles.gajda_cubic(x)) / x ** 3 == k + Fraction(8, 7)
        assert oracles.gajda_cubic(-x) == -oracles.gajda_cubic(x)
    assert oracles.gajda_cubic(1) == oracles.gajda_cubic(3) == Fraction(8, 7)


def test_recover_refuses_gajda_cubic_at_the_excluded_exponent():
    def f(p):
        return point([oracles.gajda_cubic(p.coords[0])])

    phi = SumOfPowers(85, 3)
    xs = [point([Fraction(1, 3)]), point([Fraction(1, 2 ** 64)])]
    for directions in (("auto", "auto"), (1, 1), (1, -1), (-1, 1), (-1, -1)):
        with pytest.raises(DivergentControlError):
            recover(f, xs, phi, *directions)


def test_recover_auto_directions_follow_phi():
    f = model_1d(linear_1d(2), cubic_1d(1), PowerNoise(3, EPS, Fraction(2)))
    report = recover(f, [point([1])])
    assert report.direction_additive == 1
    assert report.direction_cubic == -1
    assert report.ok


def test_recovered_components_satisfy_their_rules():
    # A from the iteration behaves additively, C cubically, within 10x bound
    f = noisy_solution()
    fo = odd(f)
    phi = certify_phi(f)

    def recovered_additive(z):
        return additive_iterate(fo, z, -1, 48).final.scale(Fraction(-1, 6))

    def recovered_cubic(z):
        return cubic_iterate(fo, z, -1, 48).final.scale(Fraction(1, 6))

    rng = random.Random(5)
    for _ in range(5):
        x = random_point(rng, 1)
        y = random_point(rng, 1)
        bound = recover(f, [x], phi).points[0].bound
        assert additive_residual(recovered_additive, x, y).magnitude \
            <= 10 * bound
        assert cubic_residual(recovered_cubic, x, y).magnitude <= 10 * bound


def test_recover_empty_points():
    report = recover(solution_1d(1, 1), [])
    assert report.ok
    assert report.max_error == 0.0


def test_recover_multidimensional_solution():
    rng = random.Random(21)
    lin = random_linear(rng, 2, 2)
    cub = random_cubic(rng, 2, 2)
    f = FuncModel(2, 2, (lin, cub))
    xs = [random_point(rng, 2, mode="float") for _ in range(5)]
    report = recover(f, xs, phi=Constant(0))
    lin_only = FuncModel(2, 2, (lin,))
    cub_only = FuncModel(2, 2, (cub,))
    for item, x in zip(report.points, xs):
        assert item.error == 0.0
        assert item.additive == lin_only(x)
        assert item.cubic == cub_only(x)


def test_recover_with_max_norm_points():
    f = model_1d(linear_1d(2), cubic_1d(1), BoundedNoise(7, EPS))
    rng = random.Random(13)
    xs = [random_point(rng, 1, "float", norm_kind="max") for _ in range(20)]
    report = recover(f, xs)
    assert report.norm_kind == "max"
    assert report.ok


# Doubles up to 1e30 in size: non-dyadic ones, subnormals (multiples of
# 2^-1074) and both signed zeros.
_FLOAT_X = st.one_of(
    st.floats(min_value=-1e30, max_value=1e30),
    st.fractions(min_value=-50, max_value=50, max_denominator=97).map(float),
    st.integers(-2 ** 52, 2 ** 52).map(lambda n: n * 5e-324),
    st.sampled_from([0.0, -0.0]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_float_recover_is_exact_recover_rounded_once(data):
    # The stability theorem holds for L + C + bounded noise at every point,
    # so a float recovery stays within the bound; it is the exact recovery
    # at the double x holds, and its report prints each value rounded
    # once, so no trace converges on a rounding artefact.
    d = data.draw(st.integers(1, 2), label="dim")
    rng = random.Random(data.draw(st.integers(0, 10_000), label="seed"))
    f = FuncModel(d, d, (random_linear(rng, d, d), random_cubic(rng, d, d),
                         BoundedNoise(rng.randint(0, 99), EPS)))
    doubles = data.draw(st.lists(_FLOAT_X, min_size=d, max_size=d), label="x")
    norm_kind = data.draw(st.sampled_from(("euclidean", "max")), label="norm")
    exact_x = Point(tuple(map(Fraction, doubles)), norm_kind)
    x = point(doubles, "float", norm_kind)
    assert x == exact_x
    report = recover(f, [x])
    got, want = report.points[0], recover(f, [exact_x]).points[0]
    assert got.within_bound
    for trace, exact in ((got.additive_trace, want.additive_trace),
                         (got.cubic_trace, want.cubic_trace)):
        assert trace.values == exact.values
        assert _bits(trace.cauchy_gaps) == _bits(exact.cauchy_gaps)
        assert (trace.converged, trace.converged_at) \
            == (exact.converged, exact.converged_at)
    doc = report.to_json_dict("float")["points"][0]
    assert doc["x"] == [repr(v + 0.0) for v in doubles]
    assert doc["additive"] == [repr(float(c)) for c in want.additive.coords]
    assert doc["cubic"] == [repr(float(c)) for c in want.cubic.coords]
    assert _bits([doc["error"], doc["raw_error"]]) \
        == _bits([want.error, want.raw_error])


# ---------------------------------------------------------------------------
# Uniqueness probe: two truncation depths of one run
# ---------------------------------------------------------------------------

def _probe(trace, n1, n2):
    """The gap between the values at depths n1 and n2 of one run."""
    return norm(trace.values[n1] - trace.values[n2])


def test_probe_zero_for_exact_solution():
    trace = additive_iterate(solution_1d(2, 1), point([1]), 1, 9)
    assert _probe(trace, 5, 9) == 0.0


def test_probe_zero_function():
    trace = cubic_iterate(FuncModel(1, 1, ()), point([1]), -1, 6)
    assert _probe(trace, 3, 6) == 0.0


def test_probe_bounded_noise_within_tail():
    # Depths 20 and 40 differ by at most the series' tail from depth 20,
    # sum_{i>=21} w^-i c: c 2^-20 (additive) and c 8^-20 / 7 (cubic).
    fo = odd(noisy_solution())
    c, x = 76 * EPS, point([1])
    for iterate, weight, tail in (
            (additive_iterate, 2, c / 2 ** 20),
            (cubic_iterate, 8, c / 7 / 8 ** 20)):
        assert oracles.series_closed_form(weight, ("constant", c), [1],
                                          "euclidean", -1, 1, 20) == tail
        assert _probe(iterate(fo, x, -1, 40), 20, 40) <= tail


def test_probe_matches_two_runs_with_fewer_evaluations():
    # One run to max(n1, n2) holds the final of the shallower run as a
    # value, from max(n1, n2) + 2 reads against n1 + n2 + 4 for two runs.
    counted = _Counted(noisy_solution())
    calls = counted.calls
    x = point([Fraction(5, 2)])
    for iterate in (additive_iterate, cubic_iterate):
        for l, n1, n2 in ((-1, 20, 40), (1, 9, 4)):
            calls.clear()
            first = iterate(counted, x, l, n_steps=n1)
            second = iterate(counted, x, l, n_steps=n2)
            two_runs = len(calls)
            calls.clear()
            trace = iterate(counted, x, l, n_steps=max(n1, n2))
            assert _probe(trace, n1, n2) == norm(first.final - second.final)
            assert len(calls) == max(n1, n2) + 2 < two_runs == n1 + n2 + 4


# ---------------------------------------------------------------------------
# Dyadic orbit table
# ---------------------------------------------------------------------------

def _bits(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


def _spec(atom):
    """An atom as the (kind, data) pair of ``oracles.atom_sum``."""
    if isinstance(atom, Linear):
        return "linear", atom.matrix
    if isinstance(atom, CubicHomogeneous):
        return "cubic", atom.terms
    if isinstance(atom, Even):
        return "even", atom.matrices
    return "noise", (atom.seed, atom.amplitude, atom.exponent)


def _assert_recover_matches_oracle(f, x, l_additive, l_cubic, phi, n_max,
                                   callable_too=False):
    # The oracle runs exactly at the value x holds, on the model summed
    # term by term (oracles.atom_sum), and a recovery equals it in either
    # mode.  With ``callable_too`` the model is also recovered as a plain
    # callable, which has no polynomial part and is read whole at every
    # argument, and must agree bit for bit.
    specs = [_spec(atom) for atom in f.atoms]
    expected = oracles.dyadic_recovery(
        lambda c: tuple(oracles.atom_sum(specs, c, f.dim_out)),
        x.coords, x.norm_kind, l_additive, l_cubic, n_max, phi.degree)
    for g in (f, lambda p: f(p)) if callable_too else (f,):
        item = recover(g, [x], phi, l_additive, l_cubic,
                       n_max=n_max).points[0]
        for trace, want in ((item.additive_trace, expected["additive_trace"]),
                            (item.cubic_trace, expected["cubic_trace"])):
            assert [list(v.coords) for v in trace.values] \
                == [list(v) for v in want["values"]]
            assert _bits(trace.cauchy_gaps) == _bits(want["gaps"])
            assert trace.converged == want["converged"]
            assert trace.converged_at == want["converged_at"]
        assert list(item.additive.coords) == list(expected["additive"])
        assert list(item.cubic.coords) == list(expected["cubic"])
        assert _bits([item.error, item.raw_error]) \
            == _bits([expected["error"], expected["raw_error"]])


# Control functions whose combined series converges for each direction pair.
DIRECTION_PHI = {(-1, -1): SumOfPowers(EPS, Fraction(1, 2)),
                 (1, -1): SumOfPowers(EPS, 2),
                 (1, 1): SumOfPowers(EPS, 4)}


def _atom(kind, rng, d, m=None):
    m = d if m is None else m
    if kind == "linear":
        return random_linear(rng, d, m)
    if kind == "cubic":
        return random_cubic(rng, d, m)
    if kind == "even":
        return Even(tuple(tuple(tuple(random_rational(rng, 9)
                                      for _ in range(d)) for _ in range(d))
                          for _ in range(m)))
    if kind == "bounded_noise":
        return BoundedNoise(rng.randint(0, 99), EPS)
    return PowerNoise(rng.randint(0, 99), EPS,
                      Fraction(rng.choice((1, 2, 5)), rng.choice((1, 2))))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sets(st.sampled_from(("linear", "cubic", "even",
                                           "bounded_noise", "power_noise")),
                          min_size=1))
def test_recover_matches_uncached_oracle(data, kinds):
    # Inputs and outputs of one or two dimensions, so each output is its
    # own column; a second power noise of another exponent gives a model
    # two noise atoms, each on the orbit denominator by its own cofactor.
    d, m = data.draw(st.sampled_from([(1, 1), (2, 2), (1, 2), (2, 1)]),
                     label="dims")
    rng = random.Random(data.draw(st.integers(0, 10_000), label="seed"))
    atoms = [_atom(kind, rng, d, m) for kind in sorted(kinds)]
    exponents = {a.exponent for a in atoms if isinstance(a, PowerNoise)}
    if data.draw(st.booleans(), label="second power noise"):
        atoms.append(PowerNoise(rng.randint(0, 99), EPS, data.draw(
            st.sampled_from(sorted({Fraction(1, 2), Fraction(1), Fraction(2),
                                    Fraction(5, 2), Fraction(5)} - exponents
                                   - {0})), label="second exponent")))
    f = FuncModel(d, m, tuple(atoms))
    coords = data.draw(st.lists(
        st.fractions(min_value=-10, max_value=10, max_denominator=8),
        min_size=d, max_size=d), label="x")
    norm_kind = data.draw(st.sampled_from(("euclidean", "max")), label="norm")
    directions = data.draw(st.sampled_from(sorted(DIRECTION_PHI)),
                           label="directions")
    # Up to 48, so the certified depths 21 and 42 are reached.
    n_max = data.draw(st.integers(1, 48), label="n_max")
    for mode in ("exact", "float"):
        _assert_recover_matches_oracle(
            f, point(coords, mode, norm_kind), *directions,
            DIRECTION_PHI[directions], n_max, callable_too=True)


@pytest.mark.parametrize("d", [1, 2])
def test_recover_float_orbit_through_subnormals_matches_oracle(d):
    rng = random.Random(17)
    f = FuncModel(d, d, (random_linear(rng, d, d), random_cubic(rng, d, d)))
    x = point([3.0000000000000004e-300, -7.000000000000001e-301][:d],
              mode="float")
    # p = 7/2 runs the cubic iterate ceil(21 / (1/2)) = 42 steps deep.
    phi, depth = SumOfPowers(EPS, Fraction(7, 2)), 42
    # Halving a double rounds away low bits once x * 2^-n is subnormal, so
    # there an argument is no double; the orbit is read in integers and
    # stays exact.
    arguments = [x.scale(Fraction(1, 2) ** n) for n in range(depth + 1)]
    assert min(abs(c) for c in arguments[-1].coords) < 2.0 ** -1022
    assert any(Fraction(float(c)) != c for p in arguments for c in p.coords)
    _assert_recover_matches_oracle(f, x, 1, 1, phi, 48)


def _orbit_model(d):
    rng = random.Random(4)
    return FuncModel(d, d, (random_linear(rng, d, d), random_cubic(rng, d, d),
                            BoundedNoise(7, EPS)))


def _assert_each_orbit_argument_once(f, calls, x, calls_per_argument):
    # Iterates of depths N and M read max(N, M) + 2 orbit arguments when
    # both directions agree and N + M + 2 when not.  For p = 1/2 the depths
    # are 42 and 9, for p = 2 both are 21; n_max = 12 caps them.
    for directions, n_max, arguments in (((-1, -1), 12, 14),
                                         ((-1, -1), 48, 44),
                                         ((1, -1), 12, 26)):
        calls.clear()
        recover(f, [x], DIRECTION_PHI[directions], *directions, n_max=n_max)
        assert len(calls) == calls_per_argument * arguments == len(set(calls))


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("coords", [["3/4"], ["-5/2", "1/3"]])
def test_recover_evaluates_each_orbit_argument_once(mode, coords):
    # A plain callable is called at y and at -y.
    f = _Counted(_orbit_model(len(coords)))
    _assert_each_orbit_argument_once(f, f.calls, point(coords, mode), 2)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("coords", [["3/4"], ["-5/2", "1/3"]])
def test_recover_counts_hold_at_the_model_entry(monkeypatch, mode, coords):
    # Counted at the model's orbit reader, so a kernel that evaluated
    # around it could not hide evaluations: one read per argument gives
    # the odd part, and f(y) with it at k = 0.  The model's evaluation
    # entry is never called.
    calls, entry_calls = [], []
    orbit, evaluate = FuncModel.orbit, FuncModel.evaluate_coords

    def counted_orbit(model, u, den, odd=True):
        assert odd
        orbit_den, parts, read = orbit(model, u, den, odd)

        def counted(ks):
            calls.extend((u, den, k) for k in ks)
            return read(ks)
        return orbit_den, parts, counted

    def counted_entry(model, *args, **kwargs):
        entry_calls.append(args)
        return evaluate(model, *args, **kwargs)

    monkeypatch.setattr(FuncModel, "orbit", counted_orbit)
    monkeypatch.setattr(FuncModel, "evaluate_coords", counted_entry)
    _assert_each_orbit_argument_once(_orbit_model(len(coords)), calls,
                                     point(coords, mode), 1)
    assert entry_calls == []


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("directions", sorted(DIRECTION_PHI))
def test_recover_reads_each_point_in_one_noise_batch(monkeypatch, mode,
                                                     directions):
    # N points, N calls of noise.orbit: one batch per point holds every k
    # both iterates read, each once, and entry() reads nothing.  With the
    # directions apart (l = +1 additive, -1 cubic) the batch is the union
    # of both iterates' ks.
    batches = []
    read = noise.orbit

    def counted(atoms, coords, den, dim_out, odd, ks):
        batches.append(list(ks))
        return read(atoms, coords, den, dim_out, odd, ks)

    monkeypatch.setattr(noise, "orbit", counted)
    points = [point([Fraction(n, 7)], mode) for n in range(1, 6)]
    phi = DIRECTION_PHI[directions]
    recover(_orbit_model(1), points, phi, *directions, n_max=12)
    assert len(batches) == len(points)
    assert all(len(ks) == len(set(ks)) for ks in batches)
    low = -12 if 1 in directions else 0
    high = 13 if -1 in directions else 1
    assert all(sorted(ks) == list(range(low, high + 1)) for ks in batches)
    # The table reads on first use, once: the iterates and entry() after
    # them read nothing more.
    batches.clear()
    table = direct_method.OrbitTable(_orbit_model(1), points[0], True,
                                     low, high)
    assert batches == []
    additive_iterate(table, points[0], directions[0], 12, phi)
    cubic_iterate(table, points[0], directions[1], 12, phi)
    table.entry()
    assert len(batches) == 1


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_recover_zero_point_evaluates_its_one_argument_once(mode):
    # Every x * 2^k of x = 0 is the argument 0: f(0) and f(-0), once.
    f = _Counted(noisy_solution())
    item = recover(f, [point([0], mode)], DIRECTION_PHI[(1, -1)], 1, -1,
                   n_max=6).points[0]
    assert len(f.calls) == 2
    assert item.additive_trace.n_steps == item.cubic_trace.n_steps == 6


def test_recover_iterate_and_probe_never_call_the_point_path(monkeypatch):
    # FuncModel.__call__ is the Point path; a model is read on raw
    # coordinates through models.evaluate.
    def refuse(self, *args, **kwargs):
        raise AssertionError("FuncModel.__call__ reached")

    monkeypatch.setattr(FuncModel, "__call__", refuse)
    f = noisy_solution()
    for x in (point([1]), point([0.5], mode="float")):
        recover(f, [x])
        additive_iterate(f, x, -1, 6)
        _probe(cubic_iterate(f, x, 1, 6), 3, 6)
