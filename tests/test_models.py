import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from addcubic import (BoundedNoise, Constant, CubicHomogeneous,
                      DimensionMismatchError, Even, FuncModel, Linear,
                      ModeMismatchError, PowerNoise, ProductOfPowers,
                      SumOfPowers, cubic_1d, even_1d, linear_1d,
                      model_1d, noise, norm, odd_part, phi_value, point,
                      random_cubic, random_linear, random_point,
                      random_rational)
from addcubic.config import (model_from_json, model_to_json, phi_from_json,
                             phi_to_json)
from addcubic.models import NORM_KINDS, Point, evaluate, phi_degree
from addcubic.scalars import integer_ratio

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=16)


# ---------------------------------------------------------------------------
# Points and norms
# ---------------------------------------------------------------------------

def test_point_modes_and_ops():
    x = point([Fraction(1, 2), 3])
    y = point([1, -2])
    assert (x + y).coords == (Fraction(3, 2), Fraction(1))
    assert (x - y).coords == (Fraction(-1, 2), Fraction(5))
    assert (-x).coords == (Fraction(-1, 2), Fraction(-3))
    assert (2 * x).coords == (Fraction(1), Fraction(6))
    assert x.mode == "exact"
    assert x.to_mode("float").coords == (0.5, 3.0)


def test_point_rejects_mixed_modes():
    with pytest.raises(ModeMismatchError):
        point([0.5, Fraction(1, 2)], mode="float") + point([1, 1])
    from addcubic.models import Point
    with pytest.raises(ModeMismatchError):
        Point((0.5, Fraction(1, 2)))


def test_point_mode_is_stored_but_not_compared():
    from addcubic.models import Point
    exact, floating = Point((Fraction(1), Fraction(2))), Point((1.0, 2.0))
    assert (exact.mode, floating.mode) == ("exact", "float")
    assert exact == floating and hash(exact) == hash(floating)
    assert "mode" not in repr(exact)
    with pytest.raises(TypeError):
        Point((1.0,), "euclidean", "float")


def test_point_dimension_and_norm_kind_checks():
    with pytest.raises(DimensionMismatchError):
        point([1]) + point([1, 2])
    with pytest.raises(ValueError):
        point([1], norm_kind="euclidean") + point([1], norm_kind="max")
    with pytest.raises(ValueError):
        point([1], norm_kind="taxicab")
    with pytest.raises(DimensionMismatchError):
        point([])


def test_norms():
    assert norm(point([3, 4])) == 5.0
    assert norm(point([3, -4], norm_kind="max")) == 4.0
    assert norm(point([-7])) == 7.0
    assert norm(point([0, 0, 0])) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=4).map(tuple),
       st.lists(rationals, min_size=1, max_size=4).map(tuple),
       rationals, st.sampled_from(["euclidean", "max"]))
def test_norm_axioms(xs, ys, alpha, kind):
    if len(xs) != len(ys):
        ys = xs
    x = point(xs, norm_kind=kind)
    y = point(ys, norm_kind=kind)
    assert norm(x) >= 0.0
    assert (norm(x) == 0.0) == x.is_zero
    lhs = norm(alpha * x)
    rhs = abs(float(alpha)) * norm(x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)
    assert norm(x + y) <= norm(x) + norm(y) + 1e-12 * (norm(x) + norm(y) + 1)


def test_norm_axioms_bulk_sampling():
    rng = random.Random(77)
    for kind in ("euclidean", "max"):
        for _ in range(1000):
            d = rng.randint(1, 3)
            x = random_point(rng, d, norm_kind=kind)
            y = random_point(rng, d, norm_kind=kind)
            a = Fraction(rng.randint(-64, 64), 8)
            assert norm(x) >= 0.0
            scaled = norm(a * x)
            expected = abs(float(a)) * norm(x)
            assert abs(scaled - expected) <= 1e-12 * max(1.0, expected)
            assert norm(x + y) <= (norm(x) + norm(y)) * (1 + 1e-12) + 1e-15


# ---------------------------------------------------------------------------
# Value semantics: points, atoms, models and control functions
# ---------------------------------------------------------------------------

nonnegative = st.fractions(min_value=0, max_value=20, max_denominator=16)


def _rows(width, height):
    return st.lists(st.lists(rationals, min_size=width, max_size=width),
                    min_size=height, max_size=height)


def _atom_specs(d, m):
    """(class, arguments) of every atom kind of a d -> m model."""
    monomial = st.tuples(*[st.integers(0, d - 1)] * 3)
    cubic_terms = st.lists(st.lists(st.tuples(monomial, rationals),
                                    max_size=3), min_size=m, max_size=m)
    return st.one_of(
        st.tuples(st.just(Linear), st.tuples(_rows(d, m))),
        st.tuples(st.just(CubicHomogeneous),
                  st.tuples(cubic_terms, st.just((d, m)))),
        st.tuples(st.just(Even),
                  st.tuples(st.lists(_rows(d, d), min_size=m, max_size=m))),
        st.tuples(st.just(BoundedNoise),
                  st.tuples(st.integers(0, 99), nonnegative)),
        st.tuples(st.just(PowerNoise),
                  st.tuples(st.integers(0, 99), nonnegative, nonnegative)))


@st.composite
def value_specs(draw):
    """(class, arguments) of a point, an atom, a model or a control
    function; an argument may itself be such a pair."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    coords = st.one_of(
        st.lists(rationals, min_size=d, max_size=d),
        st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d)).map(tuple)
    return draw(st.one_of(
        st.tuples(st.just(Point),
                  st.tuples(coords, st.sampled_from(NORM_KINDS))),
        _atom_specs(d, m),
        st.tuples(st.just(FuncModel), st.tuples(
            st.just(d), st.just(m),
            st.lists(_atom_specs(d, m), max_size=4).map(tuple))),
        st.tuples(st.just(Constant), st.tuples(nonnegative)),
        st.tuples(st.just(SumOfPowers), st.tuples(nonnegative, nonnegative)),
        st.tuples(st.just(ProductOfPowers),
                  st.tuples(nonnegative, nonnegative, nonnegative))))


def _build(spec):
    """The value a spec describes, built from new objects on every call."""
    if isinstance(spec, Fraction):
        return Fraction(spec.numerator, spec.denominator)
    if isinstance(spec, tuple) and spec and isinstance(spec[0], type):
        cls, args = spec
        return cls(*map(_build, args))
    if isinstance(spec, (tuple, list)):
        return type(spec)(map(_build, spec))
    return spec


@settings(max_examples=200, deadline=None)
@given(value_specs())
def test_values_compare_and_hash_by_value(spec):
    value, twin = _build(spec), _build(spec)
    assert value is not twin
    assert value == twin and not value != twin and hash(value) == hash(twin)
    with pytest.raises(AttributeError):
        value.extra = 1
    if isinstance(value, (Constant, SumOfPowers, ProductOfPowers)):
        assert phi_from_json(phi_to_json(value)) == value
    if isinstance(value, FuncModel):
        text = json.dumps(model_to_json(value))
        first, second = (model_from_json(json.loads(text)) for _ in range(2))
        assert first == second == value
        assert hash(first) == hash(second) == hash(value)


# ---------------------------------------------------------------------------
# Atoms and models
# ---------------------------------------------------------------------------

def test_evaluate_examples():
    assert model_1d(linear_1d(2))(point([3])).coords == (Fraction(6),)
    assert model_1d(cubic_1d(1))(point([2])).coords == (Fraction(8),)
    assert model_1d(linear_1d(2), cubic_1d(1))(point([1])).coords == (Fraction(3),)


def test_evaluate_dimension_mismatch():
    f = model_1d(linear_1d(2))
    with pytest.raises(DimensionMismatchError):
        f(point([1, 2]))


def test_model_atom_dimension_check():
    with pytest.raises(DimensionMismatchError):
        FuncModel(2, 2, (linear_1d(1),))


def test_empty_model_is_zero():
    f = FuncModel(1, 1, ())
    assert f(point([5])).is_zero


def test_multidim_linear_and_cubic():
    lin = Linear(((1, 2), (0, Fraction(1, 2))))
    f = FuncModel(2, 2, (lin,))
    assert f(point([1, 1])).coords == (Fraction(3), Fraction(1, 2))
    cub = CubicHomogeneous(
        ((((0, 0, 1), Fraction(1)),), (((1, 1, 1), Fraction(2)),)), dims=(2, 2))
    g = FuncModel(2, 2, (cub,))
    assert g(point([2, 3])).coords == (Fraction(12), Fraction(54))


def test_cubic_monomial_out_of_range():
    with pytest.raises(DimensionMismatchError):
        CubicHomogeneous(((((0, 0, 1), Fraction(1)),),), dims=(1, 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), rationals, rationals)
def test_linear_models_are_additive_exact(seed, xv, yv):
    rng = random.Random(seed)
    d = rng.randint(1, 3)
    m = rng.randint(1, 3)
    f = FuncModel(d, m, (random_linear(rng, d, m),))
    x = random_point(rng, d)
    y = random_point(rng, d)
    assert f(x + y).coords == (f(x) + f(y)).coords


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_cubic_models_double_and_negate_exact(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 3)
    m = rng.randint(1, 3)
    f = FuncModel(d, m, (random_cubic(rng, d, m),))
    x = random_point(rng, d)
    assert f(2 * x).coords == (8 * f(x)).coords
    assert f(-x).coords == (-f(x)).coords


def test_even_atom_is_even_and_not_odd():
    f = model_1d(even_1d(1))
    x = point([3])
    assert f(x).coords == f(-x).coords == (Fraction(9),)
    assert f(point([0])).is_zero


def test_model_float_mode_matches_exact():
    rng = random.Random(4)
    f = FuncModel(2, 2, (random_linear(rng, 2, 2), random_cubic(rng, 2, 2)))
    x = random_point(rng, 2)
    exact = f(x)
    floated = f(x.to_mode("float"))
    for e, g in zip(exact.coords, floated.coords):
        assert math.isclose(float(e), g, rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Odd part
# ---------------------------------------------------------------------------

def test_odd_part_examples():
    mixed_parity = model_1d(even_1d(1), linear_1d(1))  # x^2 + x
    assert odd_part(mixed_parity)(point([2])).coords == (Fraction(2),)
    cubic = model_1d(cubic_1d(1))
    for v in (Fraction(1, 2), Fraction(-3), Fraction(7, 4)):
        assert odd_part(cubic)(point([v])).coords == cubic(point([v])).coords
    even = model_1d(even_1d(1))
    assert odd_part(even)(point([5])).is_zero


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), rationals)
def test_odd_part_is_odd_and_zero_at_origin(seed, v):
    rng = random.Random(seed)
    f = model_1d(random_linear(rng, 1, 1), random_cubic(rng, 1, 1),
                 even_1d(rng.randint(-5, 5)),
                 BoundedNoise(seed, Fraction(1, 100)))
    g = odd_part(f)
    x = point([v])
    assert g(-x).coords == (-g(x)).coords
    assert g(point([0])).is_zero


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------

def noise_eval(seed, x, amplitude, exponent=0):
    """One power-noise atom evaluated at the point x, as a d -> d model."""
    return FuncModel(x.dim, x.dim, (PowerNoise(seed, amplitude, exponent),))(x)


def test_noise_zero_amplitude():
    x = point([Fraction(5, 3), Fraction(-1)])
    assert noise_eval(3, x, 0).is_zero


def test_noise_determinism():
    x = point([Fraction(5, 3)])
    first = noise_eval(11, x, Fraction(1, 7), 2)
    second = noise_eval(11, x, Fraction(1, 7), 2)
    assert first.coords == second.coords
    assert noise_eval(12, x, Fraction(1, 7), 2).coords != first.coords


def test_noise_envelope_sampled():
    rng = random.Random(123)
    eps = 1e-3
    worst = 0.0
    for _ in range(1000):
        x = random_point(rng, 1).to_mode("float")
        worst = max(worst, norm(noise_eval(5, x, Fraction(1, 1000), 0)))
    assert worst <= eps


def test_noise_envelope_power_and_norm_kinds():
    rng = random.Random(9)
    for kind in ("euclidean", "max"):
        for p in (0, 1, 2, Fraction(1, 2)):
            for _ in range(200):
                x = random_point(rng, 2, norm_kind=kind)
                out = noise_eval(21, x, Fraction(1, 50), p)
                allowed = (1 / 50) * norm(x) ** float(p)
                assert norm(out) <= allowed * (1 + 1e-12)


def test_noise_exact_outputs_are_rational():
    x = point([Fraction(3, 7)])
    out = noise_eval(2, x, Fraction(1, 10), 2)
    assert all(isinstance(c, Fraction) for c in out.coords)


def test_noise_zero_at_origin_for_positive_exponent():
    assert noise_eval(2, point([0, 0]), Fraction(1), 3).is_zero


def test_noise_rejects_negative_parameters():
    x = point([1])
    with pytest.raises(ValueError):
        noise_eval(1, x, -1)
    with pytest.raises(ValueError):
        noise_eval(1, x, 1, -2)


def test_noise_refuses_a_power_too_large_to_form():
    # 3^(10^7) has 1.6e7 bits: forming it took seconds, 3^(10^10) hung.
    for mode in ("exact", "float"):
        with pytest.raises(OverflowError, match="exponent 10000000 "):
            noise_eval(1, point([3], mode), Fraction(1, 1000), 10 ** 7)
    # The limit is on p times the bit length of the base or denominator;
    # x = 1 has one bit.
    bits = noise.MAX_POWER_BITS
    noise.sample(1, [1], (1, 1), (bits, 1), 1, "exact")
    with pytest.raises(OverflowError):
        noise.sample(1, [1], (1, 1), (bits + 1, 1), 1, "exact")


@pytest.mark.parametrize("amplitude, exponent, ints, den", [
    (Fraction(0), Fraction(3), [5], 2),
    (Fraction(0), Fraction(1, 2), [5], 2),
    (Fraction(3, 7), Fraction(0), [5, -9], 4),
    (Fraction(3, 7), Fraction(0), [0, 0], 1),
    (Fraction(3, 7), Fraction(3), [5, -9], 4),
    (Fraction(1, 1000), Fraction(1), [0, 0], 1),
    (Fraction(5), Fraction(2), [-1], 3 << 60),
    (Fraction(3, 7), Fraction(5, 2), [5, -9], 4),
    (Fraction(2), Fraction(1, 3), [1], 3 << 60),
    (Fraction(1, 1000), Fraction(7, 3), [2 ** 80 + 1, 3], 1 << 1074),
])
def test_integer_scale_matches_the_fraction_formula(amplitude, exponent,
                                                    ints, den):
    # The formula as it read on Fractions: amplitude * b^p, b = max |x_i|,
    # with b^p through float pow, padded by (2^30 - 1) / 2^30, for a
    # fractional p.
    base = Fraction(max(abs(u) for u in ints), den)
    if amplitude == 0 or exponent == 0 or exponent.denominator == 1:
        expected = amplitude * base ** exponent.numerator
    else:
        expected = (amplitude * Fraction(float(base) ** float(exponent))
                    * Fraction((1 << 30) - 1, 1 << 30))
    scale = noise._scale(ints, den, amplitude.as_integer_ratio(),
                         exponent.as_integer_ratio())
    assert Fraction(*scale) == expected


def test_noise_atoms_in_models():
    f = model_1d(linear_1d(1), BoundedNoise(3, Fraction(1, 100)))
    x = point([Fraction(2)])
    deviation = f(x) - model_1d(linear_1d(1))(x)
    assert norm(deviation) <= 0.01
    g = model_1d(PowerNoise(3, Fraction(1, 100), Fraction(2)))
    assert norm(g(x)) <= 0.01 * norm(x) ** 2


# ---------------------------------------------------------------------------
# Exact integer kernel
# ---------------------------------------------------------------------------

ATOM_KINDS = ("linear", "cubic", "even", "bounded_noise", "power_noise")


def _kernel_atom(kind, rng, d, m):
    """An atom of the given kind and its (kind, data) form for the oracle."""
    if kind == "linear":
        atom = random_linear(rng, d, m)
        return atom, ("linear", atom.matrix)
    if kind == "cubic":
        atom = random_cubic(rng, d, m)
        return atom, ("cubic", atom.terms)
    if kind == "even":
        atom = Even(tuple(tuple(tuple(random_rational(rng, 9)
                                      for _ in range(d)) for _ in range(d))
                          for _ in range(m)))
        return atom, ("even", atom.matrices)
    amplitude = random_rational(rng, 9, (1, 7, 1000))
    seed = rng.randint(0, 999)
    if kind == "bounded_noise":
        return BoundedNoise(seed, abs(amplitude)), \
            ("noise", (seed, abs(amplitude), 0))
    exponent = Fraction(rng.randint(0, 6), rng.choice((1, 1, 2, 3)))
    return PowerNoise(seed, abs(amplitude), exponent), \
        ("noise", (seed, abs(amplitude), exponent))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_exact_kernel_matches_term_by_term_oracle(data):
    d = data.draw(st.integers(1, 3), label="dim_in")
    m = data.draw(st.integers(1, 3), label="dim_out")
    rng = random.Random(data.draw(st.integers(0, 10_000), label="seed"))
    kinds = data.draw(st.lists(st.sampled_from(ATOM_KINDS), min_size=1,
                               max_size=5), label="atoms")
    atoms, specs = zip(*(_kernel_atom(kind, rng, d, m) for kind in kinds))
    coordinate = st.fractions(min_value=-10, max_value=10, max_denominator=64)
    x = data.draw(st.one_of(st.just([Fraction(0)] * d),
                            st.lists(coordinate, min_size=d, max_size=d)),
                  label="x")
    values = FuncModel(d, m, atoms).evaluate_coords(tuple(x), "exact")
    assert all(type(v) is Fraction for v in values)
    assert values == oracles.atom_sum(specs, x, m)
    # Each atom, as a one-atom model, on unreduced integers:
    # x = (g L x) / (g L).
    den = math.lcm(*(c.denominator for c in x)) \
        * data.draw(st.integers(1, 12), label="unreduced")
    ints = [int(c * den) for c in x]
    for atom, spec in zip(atoms, specs):
        nums, out_den = FuncModel(d, m, (atom,)).evaluate_coords(
            ints, "exact", den=den)
        assert [Fraction(n, out_den) for n in nums] \
            == oracles.atom_sum([spec], x, m)
        if spec[0] == "noise":  # float noise is the exact value rounded once
            floats = [float(c) for c in x]
            assert atom.evaluate(floats, "float", m) == [
                float(v) for v in oracles.atom_sum([spec], floats, m)]


@pytest.mark.parametrize("ints, den", [([4], 8), ([0], 5), ([6, -3], 9),
                                       ([0, 0, 0], 1)])
def test_atoms_read_unreduced_integer_arguments(ints, den):
    x = [Fraction(u, den) for u in ints]
    d, rng = len(ints), random.Random(5)
    for kind in ATOM_KINDS:
        atom, spec = _kernel_atom(kind, rng, d, 2)
        nums, out_den = FuncModel(d, 2, (atom,)).evaluate_coords(
            ints, "exact", den=den)
        assert [Fraction(n, out_den) for n in nums] \
            == oracles.atom_sum([spec], x, 2)


def _hex(values):
    return [v.hex() for v in values]


# Floats whose cubes stay finite, subnormals (multiples of 2^-1074) and
# both signed zeros.
_FLOAT_COORDINATE = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.integers(-2 ** 52, 2 ** 52).map(lambda n: n * 5e-324),
    st.sampled_from([0.0, -0.0]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_odd_entry_matches_two_calls(data):
    d = data.draw(st.integers(1, 3), label="dim_in")
    m = data.draw(st.integers(1, 3), label="dim_out")
    rng = random.Random(data.draw(st.integers(0, 10_000), label="seed"))
    kinds = data.draw(st.lists(st.sampled_from(ATOM_KINDS), max_size=6),
                      label="atoms")
    f = FuncModel(d, m, tuple(_kernel_atom(kind, rng, d, m)[0]
                              for kind in kinds))
    norm_kind = data.draw(st.sampled_from(NORM_KINDS), label="norm")
    x = data.draw(st.one_of(st.just([0.0] * d), st.lists(
        _FLOAT_COORDINATE, min_size=d, max_size=d)), label="x")
    # Float mode: bit for bit, signed zeros included, against the odd part
    # as the orbit table formed it from two plain calls.
    value, odd = evaluate(f, x, "float", norm_kind, odd=True)
    plus = f.evaluate_coords(x, "float")
    minus = f.evaluate_coords([-c for c in x], "float")
    assert _hex(value) == _hex(plus)
    assert _hex(odd) == _hex(0.5 * (p - 1.0 * q) for p, q in zip(plus, minus))
    # Exact mode: on rationals, and on integers over an unreduced
    # denominator.
    exact_x = [Fraction(c) for c in x]
    plus = f.evaluate_coords(exact_x, "exact")
    minus = f.evaluate_coords([-c for c in exact_x], "exact")
    assert evaluate(f, exact_x, "exact", norm_kind, odd=True) == (
        plus, [(p - q) / 2 for p, q in zip(plus, minus)])
    ints, den = integer_ratio(exact_x)
    factor = data.draw(st.integers(1, 12), label="unreduced")
    ints, den = [u * factor for u in ints], den * factor
    pair = evaluate(f, ints, "exact", norm_kind, den, odd=True)
    plus, minus = (f.evaluate_coords(u, "exact", den=den)
                   for u in (ints, [-u for u in ints]))
    assert [[Fraction(n, out_den) for n in nums] for nums, out_den in pair] \
        == [[Fraction(n, plus[1]) for n in plus[0]],
            [Fraction(p, 2 * plus[1]) - Fraction(q, 2 * minus[1])
             for p, q in zip(plus[0], minus[0])]]


@pytest.mark.parametrize("norm_kind", NORM_KINDS)
def test_odd_entry_calls_a_plain_callable_twice(norm_kind):
    model = model_1d(linear_1d(2), cubic_1d(1), BoundedNoise(3, 1))
    calls = []

    def f(p):
        calls.append(p)
        return model(p)

    plus, minus = (model(point([c], "float")).coords for c in (0.75, -0.75))
    assert evaluate(f, (0.75,), "float", norm_kind, odd=True) == (
        plus, [0.5 * (plus[0] - minus[0])])
    value, odd = evaluate(f, (3,), "exact", norm_kind, 4, odd=True)
    assert [p.coords for p in calls] == [(0.75,), (-0.75,),
                                         (Fraction(3, 4),), (Fraction(-3, 4),)]
    assert all(p.norm_kind == norm_kind for p in calls)
    plus, minus = (model(point([c])).coords for c in ("3/4", "-3/4"))
    assert [Fraction(n, value[1]) for n in value[0]] == list(plus)
    assert [Fraction(n, odd[1]) for n in odd[0]] == [(plus[0] - minus[0]) / 2]


def test_noise_directions_are_cached_without_changing_values():
    f = model_1d(linear_1d(1), PowerNoise(4, Fraction(1, 100), 2),
                 BoundedNoise(9, Fraction(1, 7)))
    xs = [point(["3/8"]), point(["-5/3"]), point([0.3], "float")]
    noise._direction_component.cache_clear()
    cold = [(f(x).coords, f(-x).coords,
             evaluate(f, x.coords, x.mode, x.norm_kind, odd=True))
            for x in xs]
    assert noise._direction_component.cache_info().currsize > 0
    warm = [(f(x).coords, f(-x).coords,
             evaluate(f, x.coords, x.mode, x.norm_kind, odd=True))
            for x in xs]
    assert warm == cold
    assert noise._direction_component.cache_info().hits > 0
    maxsize = noise._direction_component.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize == noise.DIRECTION_CACHE_SIZE


# ---------------------------------------------------------------------------
# Control functions
# ---------------------------------------------------------------------------

def test_control_function_values():
    x = point([2])
    y = point([3])
    assert phi_value(Constant(Fraction(5)), x, y) == 5.0
    assert phi_value(SumOfPowers(1, 2), x, y) == pytest.approx(13.0)
    assert phi_value(ProductOfPowers(2, 1, 1), x, y) == pytest.approx(12.0)
    # diagonal shapes
    assert phi_value(SumOfPowers(Fraction(1, 2), 3), x, x) == pytest.approx(8.0)
    assert phi_value(ProductOfPowers(1, 1, 2), x, x) == pytest.approx(8.0)


def test_control_function_degree():
    assert phi_degree(Constant(1)) == 0
    assert phi_degree(SumOfPowers(1, Fraction(5, 2))) == Fraction(5, 2)
    assert phi_degree(ProductOfPowers(1, 1, 2)) == 3


def test_control_function_rejects_negative():
    with pytest.raises(ValueError):
        Constant(-1)
    with pytest.raises(ValueError):
        SumOfPowers(1, -1)
    with pytest.raises(ValueError):
        ProductOfPowers(-1, 0, 0)
