import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from addcubic import (BoundedNoise, Constant, ControlFunction,
                      CubicHomogeneous, DimensionMismatchError, Even, FuncModel, Linear,
                      OverflowGuardError,
                      PowerNoise, ProductOfPowers, SumOfPowers, certify_phi,
                      cubic_1d, even_1d, linear_1d, model_1d, noise, norm,
                      phi_value, point, random_cubic, random_linear,
                      random_point, random_rational)
from addcubic.config import (ConfigError, atom_to_json, model_from_json,
                             model_to_json, phi_from_json, phi_to_json)
from addcubic.direct_method import OrbitTable, recover
from addcubic.models import (NORM_KINDS, Point, coords_norm, max_ratio_norm,
                             orbit)
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
    # A float-mode point holds its doubles' exact values, here x's own.
    assert point([0.5, 3.0], mode="float") == x
    assert (point([0.5], mode="float") + point([1])).coords == (Fraction(3, 2),)


def test_point_mode_is_stored_but_not_compared():
    # Mode is how a point was read, not part of it: none is stored.
    exact, floating = Point((Fraction(1), Fraction(2))), point([1.0, 2.0],
                                                               mode="float")
    assert not hasattr(exact, "mode") and not hasattr(floating, "mode")
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


def test_euclidean_norm_past_the_range_of_the_squares():
    assert coords_norm([Fraction(10 ** 160), 0], "euclidean") == 1e160
    assert coords_norm([1.2e154, -1.2e154], "euclidean") \
        == math.hypot(1.2e154, 1.2e154)
    assert coords_norm([3, 4], "euclidean") == 5.0
    with pytest.raises(OverflowError):
        coords_norm([1.5e308, 1.5e308], "euclidean")


# Numerators and denominators whose ratios reach past both ends of the
# range where the squares of a Euclidean norm are exact enough.
wide_ints = st.one_of(
    st.integers(-50, 50), st.integers(-10 ** 320, 10 ** 320),
    st.sampled_from((0, 0, 10 ** 160, -(10 ** 170), 3 ** 700)))
wide_dens = st.one_of(st.integers(1, 50), st.sampled_from(
    (10 ** 170, 10 ** 300, 2 ** 1100, 7 ** 400)))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(NORM_KINDS))
def test_max_ratio_norm_is_the_largest_coords_norm(data, norm_kind):
    m = data.draw(st.integers(1, 3), label="dim_out")
    dens = data.draw(st.lists(wide_dens, min_size=1, max_size=5), label="dens")
    columns = [data.draw(st.lists(wide_ints, min_size=len(dens),
                                  max_size=len(dens)), label="column")
               for _ in range(m)]
    vectors = [[Fraction(n, den) for n in nums]
               for nums, den in zip(zip(*columns), dens)]
    nonzero = [vector for vector in vectors if any(vector)]
    try:
        expected = (max((coords_norm(vector, norm_kind) for vector in nonzero),
                        default=0.0), len(nonzero))
    except OverflowError:
        with pytest.raises(OverflowError):
            max_ratio_norm(columns, dens, norm_kind)
        return
    largest, count = max_ratio_norm(columns, dens, norm_kind)
    assert (largest.hex(), count) == (expected[0].hex(), expected[1])


def test_euclidean_norm_below_the_range_of_the_squares():
    # The squares of these coordinates underflow, to 0 or to subnormals
    # that have lost bits; hypot scales first.
    assert coords_norm([1e-170, 0], "euclidean") == 1e-170
    assert coords_norm([Fraction(-1, 10 ** 170), 0], "euclidean") == 1e-170
    assert coords_norm([3e-160, 4e-160], "euclidean") == 5e-160
    assert coords_norm([5e-324, 5e-324], "euclidean") \
        == math.hypot(5e-324, 5e-324) > 0
    assert coords_norm([0.0, -0.0], "euclidean") == 0.0


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
    if isinstance(spec, tuple) and spec and callable(spec[0]):
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
    if isinstance(value, ControlFunction):
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
    # Float mode reads the doubles nearest x, and f is exact there: on the
    # grid 2^-10 they are x itself.
    assert f(point(x.coords, mode="float")) == f(x)
    assert f(point(["1/3", "-2/7"], mode="float")) \
        == f(point([Fraction(1 / 3), Fraction(-2 / 7)]))


# ---------------------------------------------------------------------------
# Odd part
# ---------------------------------------------------------------------------

def _odd_value(f, x):
    """(f(x) - f(-x)) / 2, the odd value of x's orbit table."""
    table = OrbitTable(f, x)
    return table.point(table.entry()[1])


def test_odd_part_examples():
    mixed_parity = model_1d(even_1d(1), linear_1d(1))  # x^2 + x
    assert _odd_value(mixed_parity, point([2])).coords == (Fraction(2),)
    cubic = model_1d(cubic_1d(1))
    for v in (Fraction(1, 2), Fraction(-3), Fraction(7, 4)):
        assert _odd_value(cubic, point([v])).coords \
            == cubic(point([v])).coords
    even = model_1d(even_1d(1))
    assert _odd_value(even, point([5])).is_zero


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), rationals)
def test_odd_part_is_odd_and_zero_at_origin(seed, v):
    rng = random.Random(seed)
    f = model_1d(random_linear(rng, 1, 1), random_cubic(rng, 1, 1),
                 even_1d(rng.randint(-5, 5)),
                 BoundedNoise(seed, Fraction(1, 100)))
    x = point([v])
    assert _odd_value(f, -x).coords == (-_odd_value(f, x)).coords
    assert _odd_value(f, point([0])).is_zero


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
        x = random_point(rng, 1, mode="float")
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
    noise.sample(1, [1], (1, 1), (bits, 1), 1)
    with pytest.raises(OverflowError):
        noise.sample(1, [1], (1, 1), (bits + 1, 1), 1)


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


@pytest.mark.parametrize("coords, den", [
    ((5 << 520,), 1),  # the base is too wide for p = 4096 at x already
    ((3,), 1 << 515),  # so is the denominator
    ((7, -(1 << 500)), 3)],  # wide enough from k = 12 on
    ids=["wide-base", "wide-den", "wide-from-k-12"])
def test_noise_orbit_raises_where_the_scale_does(coords, den):
    # Along the orbit an integer-p scale is a shift of the scale at x, so
    # the reader repeats _scale's power check at each argument: it raises
    # exactly where _scale at y does, with its message.
    # A batch raises the message of its first such k.
    amplitude, exponent = (1, 1000), (4096, 1)
    ks, first = range(-20, 21), None
    for k in ks:
        y, d = ([u << k for u in coords], den) if k >= 0 \
            else (coords, den << -k)
        try:
            noise._scale(y, d, amplitude, exponent)
        except OverflowError as exc:
            first = first or str(exc)
            with pytest.raises(OverflowError, match=re.escape(str(exc))):
                noise.orbit([(9, amplitude, exponent)], coords, den, 2, True, [k])
        else:
            noise.orbit([(9, amplitude, exponent)], coords, den, 2, True, [k])
    assert first is not None
    with pytest.raises(OverflowError, match=re.escape(first)):
        noise.orbit([(9, amplitude, exponent)], coords, den, 2, True, ks)


def test_noise_orbit_of_a_zero_scale_reads_every_k():
    # _scale returns 0 for a zero amplitude or at x = 0 before its power
    # check, so such an atom reads 0 at every k, even where the check
    # would refuse the power: the batch once stopped at two ks there.
    for amplitude, coords in (((0, 1), (3,)), ((1, 1000), (0,))):
        den, columns, _ = noise.orbit([(1, amplitude, (1 << 20, 1))],
                                      coords, 1, 1, True, [1, 0, -1])
        assert columns == [[0, 0, 0]]
    f = model_1d(linear_1d(2), PowerNoise(1, 0, 1 << 20))
    item = recover(f, [point(["3"])], SumOfPowers(1, 2), 1, -1,
                   n_max=3).points[0]
    assert item.additive.coords == (6,) and item.error == 0.0


# Integer exponents, and fractional ones (float pow).  Under a power
# width of 2^12 bits, set below, the check refuses p = 60 from a base or
# denominator of 69 bits on, and p = 7 from 586.
_ORBIT_EXPONENTS = [(0, 1), (1, 1), (7, 1), (60, 1), (1, 2), (7, 3),
                    (5, 2)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_noise_orbit_batch_equals_one_argument_samples(data):
    # One batch over the ks against noise.sample at each y = x * 2^k alone
    # (and at -y, with odd): the same value at every k, for 1-3 outputs;
    # x lies near 2^0, 2^990 or 2^-990 (fractional p reads the float base
    # near the ends of the normal range) or 2^1060 or 2^-1060 (outside it).
    # Where a sample raises, the read of that k raises its message, and
    # the batch that of the first atom to raise, at its first such k.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(noise, "MAX_POWER_BITS", 1 << 12)
        _check_orbit_batch(data)


def _check_orbit_batch(data):
    m = data.draw(st.integers(1, 3), label="dim_out")
    odd = data.draw(st.booleans(), label="odd")
    atoms = data.draw(st.lists(st.tuples(
        st.integers(0, 99), st.sampled_from([(1, 1000), (3, 7), (0, 1)]),
        st.sampled_from(_ORBIT_EXPONENTS)), min_size=1, max_size=2),
        label="atoms")
    shift = data.draw(st.sampled_from([0, 990, -990, 1060, -1060]),
                      label="bits of x")
    coords = tuple(c << max(shift, 0) for c in data.draw(st.lists(
        st.integers(-999, 999), min_size=1, max_size=2), label="u"))
    den = data.draw(st.sampled_from([1, 3, 97, 1024]), label="den") \
        << max(-shift, 0)
    ks = data.draw(st.lists(st.one_of(  # and near p = 60's refusals
        st.integers(-80, 80), st.integers(55, 70), st.integers(-70, -55)),
        min_size=1, max_size=5, unique=True), label="ks")
    errors, values = [{} for _ in atoms], []  # per atom, k -> message
    for k in ks:
        y, y_den = ([c << k for c in coords], den) if k >= 0 \
            else (coords, den << -k)
        expected = [Fraction(0)] * m
        for atom, (seed, amplitude, exponent) in enumerate(atoms):
            try:
                for sign in (1, -1)[:1 + odd]:
                    row, d = noise.sample(seed, [sign * c for c in y],
                                          amplitude, exponent, m, y_den)
                    expected = [e + Fraction(sign * n, d * (1 + odd))
                                for e, n in zip(expected, row)]
            except OverflowError as exc:
                errors[atom][k] = str(exc)
        first = next((e[k] for e in errors if k in e), None)
        if first is not None:
            with pytest.raises(OverflowError, match=re.escape(first)):
                noise.orbit(atoms, coords, den, m, odd, [k])
            continue
        out_den, columns, _ = noise.orbit(atoms, coords, den, m, odd, [k])
        assert [Fraction(c[0], out_den) for c in columns] == expected
        values.append(expected)
    first = next((e[k] for e in errors for k in ks if k in e), None)
    if first is not None:
        with pytest.raises(OverflowError, match=re.escape(first)):
            noise.orbit(atoms, coords, den, m, odd, ks)
    else:
        out_den, columns, _ = noise.orbit(atoms, coords, den, m, odd, ks)
        assert [[Fraction(c, out_den) for c in row]
                for row in zip(*columns)] == values


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
    values = FuncModel(d, m, atoms).evaluate_coords(tuple(x))
    assert all(type(v) is Fraction for v in values)
    assert values == oracles.atom_sum(specs, x, m)
    # Doubles are read at their exact values.
    floats = [float(c) for c in x]
    assert FuncModel(d, m, atoms).evaluate_coords(floats) \
        == oracles.atom_sum(specs, floats, m)
    # Each atom, as a one-atom model, on unreduced integers:
    # x = (g L x) / (g L).
    den = math.lcm(*(c.denominator for c in x)) \
        * data.draw(st.integers(1, 12), label="unreduced")
    ints = [int(c * den) for c in x]
    for atom, spec in zip(atoms, specs):
        nums, out_den = FuncModel(d, m, (atom,)).evaluate_coords(
            ints, den=den)
        assert [Fraction(n, out_den) for n in nums] \
            == oracles.atom_sum([spec], x, m)
        expected = oracles.atom_sum([spec], floats, m)
        assert FuncModel(d, m, (atom,)).evaluate_coords(floats) == expected
        if spec[0] != "noise":
            assert atom.evaluate(floats) == expected


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_moments_expand_the_table_at_every_lattice_argument(data):
    d = data.draw(st.integers(1, 3), label="dim_in")
    m = data.draw(st.integers(1, 3), label="dim_out")
    rng = random.Random(data.draw(st.integers(0, 10_000), label="seed"))
    kinds = data.draw(st.lists(st.sampled_from(ATOM_KINDS), max_size=5),
                      label="atoms")
    atoms, specs = zip(*(_kernel_atom(kind, rng, d, m) for kind in kinds)) \
        if kinds else ((), ())
    f = FuncModel(d, m, atoms)
    polynomial = [spec for spec in specs if spec[0] != "noise"]
    assert f.has_noise == (len(polynomial) < len(specs))
    # Integers over an unreduced denominator, as a pair of points reads.
    ints = st.lists(st.integers(-40, 40), min_size=d, max_size=d)
    u, v = data.draw(ints, label="u"), data.draw(ints, label="v")
    den = data.draw(st.integers(1, 24), label="den")
    columns, (out_den,) = f.moments([(u, v, den)])
    assert len(columns) == m
    assert all(len(column) == len(f.moment_keys) <= 10 for column in columns)
    columns = [[value for value, in column] for column in columns]
    for a in range(-3, 4):
        for b in range(-3, 4):
            w = [Fraction(a * ui + b * vi, den) for ui, vi in zip(u, v)]
            expanded = [Fraction(sum(a ** q * b ** (r - q) * value
                                     for (r, q), value
                                     in zip(f.moment_keys, column)), out_den)
                        for column in columns]
            assert expanded == oracles.atom_sum(polynomial, w, m)


@pytest.mark.parametrize("ints, den", [([4], 8), ([0], 5), ([6, -3], 9),
                                       ([0, 0, 0], 1)])
def test_atoms_read_unreduced_integer_arguments(ints, den):
    x = [Fraction(u, den) for u in ints]
    d, rng = len(ints), random.Random(5)
    for kind in ATOM_KINDS:
        atom, spec = _kernel_atom(kind, rng, d, 2)
        nums, out_den = FuncModel(d, 2, (atom,)).evaluate_coords(
            ints, den=den)
        assert [Fraction(n, out_den) for n in nums] \
            == oracles.atom_sum([spec], x, 2)


# Floats whose cubes stay finite, subnormals (multiples of 2^-1074) and
# both signed zeros.
_FLOAT_COORDINATE = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.integers(-2 ** 52, 2 ** 52).map(lambda n: n * 5e-324),
    st.sampled_from([0.0, -0.0]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_odd_entry_matches_two_calls(data):
    # The orbit reader at y = x * 2^k against evaluate_coords at y and -y:
    # the odd part at every k, f(y) with it at k = 0 only, and f(y)
    # everywhere without odd.  Noise exponents are integers or fractions.
    d = data.draw(st.integers(1, 3), label="dim_in")
    m = data.draw(st.integers(1, 3), label="dim_out")
    rng = random.Random(data.draw(st.integers(0, 10_000), label="seed"))
    kinds = data.draw(st.lists(st.sampled_from(ATOM_KINDS), max_size=6),
                      label="atoms")
    f = FuncModel(d, m, tuple(_kernel_atom(kind, rng, d, m)[0]
                              for kind in kinds))
    # Doubles at their exact values, or rationals over an unreduced
    # denominator; the orbit of x = 0 is the one argument 0.
    x = data.draw(st.one_of(
        st.just([0.0] * d),
        st.lists(_FLOAT_COORDINATE, min_size=d, max_size=d),
        st.lists(rationals, min_size=d, max_size=d)), label="x")
    u, den = integer_ratio(x)
    factor = data.draw(st.integers(1, 12), label="unreduced")
    u, den = tuple(c * factor for c in u), den * factor
    ks = data.draw(st.lists(st.integers(-60, 60), max_size=4), label="k")

    def at(nums, out_den):
        return [Fraction(n, out_den) for n in nums]

    def whole(orbit, k, rest, degrees):
        # The read plus each part of the given degrees times 2^(k r).
        orbit_den, parts, _ = orbit
        values = at(*rest)
        for r, column in parts:
            if r in degrees:
                values = [v + Fraction(c, orbit_den) * Fraction(2) ** (k * r)
                          for v, c in zip(values, column)]
        return values

    # Each k is read alone and in one batch of all of them; a read gives
    # one column per output, one value per k.
    odd_orbit, plain_orbit = f.orbit(u, den), f.orbit(u, den, odd=False)
    odd_den, odd_columns, _ = odd_orbit[2]([0, *ks])
    plain_den, plain_columns, batch_plain = plain_orbit[2]([0, *ks])
    assert batch_plain is None
    assert len(odd_columns) == len(plain_columns) == m
    for k, odd_column, plain_column in zip([0, *ks], zip(*odd_columns),
                                           zip(*plain_columns)):
        y, y_den = ([c << k for c in u], den) if k >= 0 else (u, den << -k)
        plus = at(*f.evaluate_coords(y, den=y_den))
        minus = at(*f.evaluate_coords([-c for c in y], den=y_den))
        out_den, columns, total = odd_orbit[2]([k])
        value = [c for c, in columns]
        assert whole(odd_orbit, k, (value, out_den), (1, 3)) \
            == whole(odd_orbit, k, (odd_column, odd_den), (1, 3)) \
            == [(p - q) / 2 for p, q in zip(plus, minus)]
        assert (total is None) == (k != 0)
        if k == 0:
            assert whole(odd_orbit, k, (total, out_den), (1, 2, 3)) == plus
        out_den, columns, total = plain_orbit[2]([k])
        value = [c for c, in columns]
        assert total is None
        assert whole(plain_orbit, k, (value, out_den), (1, 2, 3)) \
            == whole(plain_orbit, k, (plain_column, plain_den), (1, 2, 3)) \
            == plus


@pytest.mark.parametrize("norm_kind", NORM_KINDS)
def test_odd_entry_calls_a_plain_callable_twice(norm_kind):
    model = model_1d(linear_1d(2), cubic_1d(1), BoundedNoise(3, 1))
    calls = []

    def f(p):
        calls.append(p)
        return model(p)

    orbit_den, parts, read = orbit(f, (3,), 4, norm_kind)
    assert parts == ()
    den, (odd,), value = read([0])
    assert [p.coords for p in calls] == [(Fraction(3, 4),), (Fraction(-3, 4),)]
    assert all(p.norm_kind == norm_kind for p in calls)
    plus, minus = (model(point([c])).coords for c in ("3/4", "-3/4"))
    assert [Fraction(n, den) for n in value] == list(plus)
    assert [Fraction(n, den) for n in odd] == [(plus[0] - minus[0]) / 2]


@pytest.mark.parametrize("norm_kind", NORM_KINDS)
@pytest.mark.parametrize("m", range(1, 21))
def test_orbit_guard_trips_where_the_plain_norm_does(norm_kind, m):
    # Each output of f(1/3) is c/3, so the norm sits near 2^e.  The guard
    # skips the float norm only where it cannot exceed 2^500: it trips
    # exactly where that norm does, with its message.
    width = math.sqrt(m) if norm_kind == "euclidean" else 1
    tripped = 0
    for e in range(494, 502):
        for step in (-2 ** -30, -2 ** -52, 0, 2 ** -52, 2 ** -30):
            c = round(3 * 2.0 ** e * (1 + step) / width)
            f = FuncModel(1, m, (Linear(((c,),) * m),))
            x = point([Fraction(1, 3)], norm_kind=norm_kind)
            magnitude = coords_norm([Fraction(c, 3)] * m, norm_kind)
            if magnitude <= 2.0 ** 500:
                OrbitTable(f, x).entry()
                continue
            tripped += 1
            with pytest.raises(OverflowGuardError, match=re.escape(
                    f"evaluation norm {magnitude!r} exceeds 2^500")):
                OrbitTable(f, x).entry()
    assert 0 < tripped < 40


def test_noise_directions_are_cached_without_changing_values():
    f = model_1d(linear_1d(1), PowerNoise(4, Fraction(1, 100), 2),
                 BoundedNoise(9, Fraction(1, 7)))
    xs = [point(["3/8"]), point(["-5/3"]), point([0.3], "float")]
    noise._direction_component.cache_clear()

    def values(x):  # a float point's odd part is read at its integer ratio
        ints, den = integer_ratio(x.coords)
        return f(x).coords, f(-x).coords, f.orbit(tuple(ints), den)[2]([0])

    cold = [values(x) for x in xs]
    assert noise._direction_component.cache_info().currsize > 0
    warm = [values(x) for x in xs]
    assert warm == cold
    assert noise._direction_component.cache_info().hits > 0
    maxsize = noise._direction_component.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize == noise.DIRECTION_CACHE_SIZE


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_bounded_noise_is_power_noise_of_exponent_zero(mode):
    amplitude = Fraction(3, 1000)
    bounded, power = BoundedNoise(11, amplitude), PowerNoise(11, amplitude, 0)
    # Two kinds in configs and reports, and unequal, yet one noise.
    assert bounded != power and power != bounded
    assert atom_to_json(bounded) == {"kind": "bounded_noise", "seed": 11,
                                     "amplitude": "3/1000"}
    assert atom_to_json(power) == {"kind": "power_noise", "seed": 11,
                                   "amplitude": "3/1000", "exponent": "0"}
    assert repr(bounded) == "BoundedNoise(seed=11, amplitude=Fraction(3, 1000))"
    models = [FuncModel(2, 3, (Linear(((1, 2),) * 3), atom))
              for atom in (bounded, power)]
    assert certify_phi(models[0]) == certify_phi(models[1]) \
        == Constant(76 * amplitude)
    for values in (["5/7", "-1/3"], ["2", "0"], [0.3, -1e-5]):
        x = point(values, mode)
        u, den = integer_ratio(x.coords)
        assert bounded.evaluate(u, 3, den) == power.evaluate(u, 3, den)
        assert models[0](x) == models[1](x)
        for odd in (True, False):
            orbits = [f.orbit(u, den, odd) for f in models]
            assert orbits[0][:2] == orbits[1][:2]
            ks = (-6, -1, 0, 1, 5, 40)
            assert orbits[0][2](ks) == orbits[1][2](ks)
            for k in ks:
                assert orbits[0][2]([k]) == orbits[1][2]([k])


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
    assert Constant(1).degree == 0
    assert SumOfPowers(1, Fraction(5, 2)).degree == Fraction(5, 2)
    assert ProductOfPowers(1, 1, 2).degree == 3


def test_control_function_variants_are_shapes_of_one_value():
    assert ProductOfPowers(3, 0, 0) == Constant(3)
    assert phi_to_json(ProductOfPowers(3, 0, 0)) \
        == {"variant": "constant", "value": "3"}
    assert phi_to_json(SumOfPowers(2, 0)) \
        == {"variant": "sum_of_powers", "theta": "2", "power": "0"}
    assert phi_value(SumOfPowers(2, 0), point([2]), point([3])) == 4.0
    with pytest.raises(ValueError):  # monomials of two diagonal degrees
        ControlFunction(1, ((1, 1), (2, 1)))
    with pytest.raises(ValueError):
        ControlFunction(1, ())
    with pytest.raises(ConfigError):  # one degree, but no JSON variant
        phi_to_json(ControlFunction(1, ((1, 1), (2, 0))))


def test_control_function_rejects_negative():
    with pytest.raises(ValueError):
        Constant(-1)
    with pytest.raises(ValueError):
        SumOfPowers(1, -1)
    with pytest.raises(ValueError):
        ProductOfPowers(-1, 0, 0)
