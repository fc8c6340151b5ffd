import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from addcubic import (ABS_COEFFICIENT_SUM, CHAIN_CATALOGUE, BoundedNoise,
                      DimensionMismatchError, Even,
                      PowerNoise, additive_residual, chain_replay,
                      cubic_residual, double_arg_residual, mixed_residual,
                      model_1d, cubic_1d, even_1d, linear_1d,
                      odd_part, point, random_cubic, random_linear,
                      random_point, random_rational, FuncModel)
from addcubic.harness import _tally_pairs
from addcubic.models import CubicHomogeneous, Linear, Point, evaluate
from addcubic.residuals import (ADDITIVE_RULE, CUBIC_RULE, MIXED_RULE,
                                ResidualVector, TermTables)
from addcubic.scalars import integer_ratio

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=8)


def scalar(residual):
    assert residual.value.dim == 1
    return residual.value.coords[0]


def linearity_residual(f, g, alpha, beta, x, y):
    """D(alpha f + beta g) - alpha D(f) - beta D(g), zero since D is linear
    in the function."""
    a, b = Fraction(alpha), Fraction(beta)
    combined = mixed_residual(lambda p: f(p).scale(a) + g(p).scale(b), x, y)
    return combined.value - mixed_residual(f, x, y).value.scale(a) \
        - mixed_residual(g, x, y).value.scale(b)


# ---------------------------------------------------------------------------
# Difference operator
# ---------------------------------------------------------------------------

def test_mixed_residual_zero_on_additive():
    f = model_1d(linear_1d(1))
    assert mixed_residual(f, point([1]), point([2])).is_zero
    # oracle confirms on the plain-callable path
    assert oracles.mixed(lambda t: t, Fraction(1), Fraction(2)) == 0


def test_mixed_residual_zero_on_cubic():
    f = model_1d(cubic_1d(1))
    assert mixed_residual(f, point([1]), point([2])).is_zero
    assert oracles.mixed(lambda t: t ** 3, Fraction(1), Fraction(2)) == 0


def test_mixed_residual_even_model_frozen_value():
    frozen = Fraction(-16)
    assert oracles.mixed(lambda t: t * t, Fraction(1), Fraction(1)) == frozen
    f = model_1d(even_1d(1))
    assert scalar(mixed_residual(f, point([1]), point([1]))) == frozen


def test_mixed_residual_magnitude_and_dim_check():
    f = model_1d(even_1d(1))
    r = mixed_residual(f, point([1]), point([1]))
    assert r.magnitude == 16.0
    with pytest.raises(DimensionMismatchError):
        mixed_residual(f, point([1, 2]), point([1, 2]))


def test_abs_coefficient_sum():
    assert ABS_COEFFICIENT_SUM == 76


# ---------------------------------------------------------------------------
# Additive and cubic rules
# ---------------------------------------------------------------------------

def test_additive_rule_examples():
    f = model_1d(linear_1d(5))
    assert additive_residual(f, point([1]), point([2])).is_zero
    assert additive_residual(f, point([-3]), point([7])).is_zero

    frozen = Fraction(48)  # 192 - 64 - 96 + 24 - 8
    assert oracles.additive_rule(lambda t: t ** 3, Fraction(1), Fraction(1)) == frozen
    cubic = model_1d(cubic_1d(1))
    assert scalar(additive_residual(cubic, point([1]), point([1]))) == frozen


def test_cubic_rule_examples():
    cubic = model_1d(cubic_1d(1))
    assert cubic_residual(cubic, point([1]), point([2])).is_zero  # 1029-125-312+48-640
    assert oracles.cubic_rule(lambda t: t ** 3, Fraction(1), Fraction(2)) == 0

    frozen = Fraction(-48)  # 12 - 4 - 24 + 48 - 80
    assert oracles.cubic_rule(lambda t: t, Fraction(1), Fraction(1)) == frozen
    lin = model_1d(linear_1d(1))
    assert scalar(cubic_residual(lin, point([1]), point([1]))) == frozen

    doubled = model_1d(cubic_1d(2))
    assert cubic_residual(doubled, point([-1]), point([3])).is_zero


def test_double_arg_examples():
    assert double_arg_residual(model_1d(linear_1d(1)), point([1])).is_zero
    assert double_arg_residual(model_1d(cubic_1d(1)), point([1])).is_zero
    frozen = Fraction(-8)  # 16 - 40 + 16
    assert oracles.double_arg(lambda t: t * t, Fraction(1)) == frozen
    assert scalar(double_arg_residual(model_1d(even_1d(1)), point([1]))) == frozen


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), rationals, rationals)
def test_solution_models_are_in_the_kernel(seed, xv, yv):
    rng = random.Random(seed)
    d = rng.randint(1, 3)
    m = rng.randint(1, 3)
    f = FuncModel(d, m, (random_linear(rng, d, m), random_cubic(rng, d, m)))
    x = random_point(rng, d)
    y = random_point(rng, d)
    assert mixed_residual(f, x, y).is_zero


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_pure_families_satisfy_their_rule(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 2)
    lin = FuncModel(d, d, (random_linear(rng, d, d),))
    cub = FuncModel(d, d, (random_cubic(rng, d, d),))
    x = random_point(rng, d)
    y = random_point(rng, d)
    assert additive_residual(lin, x, y).is_zero
    assert cubic_residual(cub, x, y).is_zero


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), rationals, rationals)
def test_linearity_residual_is_identically_zero(seed, alpha, beta):
    rng = random.Random(seed)
    f = model_1d(random_linear(rng, 1, 1), even_1d(rng.randint(-4, 4)))
    g = model_1d(random_cubic(rng, 1, 1))
    x = random_point(rng, 1)
    y = random_point(rng, 1)
    assert linearity_residual(f, g, alpha, beta, x, y).is_zero


def test_linearity_residual_examples():
    f = model_1d(linear_1d(1))
    g = model_1d(cubic_1d(1))
    x, y = point([1]), point([2])
    assert linearity_residual(f, g, 0, 0, x, y).is_zero
    assert linearity_residual(f, g, 2, -1, x, y).is_zero
    # two copies of the even model double the residual: -32 = 2 * (-16)
    sq = model_1d(even_1d(1))
    combined = mixed_residual(model_1d(even_1d(1), even_1d(1)),
                              point([1]), point([1]))
    assert scalar(combined) == Fraction(-32)
    assert linearity_residual(sq, sq, 1, 1, point([1]), point([1])).is_zero


def test_diagonal_collapse_matches_double_arg_for_odd_models():
    # D(f)(x, x) = 2 [f(4x) - 10 f(2x) + 16 f(x)] for odd f (f(0) = 0)
    rng = random.Random(31)
    for _ in range(25):
        f = model_1d(random_linear(rng, 1, 1), random_cubic(rng, 1, 1))
        fo = odd_part(f)
        x = random_point(rng, 1)
        lhs = mixed_residual(fo, x, x).value
        rhs = 2 * double_arg_residual(fo, x).value
        assert lhs.coords == rhs.coords


def test_residuals_accept_plain_callables():
    fo = odd_part(model_1d(even_1d(1), linear_1d(2)))
    assert mixed_residual(fo, point([1]), point([4])).is_zero


def test_float_mode_residuals_small_on_solutions():
    rng = random.Random(8)
    for _ in range(50):
        f = FuncModel(2, 2, (random_linear(rng, 2, 2), random_cubic(rng, 2, 2)))
        x = random_point(rng, 2, mode="float")
        y = random_point(rng, 2, mode="float")
        assert mixed_residual(f, x, y).is_zero
    x, y = point(["1/3", "2/7"], mode="float"), point(["-5/9", "0.1"],
                                                       mode="float")
    assert mixed_residual(f, x, y).is_zero


# ---------------------------------------------------------------------------
# Shared evaluation tables
# ---------------------------------------------------------------------------

RULES = (MIXED_RULE, ADDITIVE_RULE, CUBIC_RULE)
ALL_TABLES = RULES + tuple(ident.moved_terms for ident in CHAIN_CATALOGUE)


def _atom(kind, rng, d, m):
    if kind == "linear":
        return random_linear(rng, d, m)
    if kind == "cubic":
        return random_cubic(rng, d, m)
    if kind == "even":
        return Even(tuple(tuple(tuple(random_rational(rng, 9)
                                      for _ in range(d)) for _ in range(d))
                          for _ in range(m)))
    if kind == "bounded_noise":
        return BoundedNoise(rng.randint(0, 99), Fraction(1, 1000))
    return PowerNoise(rng.randint(0, 99), Fraction(1, 100),
                      Fraction(rng.choice((1, 2, 5)), rng.choice((1, 2))))


# A term table of its own: coefficients over mixed denominators, and
# arguments a x + b y with a = 0 or b = 0 among them.
term_tables = st.lists(st.tuples(
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=8).map(tuple)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sets(st.sampled_from(("linear", "cubic", "even",
                                           "bounded_noise", "power_noise")),
                          min_size=1), st.booleans())
def test_term_tables_match_term_by_term_oracle(data, kinds, plain):
    d = data.draw(st.integers(1, 3), label="dim_in")
    m = data.draw(st.integers(1, 3), label="dim_out")
    rng = random.Random(data.draw(st.integers(0, 10_000), label="seed"))
    f = FuncModel(d, m, tuple(_atom(kind, rng, d, m) for kind in sorted(kinds)))
    if plain:  # a plain callable is evaluated at every argument
        model, f = f, lambda p: model(p)
    coords = st.lists(rationals, min_size=d, max_size=d)
    x = point(data.draw(coords, label="x"))
    y = point(data.draw(coords, label="y"))
    tables_drawn = ALL_TABLES + (data.draw(term_tables, label="table"),)
    tables = TermTables(tables_drawn)

    exact = tables.residuals(f, x, y)
    at = lambda c: f(point(c)).coords  # noqa: E731
    for terms, vector in zip(tables_drawn, exact):
        assert vector.value.coords == oracles.lattice_sum(
            at, x.coords, y.coords, terms)

    # Float-mode points are the doubles, and the sums exact there.
    xf, yf = point(x.coords, mode="float"), point(y.coords, mode="float")
    floats = tables.residuals(f, xf, yf)
    for terms, vector in zip(tables_drawn, floats):
        assert vector.value.coords == oracles.lattice_sum(
            at, xf.coords, yf.coords, terms)


# Coefficients of sparse models: zeros are common, so an atom, an output or
# a degree may vanish (a cubic atom of coefficient 0 keeps no table).
sparse = st.sampled_from((0, 0, 0, 1, -2, Fraction(1, 3), Fraction(-5, 4)))


def _sparse_spec(data, kind, d, m):
    """A noise-free atom as an ``oracles.atom_sum`` spec (kind, data)."""
    draw = lambda: data.draw(sparse)  # noqa: E731
    if kind == "linear":
        return kind, [[draw() for _ in range(d)] for _ in range(m)]
    if kind == "even":
        return kind, [[[draw() for _ in range(d)] for _ in range(d)]
                      for _ in range(m)]
    monomials = [(i, j, k) for i in range(d) for j in range(i, d)
                 for k in range(j, d)]
    return kind, [[(mono, draw()) for mono in monomials] for _ in range(m)]


def _spec_atom(kind, data, d, m):
    if kind == "linear":
        return Linear(data)
    if kind == "even":
        return Even(data)
    return CubicHomogeneous(data, dims=(d, m))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.lists(st.sampled_from(("linear", "cubic", "even")),
                           min_size=1, max_size=3))
def test_only_live_tables_can_sum_to_nonzero(data, kinds):
    d = data.draw(st.integers(1, 3), label="dim_in")
    m = data.draw(st.integers(1, 3), label="dim_out")
    specs = [_sparse_spec(data, kind, d, m) for kind in kinds]
    f = FuncModel(d, m, tuple(_spec_atom(*spec, d, m) for spec in specs))
    coords = st.lists(rationals, min_size=d, max_size=d)
    x = point(data.draw(coords, label="x"))
    y = point(data.draw(coords, label="y"))
    tables = TermTables(ALL_TABLES)
    live = tables.live(f)
    at = lambda c: oracles.atom_sum(specs, c, m)  # noqa: E731

    sums = tables.integer_sums(f, x, y)
    for index, (terms, (nums, den)) in enumerate(zip(ALL_TABLES, sums)):
        expected = list(oracles.lattice_sum(at, x.coords, y.coords, terms))
        assert [Fraction(n, den) for n in nums] == expected
        if index not in live:
            assert not any(expected)

    # With a noise atom or as a plain callable, every table is named.
    every = tuple(range(len(ALL_TABLES)))
    noisy = FuncModel(d, m, f.atoms + (BoundedNoise(3, Fraction(1, 1000)),))
    assert tables.live(noisy) == every
    assert tables.live(lambda p: f(p)) == every


def test_each_argument_is_evaluated_once_per_pair():
    model = model_1d(linear_1d(2), cubic_1d(1), even_1d(1))
    calls = []

    def counted(p):
        calls.append(p.coords)
        return model(p)

    x, y = point(["1/3"]), point(["-5/2"])
    replay = chain_replay(counted, x, y)
    assert len(calls) == 18 == len(set(calls))
    assert replay == chain_replay(model, x, y)
    calls.clear()
    vectors = TermTables(RULES).residuals(counted, x, y)
    assert len(calls) == 8 == len(set(calls))
    assert [v.value for v in vectors] == [
        mixed_residual(model, x, y).value, additive_residual(model, x, y).value,
        cubic_residual(model, x, y).value]


# ---------------------------------------------------------------------------
# Integer evaluation entry
# ---------------------------------------------------------------------------

def _exact_rows(f, x, y, tables):
    rows = [{"max_abs": 0.0, "nonzero_count": 0} for _ in ALL_TABLES]
    _tally_pairs(f, [(x, y)], tables, rows)
    return rows


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sets(st.sampled_from(("linear", "cubic", "even",
                                           "bounded_noise", "power_noise")),
                          min_size=1))
def test_integer_entry_matches_fraction_entry(data, kinds):
    d = data.draw(st.integers(1, 3), label="dim_in")
    m = data.draw(st.integers(1, 3), label="dim_out")
    rng = random.Random(data.draw(st.integers(0, 10_000), label="seed"))
    f = FuncModel(d, m, tuple(_atom(kind, rng, d, m) for kind in sorted(kinds)))
    norm_kind = data.draw(st.sampled_from(("euclidean", "max")), label="norm")
    coords = st.lists(rationals, min_size=d, max_size=d)
    x = point(data.draw(coords, label="x"), norm_kind=norm_kind)
    y = point(data.draw(coords, label="y"), norm_kind=norm_kind)

    # Unreduced integers: x = (u g) / (L g).
    den = math.lcm(*(c.denominator for c in x.coords)) \
        * data.draw(st.integers(1, 12), label="unreduced")
    nums, out_den = f.evaluate_coords(tuple(int(c * den) for c in x.coords),
                                      den=den)
    assert [Fraction(n, out_den) for n in nums] == f.evaluate_coords(x.coords)

    # The tally's integer totals against the Fraction path, bit for bit.
    tables = TermTables(ALL_TABLES)
    at = lambda c: f(point(c)).coords  # noqa: E731
    expected = [ResidualVector(Point(oracles.lattice_sum(
        at, x.coords, y.coords, terms), norm_kind)) for terms in ALL_TABLES]
    rows = _exact_rows(f, x, y, tables)
    assert [row["max_abs"].hex() for row in rows] \
        == [vector.magnitude.hex() for vector in expected]
    assert [row["nonzero_count"] for row in rows] \
        == [int(not vector.is_zero) for vector in expected]
    # A plain callable returns reduced Fractions, whose denominators differ.
    assert _exact_rows(lambda p: f(p), x, y, tables) == rows


def test_plain_callable_values_take_the_lcm_branch():
    f = model_1d(linear_1d(1), cubic_1d(1))
    g = lambda p: f(p)  # noqa: E731
    x, y = point(["1/2"]), point(["1/3"])
    tables = TermTables(ALL_TABLES)
    (u, v), den = integer_ratio(x.coords + y.coords)
    assert len({evaluate(g, (a * u + b * v,), "euclidean", den)[1]
                for a, b in tables.arguments}) > 1
    assert [[Fraction(n, den) for n in nums]
            for nums, den in tables.integer_sums(g, x, y)] \
        == [[Fraction(n, den) for n in nums]
            for nums, den in tables.integer_sums(f, x, y)]
    assert _exact_rows(g, x, y, tables) == _exact_rows(f, x, y, tables)


def test_exact_tally_counts_a_residual_nonzero_in_any_coordinate():
    # Output 0 is additive, output 1 even: the additive rule's residual is
    # zero in its first coordinate only.
    f = FuncModel(1, 2, (Linear(((1,), (0,))), Even((((0,),), ((1,),)))))
    x, y = point(["1/2"], norm_kind="max"), point(["-3"], norm_kind="max")
    vector = additive_residual(f, x, y)
    assert vector.value.coords[0] == 0 and not vector.is_zero
    row = _exact_rows(f, x, y, TermTables(ALL_TABLES))[1]
    assert row == {"max_abs": vector.magnitude, "nonzero_count": 1}
