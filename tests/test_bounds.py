import decimal
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from addcubic import (BoundedNoise, CertificationError, Constant,
                      ControlFunction, ExcludedExponentError, PowerNoise,
                      ProductOfPowers, SumOfPowers, auto_directions,
                      certify_phi, corollary_bound, cubic_1d, even_1d,
                      excluded, form_check, linear_1d, mixed_residual,
                      model_1d, phi_value, point, random_point, series_bound)
from addcubic.bounds import CONVERGED, DIVERGED, certified_depth

X1 = point([1], mode="float")


# ---------------------------------------------------------------------------
# Series values against exact brute-force sums
# ---------------------------------------------------------------------------

def test_additive_constant_series_value():
    # (1/2) sum_{i>=1} 2^-i c = c/2; brute 80 exact terms agree to 2^-80
    c = Fraction(3, 4)
    brute = oracles.series_sum(2, lambda s: c, -1, 80)
    assert abs(brute - c / 2) < Fraction(1, 2) ** 60
    result = series_bound("additive", Constant(c), X1, -1)
    assert result.status == CONVERGED
    assert result.upper == pytest.approx(float(c) / 2, rel=1e-12)


def test_cubic_constant_series_value():
    c = Fraction(1)
    brute = oracles.series_sum(8, lambda s: c, -1, 40)
    assert abs(brute - Fraction(1, 14)) < Fraction(1, 8) ** 30
    result = series_bound("cubic", Constant(c), X1, -1)
    assert result.upper == pytest.approx(1 / 14, rel=1e-12)


def test_combined_constant_series_value():
    result = series_bound("combined", Constant(1), X1, -1)
    assert result.upper == pytest.approx(2 / 21, rel=1e-12)


def test_combined_power_series_per_component_directions():
    # additive part theta/(2^2-2) = 1/2, cubic part theta/(8-2^2) = 1/4,
    # combined (1/2 + 1/4)/6 = 1/8
    phi = SumOfPowers(1, 2)
    result = series_bound("combined", phi, X1, (1, -1))
    assert result.status == CONVERGED
    assert result.upper == pytest.approx(0.125, rel=1e-9)
    brute_add = oracles.series_sum(2, oracles.power_diag(1, 2, 1), 1, 120)
    brute_cub = oracles.series_sum(8, oracles.power_diag(1, 2, 1), -1, 120)
    assert float((brute_add + brute_cub) / 6) == pytest.approx(0.125, rel=1e-9)


def test_series_scales_with_argument_norm():
    phi = SumOfPowers(1, 2)
    x = point([3], mode="float")
    result = series_bound("combined", phi, x, (1, -1))
    assert result.upper == pytest.approx(0.125 * 9.0, rel=1e-9)


def test_series_zero_control_converges_for_both_directions():
    for l in (-1, 1):
        result = series_bound("additive", Constant(0), X1, l)
        assert result.status == CONVERGED
        assert result.upper == 0.0
    result = series_bound("combined", SumOfPowers(1, 2),
                          point([0], mode="float"), (1, -1))
    assert result.status == CONVERGED and result.upper == 0.0


def test_enclosure_brackets_closed_form():
    phi = SumOfPowers(1, Fraction(1, 2))
    result = series_bound("additive", phi, X1, -1)
    exact = oracles.series_closed_form(2, ("sum", 1, Fraction(1, 2)), [1],
                                       "euclidean", -1)
    assert result.partial_sum <= exact <= result.upper
    assert float(exact) == pytest.approx(1.0 / (2.0 - 2.0 ** 0.5), rel=1e-12)
    assert result.terms_used == 1


# Control functions as the package builds them and as the oracle reads them.
PHI_FAMILIES = {
    "constant": lambda c, p: (Constant(c), ("constant", c)),
    "sum": lambda c, p: (SumOfPowers(c, p), ("sum", c, p)),
    "product": lambda c, p: (ProductOfPowers(c, p / 3, 2 * p / 3),
                             ("product", c, p / 3, 2 * p / 3)),
}


COMPONENT_WEIGHT = {"additive": 2, "cubic": 8}


def _exact_series(kind, phi, coords, norm_kind, l):
    """The oracle's value of series_bound."""
    l_add, l_cub = (l, l) if isinstance(l, int) else l
    if kind != "combined":
        return oracles.series_closed_form(COMPONENT_WEIGHT[kind], phi, coords,
                                          norm_kind, l)
    parts = [oracles.series_closed_form(w, phi, coords, norm_kind, d)
             for w, d in ((2, l_add), (8, l_cub))]
    return math.inf if math.inf in parts else (parts[0] + parts[1]) / 6


def _assert_encloses(result, exact):
    if exact == math.inf:
        assert result.status == DIVERGED
        assert result.tail_bound == math.inf
    else:
        assert result.status == CONVERGED
        assert result.partial_sum <= exact <= result.upper


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_enclosure_holds_the_exact_closed_form(data):
    # Every family, both norms, dims 1-3 and both directions (per component
    # in a combined series).
    family = data.draw(st.sampled_from(sorted(PHI_FAMILIES)))
    degree = data.draw(st.sampled_from(
        [Fraction(a, b) for b in (1, 2, 3, 7) for a in range(7 * b + 1)]))
    theta = Fraction(data.draw(st.integers(0, 2 ** 20)),
                     data.draw(st.integers(1, 2 ** 20)))
    phi, oracle_phi = PHI_FAMILIES[family](theta, degree)
    norm_kind = data.draw(st.sampled_from(("euclidean", "max")))
    dim = data.draw(st.integers(1, 3))
    coords = [Fraction(data.draw(st.integers(-2 ** 20, 2 ** 20)),
                       data.draw(st.integers(1, 2 ** 20))) for _ in range(dim)]
    mode = data.draw(st.sampled_from(("exact", "float")))
    x = point(coords, mode=mode, norm_kind=norm_kind)
    coords = [Fraction(c) for c in x.coords]  # the floats, read exactly
    kind = data.draw(st.sampled_from(("additive", "cubic", "combined")))
    l = data.draw(st.sampled_from((-1, 1)) if kind != "combined" else
                  st.sampled_from((-1, 1, (-1, 1), (1, -1))))
    result = series_bound(kind, phi, x, l)
    exact = _exact_series(kind, oracle_phi, coords, norm_kind, l)
    _assert_encloses(result, exact)


def test_seeded_combined_series_never_below_the_exact_value():
    # Max norm, p in {0, 2, 4, 5, 6}, 20-bit rational theta and x in one or
    # two dimensions: the upper bound rounded to nearest fell below the
    # exact closed form in 2 395 of these 4 000 cases.
    rng = random.Random(23)
    for _ in range(4000):
        p = rng.choice((0, 2, 4, 5, 6))
        theta = Fraction(rng.randint(1, 2 ** 20), rng.randint(1, 2 ** 20))
        coords = [Fraction(rng.randint(-2 ** 20, 2 ** 20),
                           rng.randint(1, 2 ** 20))
                  for _ in range(rng.randint(1, 2))]
        phi = SumOfPowers(theta, p)
        directions = auto_directions(phi)
        result = series_bound("combined", phi, point(coords, norm_kind="max"),
                              directions)
        exact = _exact_series("combined", ("sum", theta, p), coords, "max",
                              directions)
        assert isinstance(exact, Fraction)
        _assert_encloses(result, exact)


# ---------------------------------------------------------------------------
# Divergence behavior
# ---------------------------------------------------------------------------

def test_divergence_at_excluded_exponents():
    for l in (-1, 1):
        assert series_bound("additive", SumOfPowers(1, 1), X1, l).status \
            == DIVERGED
        assert series_bound("cubic", SumOfPowers(1, 3), X1, l).status \
            == DIVERGED
        assert series_bound("combined", SumOfPowers(1, 1), X1, l).status \
            == DIVERGED
        assert series_bound("combined", SumOfPowers(1, 3), X1, l).status \
            == DIVERGED


def test_additive_series_converges_at_cubic_exclusion():
    # p = 3 only kills the cubic component
    result = series_bound("additive", SumOfPowers(1, 3), X1, 1)
    assert result.status == CONVERGED
    assert result.upper == pytest.approx(1.0 / 6.0, rel=1e-9)


def test_constant_control_diverges_for_growing_direction():
    assert series_bound("additive", Constant(1), X1, 1).status == DIVERGED


def test_near_excluded_exponents_certified_finite():
    # 1 - rho = 1 - 2^-1e-6 is taken without cancellation: the enclosure
    # holds the exact value 721347.77044..., which a float 1/|2^p - 2|
    # misses by about 1e-10.
    for p, l in ((Fraction(999999, 1000000), -1), (Fraction(1000001, 1000000), 1)):
        result = series_bound("additive", SumOfPowers(1, p), X1, l)
        assert result.status == CONVERGED
        exact = oracles.series_closed_form(2, ("sum", 1, p), [1], "max", l)
        assert result.partial_sum <= exact <= result.upper
        assert result.upper <= exact * (1 + decimal.Decimal(1e-9))


def test_diverged_tail_is_infinite_not_huge():
    result = series_bound("additive", SumOfPowers(1, 1), X1, -1)
    assert math.isinf(result.tail_bound)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def _sum_bound(theta, p, x):
    return corollary_bound(SumOfPowers(theta, p), x)


def _product_bound(theta, r, s, x):
    return corollary_bound(ProductOfPowers(theta, r, s), x)


def test_corollary_bound_sum_form_values():
    assert _sum_bound(1, 0, X1) == pytest.approx(4 / 21, rel=1e-12)
    assert _sum_bound(1, 2, X1) == pytest.approx(1 / 8, rel=1e-12)
    assert _sum_bound(1, 4, X1) == pytest.approx(11 / 336, rel=1e-12)
    assert _sum_bound(2, 2, point([2], mode="float")) \
        == pytest.approx(2 / 8 * 4, rel=1e-12)


def test_corollary_bound_product_form_values():
    assert _product_bound(1, 1, 1, X1) == pytest.approx(1 / 16, rel=1e-12)
    assert _product_bound(1, 0, 0, X1) == pytest.approx(2 / 21, rel=1e-12)
    assert _product_bound(0, 2, 2, X1) == 0.0


def test_corollary_bounds_finite_beyond_float_power_range():
    # 2.0 ** p overflows from p = 1024 on; the factor is then formed as
    # 2^-p (1/(1 - 2^(1-p)) + 1/(1 - 2^(3-p))).
    for p in (1024, 1e6):
        for value in (_sum_bound(1, p, X1),
                      _product_bound(1, p, 0, X1),
                      _product_bound(1, p / 2, p / 2, X1)):
            assert math.isfinite(value) and value >= 0
    assert _sum_bound(6, 1024, X1) == 2.0 ** -1023
    below = _sum_bound(6, 1023, X1)
    assert below == 1 / (2.0 ** 1023 - 2) + 1 / (2.0 ** 1023 - 8)


def test_corollary_bounds_finite_where_norm_power_overflows():
    # ||x||^p leaves the float range, the bound (||x||/2)^p (...) does not.
    # There (||x||/2)^p = 1 and the bracket is 2, so the values are exact.
    two = point([2.0], mode="float")
    assert _sum_bound(1, 1024, two) == 1 / 6 * 2.0 == 1 / 3
    assert _product_bound(1, 600, 600, two) == 1 / 12 * 2.0
    # (||x||/2)^p = 2^1200 overflows too, but theta keeps the value finite.
    value = _sum_bound(1e-300, 2000, point([2.0 ** 1.6], mode="float"))
    assert value == pytest.approx(
        math.exp(math.log(1e-300 / 3) + 1200 * math.log(2)), rel=1e-9)
    assert _sum_bound(0, 2000, point([4.0], mode="float")) == 0.0
    assert _sum_bound(1, 1e6, point([3.0], mode="float")) == math.inf
    # Where nothing overflows the value is the plain product, as before.
    for p in (0, 0.5, 2, 5, 1023):
        power = 2.0 ** p
        assert _sum_bound(3, p, two) == 3 / 6.0 * (
            1.0 / abs(power - 2.0) + 1.0 / abs(power - 8.0)) * 2.0 ** p


def test_corollary_rejects_excluded_exponents():
    with pytest.raises(ExcludedExponentError):
        _sum_bound(1, 1, X1)
    with pytest.raises(ExcludedExponentError):
        _sum_bound(1, 3, X1)
    with pytest.raises(ExcludedExponentError):
        _product_bound(1, 1, 2, X1)
    with pytest.raises(ValueError):
        _sum_bound(-1, 2, X1)


def test_excluded_reads_the_degree_and_the_float_exponent():
    # r + s is not 1, but float(r) + float(s) is: the closed form would
    # divide by zero.
    r, s = (Fraction(n, 2 ** 80) for n in (377789318629571784867839,
                                            831136500985057624719359))
    assert r + s != 1 and float(r) + float(s) == 1
    assert excluded(ProductOfPowers(1, r, s))
    assert excluded(SumOfPowers(0, 3)) and excluded(ProductOfPowers(1, 1, 0))
    assert not any(excluded(phi) for phi in (
        Constant(1), SumOfPowers(1, 2), ProductOfPowers(1, Fraction(1, 2), 2)))


def test_auto_directions():
    assert auto_directions(Constant(1)) == (-1, -1)
    assert auto_directions(SumOfPowers(1, 0)) == (-1, -1)
    assert auto_directions(SumOfPowers(1, 2)) == (1, -1)
    assert auto_directions(SumOfPowers(1, 4)) == (1, 1)
    assert auto_directions(ProductOfPowers(1, 2, 3)) == (1, 1)


# ---------------------------------------------------------------------------
# Envelope certification
# ---------------------------------------------------------------------------

def test_certify_exact_solution_is_zero():
    phi = certify_phi(model_1d(linear_1d(2), cubic_1d(1)))
    assert phi == Constant(0)


def test_certify_bounded_noise():
    phi = certify_phi(model_1d(linear_1d(2), BoundedNoise(7, Fraction(1, 1000))))
    assert phi == Constant(Fraction(76, 1000))


def test_certify_power_noise():
    phi = certify_phi(model_1d(PowerNoise(7, Fraction(1, 100), Fraction(2))))
    assert phi == SumOfPowers(Fraction(76 * 16, 100), 2)


def test_certify_sums_amplitudes_and_folds_zero_exponent():
    phi = certify_phi(model_1d(BoundedNoise(1, Fraction(1, 10)),
                               PowerNoise(2, Fraction(1, 5), Fraction(0))))
    assert phi == Constant(76 * Fraction(3, 10))


def test_certify_rejections():
    with pytest.raises(CertificationError):
        certify_phi(model_1d(even_1d(1)))
    with pytest.raises(CertificationError):
        certify_phi(model_1d(BoundedNoise(1, Fraction(1, 10)),
                             PowerNoise(2, Fraction(1, 5), Fraction(2))))
    with pytest.raises(CertificationError):
        certify_phi(model_1d(PowerNoise(1, Fraction(1, 5), Fraction(1)),
                             PowerNoise(2, Fraction(1, 5), Fraction(2))))


def test_certify_fails_fast_only_where_theta_overflows_anyway():
    # The power is never formed where theta leaves the float range: at
    # p = 10^10 it would take 2.5 GB (10^7 keeps a regression cheap here).
    with pytest.raises(OverflowError):
        certify_phi(model_1d(PowerNoise(1, Fraction(1, 1000), 10 ** 7)))
    for eps in (Fraction(1, 1000), Fraction(3, 2 ** 900), Fraction(7)):
        for p in range(1, 1000, 7):
            exact = 76 * Fraction(4) ** p * eps
            try:
                phi = certify_phi(model_1d(PowerNoise(1, eps, p)))
            except OverflowError:
                with pytest.raises(OverflowError):
                    float(exact)
            else:
                assert phi.theta == exact


def test_certify_rounds_theta_up_at_fractional_exponents():
    # theta >= 76 eps 4^(a/b) in rationals: theta^b >= (76 eps)^b 4^a, for
    # all 367 non-integer a/b with 2 <= b <= 11 and a < 60.
    exponents = {Fraction(a, b) for b in range(2, 12) for a in range(60)}
    exponents = sorted(p for p in exponents if p.denominator != 1)
    assert len(exponents) == 367
    for eps in (Fraction(1), Fraction(1, 1000)):
        for p in exponents:
            theta = certify_phi(model_1d(PowerNoise(1, eps, p))).theta
            assert theta ** p.denominator \
                >= (76 * eps) ** p.denominator * 4 ** p.numerator, (eps, p)


def test_certified_envelope_is_sound_by_sampling():
    rng = random.Random(99)
    cases = [
        model_1d(linear_1d(2), cubic_1d(1), BoundedNoise(5, Fraction(1, 1000))),
        model_1d(linear_1d(1), PowerNoise(6, Fraction(1, 500), Fraction(2))),
    ]
    for f in cases:
        phi = certify_phi(f)
        worst = 0.0
        for _ in range(10_000):
            x = random_point(rng, 1, mode="float")
            y = random_point(rng, 1, mode="float")
            bound = phi_value(phi, x, y)
            value = mixed_residual(f, x, y).magnitude
            if bound > 0:
                worst = max(worst, value / bound)
            else:
                assert value == 0.0
        assert worst <= 1.0


# ---------------------------------------------------------------------------
# Uniqueness tails and consistency reports
# ---------------------------------------------------------------------------

def _tail(component, phi, coords, norm_kind, l, n):
    """The oracle's uniqueness tail: the series' terms from i0 + n on,
    unhalved."""
    return oracles.series_closed_form(COMPONENT_WEIGHT[component], phi,
                                      coords, norm_kind, l, 1, n)


def test_uniqueness_tail_constant_closed_form():
    # sum_{i=21}^inf 2^-i c = c * 2^-20, and the cubic tail c 8^-20 / 7:
    # the oracle's closed form, its brute sum, and 2 rho^20 times the
    # package's series, rho = 1/2 and 1/8.
    c = Fraction(76, 1000)
    additive = _tail("additive", ("constant", c), [1], "max", -1, 20)
    assert additive == c / 2 ** 20
    brute = oracles.series_sum(2, lambda s: c, -1, 120, prefactor=Fraction(1),
                               start_offset=20)
    assert abs(brute - additive) < additive * Fraction(1, 2 ** 100)
    cubic = _tail("cubic", ("constant", c), [1], "max", -1, 20)
    assert cubic == c / 7 / 8 ** 20
    for component, tail, rho in (("additive", additive, Fraction(1, 2)),
                                 ("cubic", cubic, Fraction(1, 8))):
        series = series_bound(component, Constant(c), X1, -1)
        assert series.partial_sum <= tail / (2 * rho ** 20) <= series.upper


# (additive, cubic) depths of the sweep exponents.
SWEEP_DEPTHS = {Fraction(0): (21, 7), Fraction(1, 2): (42, 9),
                Fraction(2): (21, 21), Fraction(5, 2): (14, 42),
                Fraction(4): (7, 21), Fraction(5): (6, 11)}


@pytest.mark.parametrize("p", sorted(SWEEP_DEPTHS))
def test_certified_depth_is_where_the_tail_falls_below_2_to_minus_20(p):
    # At the depth the oracle's uniqueness tail is at most 2^-20 of its
    # series and one step earlier it is above, for every control family
    # of diagonal degree p, in the direction auto_directions picks.  Where
    # 21 / |w - p| is an integer the two are equal at the depth; the ratio
    # of 60-digit Decimals, rounded to a float, is then 2^-20 exactly.
    x = point(["5/3"], mode="float")
    coords = [Fraction(x.coords[0])]
    families = ["sum", "product"] + ["constant"] * (p == 0)
    for phi, oracle_phi in (PHI_FAMILIES[family](Fraction(3, 7), p)
                            for family in families):
        depths = []
        for component, l, w in zip(("additive", "cubic"),
                                   auto_directions(phi), (1, 3)):
            depth = certified_depth(component, phi, l)
            assert depth == oracles.certified_depth(w, p, l)
            series = _exact_series(component, oracle_phi, coords, "max", l)
            at, before = [_tail(component, oracle_phi, coords, "max", l, n)
                          for n in (depth, depth - 1)]
            assert float(at / series) <= 2.0 ** -20 < float(before / series)
            # no tail where the series does not shrink
            assert certified_depth(component, phi, -l) is None
            assert oracles.certified_depth(w, p, -l) is None
            depths.append(depth)
        assert tuple(depths) == SWEEP_DEPTHS[p], phi
    # A phi that vanishes on the diagonal gets the same depths.
    zero = SumOfPowers(0, p)
    assert tuple(certified_depth(c, zero, l) for c, l in zip(
        ("additive", "cubic"), auto_directions(zero))) == SWEEP_DEPTHS[p]


def _both_forms(theta, p, x, tol):
    """The sum form at p and the product form at r = s = p/2."""
    return (form_check(SumOfPowers(theta, p), x, tol),
            form_check(ProductOfPowers(theta, Fraction(p) / 2,
                                       Fraction(p) / 2), x, tol))


def test_consistency_check_matches_closed_forms():
    for p in (0, Fraction(1, 2), 2, Fraction(5, 2), 4, 5):
        for check in _both_forms(1, p, X1, 1e-9):
            assert check.ok, (p, check)


@pytest.mark.parametrize("x", [1000, 12345])
@pytest.mark.parametrize("p", [2, 5, 6])
def test_consistency_check_tolerance_is_relative_above_one(x, p):
    # At x = 1000 and p = 5 the bound is 1.25e13, where one ulp is about
    # 0.002, so an absolute 1e-9 failed correct code; the rule is
    # |series - closed| <= tol * max(1, |closed|).
    for check in _both_forms(1, p, point([x], mode="float"), 1e-9):
        assert check.ok, check
        assert check.closed > 1e4


@pytest.mark.parametrize("x", [1, 1000, 12345])
@pytest.mark.parametrize("form", ["sum", "product"])
def test_consistency_check_fails_a_closed_form_off_by_a_millionth(
        monkeypatch, x, form):
    # A closed form off by a relative 1e-6 is a thousand times the
    # tolerance, at a bound below 1 and above it.  It is off for one phi
    # shape only, two monomials (sum) or one (product), and each check
    # reads only the closed form of its own phi.
    from addcubic import bounds
    exact, shape = bounds.corollary_bound, {"sum": 2, "product": 1}[form]
    monkeypatch.setattr(bounds, "corollary_bound", lambda phi, at: exact(
        phi, at) * (1 + 1e-6 if len(phi.monomials) == shape else 1))
    checks = _both_forms(1, 2, point([x], mode="float"), 1e-9)
    assert tuple(check.ok for check in checks) \
        == ((False, True) if form == "sum" else (True, False))


def _mixed(theta, p):
    """theta (||x||^p ||y||^p + ||x||^2p + ||y||^2p), the mixed product-sum
    of Ravi, Arunkumar and Rassias (Int. J. Math. Stat. 3, 2008)."""
    return ControlFunction(theta, ((p, p), (2 * p, 0), (0, 2 * p)))


@pytest.mark.parametrize("coords", [["1"], ["13/5", "1/9"]])
@pytest.mark.parametrize("p", [Fraction(n, 4) for n in (0, 1, 3, 4, 5, 8)])
def test_mixed_product_sum_corollary(p, coords):
    # Its diagonal is 3 theta ||x||^2p, so the one closed form reads it as
    # it reads a product theta' ||x||^p ||y||^p with theta' = 3 theta.
    theta = Fraction(5, 3)
    phi = _mixed(theta, p)
    check = form_check(phi, point(coords), 1e-9)
    assert check.ok, check
    exact = _exact_series("combined", ("product", 3 * theta, p, p),
                          [Fraction(c) for c in coords], "euclidean",
                          auto_directions(phi))
    assert check.closed == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 2)])
def test_mixed_product_sum_excluded_exponents(p):
    # diagonal degree 2p = 1 or 3
    assert excluded(_mixed(1, p))
    with pytest.raises(ExcludedExponentError):
        form_check(_mixed(1, p), X1)


def test_first_term_overflows_only_where_the_bound_does():
    # theta (||x||^2 + ||y||^2), theta = 1e308: at x = 1 the cubic series'
    # first term, 2^-4 theta (1 + 1), is 1.25e307, though theta (1 + 1) is
    # not a float; at x = 10 the true bound, 1.25e309, is not one either.
    phi = SumOfPowers(Fraction(10) ** 308, 2)
    check = form_check(phi, X1)
    assert check.ok and check.series == pytest.approx(1.25e307, rel=1e-12)
    beyond = series_bound("combined", phi, point([10]), auto_directions(phi))
    assert beyond.status == CONVERGED and beyond.upper == math.inf


def test_consistency_check_flags_nothing_at_tol_zero():
    # upper is rounded outward from the closed form: tol 0 fails, not raises
    for check in _both_forms(1, 2, X1, 0.0):
        assert isinstance(check.ok, bool)
