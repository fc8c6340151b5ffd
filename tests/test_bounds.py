import math
import random
from fractions import Fraction

import pytest

import oracles
from addcubic import (BoundedNoise, CertificationError, Constant,
                      ExcludedExponentError, PowerNoise, ProductOfPowers,
                      SumOfPowers, auto_directions, certify_phi,
                      consistency_check, corollary_product_bound,
                      corollary_sum_bound, cubic_1d, even_1d, linear_1d,
                      mixed_residual, model_1d, phi_value, point,
                      random_point, series_bound, uniqueness_tail)
from addcubic.bounds import (CONVERGED, DIVERGED, INCONCLUSIVE,
                             certified_depth)

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


def test_enclosure_brackets_brute_sum():
    phi = SumOfPowers(1, Fraction(1, 2))
    result = series_bound("additive", phi, X1, -1, tol=1e-6)
    closed = 1.0 / (2.0 - 2.0 ** 0.5)
    assert result.partial_sum <= closed <= result.upper * (1 + 1e-12)


def test_partial_sums_nondecreasing():
    phi = SumOfPowers(1, Fraction(1, 2))
    previous = 0.0
    for tol in (1e-2, 1e-4, 1e-8, 1e-12):
        result = series_bound("additive", phi, X1, -1, tol=tol)
        assert result.partial_sum >= previous
        previous = result.partial_sum


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
    for p, l in ((Fraction(999999, 1000000), -1), (Fraction(1000001, 1000000), 1)):
        result = series_bound("additive", SumOfPowers(1, p), X1, l)
        assert result.status == INCONCLUSIVE
        assert math.isfinite(result.upper)
        closed = 1.0 / abs(2.0 ** float(p) - 2.0)
        assert result.partial_sum <= closed <= result.upper * (1 + 1e-9)


def test_diverged_tail_is_infinite_not_huge():
    result = series_bound("additive", SumOfPowers(1, 1), X1, -1)
    assert math.isinf(result.tail_bound)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def test_corollary_sum_bound_values():
    assert corollary_sum_bound(1, 0, X1) == pytest.approx(4 / 21, rel=1e-12)
    assert corollary_sum_bound(1, 2, X1) == pytest.approx(1 / 8, rel=1e-12)
    assert corollary_sum_bound(1, 4, X1) == pytest.approx(11 / 336, rel=1e-12)
    assert corollary_sum_bound(2, 2, point([2], mode="float")) \
        == pytest.approx(2 / 8 * 4, rel=1e-12)


def test_corollary_product_bound_values():
    assert corollary_product_bound(1, 1, 1, X1) == pytest.approx(1 / 16, rel=1e-12)
    assert corollary_product_bound(1, 0, 0, X1) == pytest.approx(2 / 21, rel=1e-12)
    assert corollary_product_bound(0, 2, 2, X1) == 0.0


def test_corollary_bounds_finite_beyond_float_power_range():
    # 2.0 ** p overflows from p = 1024 on; the factor is then formed as
    # 2^-p (1/(1 - 2^(1-p)) + 1/(1 - 2^(3-p))).
    for p in (1024, 1e6):
        for value in (corollary_sum_bound(1, p, X1),
                      corollary_product_bound(1, p, 0, X1),
                      corollary_product_bound(1, p / 2, p / 2, X1)):
            assert math.isfinite(value) and value >= 0
    assert corollary_sum_bound(6, 1024, X1) == 2.0 ** -1023
    below = corollary_sum_bound(6, 1023, X1)
    assert below == 1 / (2.0 ** 1023 - 2) + 1 / (2.0 ** 1023 - 8)


def test_corollary_bounds_finite_where_norm_power_overflows():
    # ||x||^p leaves the float range, the bound (||x||/2)^p (...) does not.
    # There (||x||/2)^p = 1 and the bracket is 2, so the values are exact.
    two = point([2.0], mode="float")
    assert corollary_sum_bound(1, 1024, two) == 1 / 6 * 2.0 == 1 / 3
    assert corollary_product_bound(1, 600, 600, two) == 1 / 12 * 2.0
    # (||x||/2)^p = 2^1200 overflows too, but theta keeps the value finite.
    value = corollary_sum_bound(1e-300, 2000, point([2.0 ** 1.6], mode="float"))
    assert value == pytest.approx(
        math.exp(math.log(1e-300 / 3) + 1200 * math.log(2)), rel=1e-9)
    assert corollary_sum_bound(0, 2000, point([4.0], mode="float")) == 0.0
    assert corollary_sum_bound(1, 1e6, point([3.0], mode="float")) == math.inf
    # Where nothing overflows the value is the plain product, as before.
    for p in (0, 0.5, 2, 5, 1023):
        power = 2.0 ** p
        assert corollary_sum_bound(3, p, two) == 3 / 6.0 * (
            1.0 / abs(power - 2.0) + 1.0 / abs(power - 8.0)) * 2.0 ** p


def test_corollary_rejects_excluded_exponents():
    with pytest.raises(ExcludedExponentError):
        corollary_sum_bound(1, 1, X1)
    with pytest.raises(ExcludedExponentError):
        corollary_sum_bound(1, 3, X1)
    with pytest.raises(ExcludedExponentError):
        corollary_product_bound(1, 1, 2, X1)
    with pytest.raises(ValueError):
        corollary_sum_bound(-1, 2, X1)


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
    assert isinstance(phi, Constant) and phi.value == 0


def test_certify_bounded_noise():
    phi = certify_phi(model_1d(linear_1d(2), BoundedNoise(7, Fraction(1, 1000))))
    assert isinstance(phi, Constant)
    assert phi.value == Fraction(76, 1000)


def test_certify_power_noise():
    phi = certify_phi(model_1d(PowerNoise(7, Fraction(1, 100), Fraction(2))))
    assert isinstance(phi, SumOfPowers)
    assert phi.power == 2
    assert phi.theta == Fraction(76 * 16, 100)


def test_certify_sums_amplitudes_and_folds_zero_exponent():
    phi = certify_phi(model_1d(BoundedNoise(1, Fraction(1, 10)),
                               PowerNoise(2, Fraction(1, 5), Fraction(0))))
    assert isinstance(phi, Constant)
    assert phi.value == 76 * Fraction(3, 10)


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
            x = random_point(rng, 1).to_mode("float")
            y = random_point(rng, 1).to_mode("float")
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

def test_uniqueness_tail_constant_closed_form():
    # sum_{i=21}^inf 2^-i c = c * 2^-20
    c = Fraction(76, 1000)
    result = uniqueness_tail("additive", Constant(c), X1, -1, 20)
    assert result.upper == pytest.approx(float(c) * 2.0 ** -20, rel=1e-9)
    brute = oracles.series_sum(2, lambda s: c, -1, 120, prefactor=Fraction(1),
                               start_offset=20)
    assert result.upper == pytest.approx(float(brute), rel=1e-9)
    cubic_tail = uniqueness_tail("cubic", Constant(c), X1, -1, 20)
    assert cubic_tail.upper == pytest.approx(float(c) / 7 * 8.0 ** -20, rel=1e-9)


# (additive, cubic) depths of the sweep exponents.
SWEEP_DEPTHS = {Fraction(0): (21, 7), Fraction(1, 2): (42, 9),
                Fraction(2): (21, 21), Fraction(5, 2): (14, 42),
                Fraction(4): (7, 21), Fraction(5): (6, 11)}


@pytest.mark.parametrize("p", sorted(SWEEP_DEPTHS))
def test_certified_depth_is_where_the_tail_falls_below_2_to_minus_20(p):
    # At the depth the package's uniqueness tail is at most 2^-20 of its
    # series and one step earlier it is above, for every control family
    # of diagonal degree p, in the direction auto_directions picks.  Where
    # 21 / |w - p| is an integer the two are equal at the depth, so the
    # enclosures [partial_sum, upper] are compared: at the depth the tail's
    # lies not wholly above, one step earlier wholly above.
    x = point(["5/3"], mode="float")
    phis = [SumOfPowers(Fraction(3, 7), p),
            ProductOfPowers(Fraction(3, 7), p / 3, 2 * p / 3)]
    if p == 0:
        phis.append(Constant(Fraction(76, 1000)))
    for phi in phis:
        depths = []
        for component, l, w in zip(("additive", "cubic"),
                                   auto_directions(phi), (1, 3)):
            depth = certified_depth(component, phi, l)
            assert depth == oracles.certified_depth(w, p, l)
            series = series_bound(component, phi, x, l)
            at = uniqueness_tail(component, phi, x, l, depth)
            before = uniqueness_tail(component, phi, x, l, depth - 1)
            assert at.partial_sum <= 2.0 ** -20 * series.upper
            assert before.partial_sum > 2.0 ** -20 * series.upper
            # no tail where the series does not shrink
            assert certified_depth(component, phi, -l) is None
            assert oracles.certified_depth(w, p, -l) is None
            depths.append(depth)
        assert tuple(depths) == SWEEP_DEPTHS[p], phi
    # A phi that vanishes on the diagonal gets the same depths.
    zero = SumOfPowers(0, p)
    assert tuple(certified_depth(c, zero, l) for c, l in zip(
        ("additive", "cubic"), auto_directions(zero))) == SWEEP_DEPTHS[p]


def test_consistency_check_matches_closed_forms():
    for p in (0, Fraction(1, 2), 2, Fraction(5, 2), 4, 5):
        report = consistency_check(1, p, X1, tol=1e-9)
        assert report.ok, (p, report)


def test_consistency_check_flags_nothing_at_tol_zero():
    report = consistency_check(1, 2, X1, tol=0.0)
    # truncation residue makes an exact-zero tolerance fail, not raise
    assert isinstance(report.ok, bool)
