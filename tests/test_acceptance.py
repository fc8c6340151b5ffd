"""Acceptance suite: one test per criterion, one printed pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import decimal
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

import oracles
from addcubic import (BoundedNoise, Constant, FuncModel, PowerNoise,
                      SumOfPowers, additive_iterate, additive_residual,
                      chain_replay, cubic_1d, cubic_iterate, cubic_residual,
                      even_1d, g_transform, h_transform, linear_1d,
                      mixed_residual, model_1d, norm, odd_part, point,
                      random_cubic, random_linear, random_point, recover,
                      series_bound, solution_1d, uniqueness_probe)
from addcubic.bounds import CONVERGED, DIVERGED
from addcubic.cli import main as cli_main

EPS = Fraction(1, 1000)
DIMS = ((1, 1), (2, 2), (3, 3), (2, 1), (1, 3), (3, 2))


def _report(line: str) -> None:
    print(f"PASS {line}")


def test_criterion_1_exact_kernel():
    rng = random.Random(2024)
    models = []
    for _ in range(100):
        d, m = DIMS[rng.randint(0, len(DIMS) - 1)]
        models.append(FuncModel(d, m, (random_linear(rng, d, m),)))
    for _ in range(100):
        d, m = DIMS[rng.randint(0, len(DIMS) - 1)]
        models.append(FuncModel(d, m, (random_cubic(rng, d, m),)))

    started = time.perf_counter()
    for f in models:
        for _ in range(50):
            x = random_point(rng, f.dim_in, max_denominator=8)
            y = random_point(rng, f.dim_in, max_denominator=8)
            assert mixed_residual(f, x, y).is_zero
            xf = point(x.coords, mode="float")
            yf = point(y.coords, mode="float")
            assert mixed_residual(f, xf, yf).is_zero
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(f"criterion 1: exact kernel on 200 models x 50 pairs, "
            f"exact and float residuals zero, {elapsed:.2f}s < 5s")


def test_criterion_2_rule_separation():
    one = point([1])
    lin = model_1d(linear_1d(1))
    cub = model_1d(cubic_1d(1))
    assert additive_residual(lin, one, one).is_zero
    assert cubic_residual(lin, one, one).value.coords == (Fraction(-48),)
    assert cubic_residual(cub, one, one).is_zero
    assert additive_residual(cub, one, one).value.coords == (Fraction(48),)

    rng = random.Random(55)
    for _ in range(25):
        f_lin = model_1d(random_linear(rng, 1, 1))
        f_cub = model_1d(random_cubic(rng, 1, 1))
        x, y = random_point(rng, 1), random_point(rng, 1)
        assert additive_residual(f_lin, x, y).is_zero
        assert cubic_residual(f_cub, x, y).is_zero
    _report("criterion 2: additive/cubic rules separate the families "
            "(-48 and +48 at (1,1))")


def test_criterion_3_chain_replay():
    rng = random.Random(301)
    for _ in range(50):
        f = model_1d(random_linear(rng, 1, 1))
        x, y = random_point(rng, 1), random_point(rng, 1)
        replay = chain_replay(f, x, y)
        assert len(replay) == 21
        assert all(v.is_zero for v in replay.values())
        assert replay["2.19"].is_zero

    square = model_1d(even_1d(1))
    nonzero = set()
    for x, y in (((1,), (1,)), ((1,), (2,)), ((3,), (1,))):
        replay = chain_replay(square, point(x), point(y))
        nonzero |= {label for label, v in replay.items() if not v.is_zero}
    assert len(nonzero) >= 5
    _report(f"criterion 3: 21-identity replay zero for linear models at 50 "
            f"pairs; {len(nonzero)} identities nonzero for the even model")


def test_criterion_4_decomposition_identity():
    rng = random.Random(404)
    builders = {
        "linear": lambda: random_linear(rng, 1, 1),
        "cubic": lambda: random_cubic(rng, 1, 1),
        "even": lambda: even_1d(Fraction(rng.randint(-9, 9), 2)),
        "bounded": lambda: BoundedNoise(rng.randint(0, 9999), Fraction(1, 64)),
        "power": lambda: PowerNoise(rng.randint(0, 9999), Fraction(1, 64),
                                    Fraction(rng.randint(0, 3))),
    }
    names = sorted(builders)
    checked = 0
    for size in range(1, len(names) + 1):
        for combo in itertools.combinations(names, size):
            for _ in range(2):
                f = model_1d(*(builders[name]() for name in combo))
                H, G = h_transform(f), g_transform(f)
                for _ in range(3):
                    x = random_point(rng, 1)
                    assert (G(x) - H(x) - f(x).scale(6)).is_zero
                checked += 1
    assert checked >= 50
    _report(f"criterion 4: G - H = 6f exactly for {checked} models over "
            f"all {2 ** len(names) - 1} atom combinations")


def test_criterion_5_exact_recovery():
    f = solution_1d(2, 1)
    values = (1.0, -1.0, 0.5, -0.5, 3.0)
    xs = [point([v], mode="float") for v in values]
    down = recover(f, xs, phi=Constant(0), l_additive=-1, l_cubic=-1)
    up = recover(f, xs, phi=Constant(0), l_additive=1, l_cubic=1)
    for item_down, item_up, v in zip(down.points, up.points, values):
        assert abs(item_down.additive.coords[0] - 2 * v) <= 1e-12
        assert abs(item_down.cubic.coords[0] - v ** 3) <= 1e-12
        assert abs(item_up.additive.coords[0] - item_down.additive.coords[0]) \
            <= 1e-9
        assert abs(item_up.cubic.coords[0] - item_down.cubic.coords[0]) <= 1e-9
    _report("criterion 5: exact recovery of 2x + x^3 at +-1, +-1/2, 3 within "
            "1e-12; directions agree within 1e-9")


def test_criterion_6_perturbed_recovery():
    started = time.perf_counter()
    f = model_1d(linear_1d(2), cubic_1d(1), BoundedNoise(7, EPS))
    phi = Constant(76 * EPS)
    rng = random.Random(606)
    xs = [random_point(rng, 1, mode="float") for _ in range(200)]
    report = recover(f, xs, phi)
    combined_bound = 152 * float(EPS) / 21
    assert report.max_error <= combined_bound
    assert report.all_within_bound

    f_odd = odd_part(f)
    H, G = h_transform(f_odd), g_transform(f_odd)
    worst_h = worst_g = 0.0
    for x in xs:
        a0 = additive_iterate(f_odd, x, -1).final
        c0 = cubic_iterate(f_odd, x, -1).final
        worst_h = max(worst_h, norm(H(x) - a0))
        worst_g = max(worst_g, norm(G(x) - c0))
    assert worst_h <= 38 * float(EPS)
    assert worst_g <= 76 * float(EPS) / 14
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(f"criterion 6: 200-point perturbed recovery, max error "
            f"{report.max_error:.3e} <= {combined_bound:.4e}; component "
            f"limits {worst_h:.3e} <= 3.8e-2 and {worst_g:.3e} <= 5.43e-3; "
            f"{elapsed:.1f}s < 30s")


def test_criterion_7_corollary_consistency():
    x = point([1], mode="float")
    for p in (0, 0.5, 2, 2.5, 4, 5):
        p_frac = Fraction(str(p))
        directions = (1 if p_frac > 1 else -1, 1 if p_frac > 3 else -1)
        series = series_bound("combined", SumOfPowers(1, p_frac), x, directions)
        closed = (1 / abs(2.0 ** p - 2) + 1 / abs(2.0 ** p - 8)) / 6
        assert series.status == CONVERGED
        assert abs(series.upper - closed) <= 1e-9, p
    from addcubic import ProductOfPowers
    for r, s in ((0, 0), (1, 1), (2, 2)):
        p = r + s
        directions = (1 if p > 1 else -1, 1 if p > 3 else -1)
        series = series_bound("combined", ProductOfPowers(1, r, s), x,
                              directions)
        closed = (1 / abs(2.0 ** p - 2) + 1 / abs(2.0 ** p - 8)) / 12
        assert abs(series.upper - closed) <= 1e-9, (r, s)
    _report("criterion 7: combined series matches closed forms within 1e-9 "
            "for p in {0, 0.5, 2, 2.5, 4, 5} and (r,s) in {(0,0),(1,1),(2,2)}")


def test_criterion_8_divergence_exclusions():
    x = point([1], mode="float")
    for l in (-1, 1):
        assert series_bound("additive", SumOfPowers(1, 1), x, l).status \
            == DIVERGED
        assert series_bound("cubic", SumOfPowers(1, 3), x, l).status \
            == DIVERGED
    for p, l in ((Fraction(999999, 1000000), -1),
                 (Fraction(1000001, 1000000), 1)):
        result = series_bound("additive", SumOfPowers(1, p), x, l)
        assert result.status == CONVERGED
        exact = oracles.series_closed_form(2, ("sum", 1, p), [1], "max", l)
        assert result.partial_sum <= exact <= result.upper
        assert result.upper <= exact * (1 + decimal.Decimal(1e-9))
    _report("criterion 8: p=1 (additive) and p=3 (cubic) diverge for both "
            "directions; p = 1 +- 1e-6 converge, enclosing the exact sum")


def test_criterion_9_uniqueness_probe():
    f_odd = odd_part(model_1d(linear_1d(2), cubic_1d(1), BoundedNoise(7, EPS)))
    phi = Constant(76 * EPS)
    x = point([1])  # exact mode: deep iterates stay exact
    additive = uniqueness_probe(f_odd, x, -1, "additive", 20, 40, phi)
    additive_tail = 76 * float(EPS) * 2.0 ** -20
    assert additive.tail_bound == pytest.approx(additive_tail, rel=1e-9)
    assert additive.gap <= additive_tail
    cubic = uniqueness_probe(f_odd, x, -1, "cubic", 20, 40, phi)
    cubic_tail = 76 * float(EPS) / 7 * 8.0 ** -20
    assert cubic.tail_bound == pytest.approx(cubic_tail, rel=1e-9)
    assert cubic.gap <= cubic_tail
    _report(f"criterion 9: probe gaps {additive.gap:.2e} <= "
            f"{additive_tail:.2e} (additive) and {cubic.gap:.2e} <= "
            f"{cubic_tail:.2e} (cubic)")


def test_criterion_10_determinism(tmp_path):
    configs = {
        "check-lemmas": {
            "mode": "exact",
            "models": [{"label": "slope", "dim_in": 1, "dim_out": 1,
                        "atoms": [{"kind": "linear", "matrix": [["1"]]}]}],
            "samples": {"pairs": [[["1"], ["1"]]],
                        "random": {"count": 20, "seed": 5}},
            "output_stem": "lem",
        },
        "replay-chain": {
            "mode": "exact",
            "models": [{"label": "slope", "dim_in": 1, "dim_out": 1,
                        "atoms": [{"kind": "linear", "matrix": [["3"]]}]}],
            "samples": {"random": {"count": 10, "seed": 2}},
            "catalogue_out": "catalogue.json",
            "output_stem": "rep",
        },
        "recover": {
            "mode": "float",
            "model": {"dim_in": 1, "dim_out": 1, "atoms": [
                {"kind": "linear", "matrix": [["2"]]},
                {"kind": "cubic", "dims": [1, 1], "terms": [[[[0, 0, 0], "1"]]]},
                {"kind": "bounded_noise", "seed": 7, "amplitude": "1/1000"}]},
            "phi": "certify",
            "samples": {"points": [["1"]], "random": {"count": 15, "seed": 42}},
            "output_stem": "rec",
        },
        "bounds": {
            "mode": "float",
            "bounds": [{"kind": "combined",
                        "phi": {"variant": "sum_of_powers", "theta": "1",
                                "power": "2"},
                        "x": ["1"], "l": "auto"}],
            "consistency": {"theta": 1, "p": [0, 2], "rs": [[1, 1]]},
            "output_stem": "bnd",
        },
        "sweep": {
            "form": "sum", "p": [0, 2], "theta": [1], "epsilon": ["1/1000"],
            "l_mode": ["auto"],
            "base": {"solution": {"linear": "2", "cubic": "1"},
                     "samples": {"random": {"count": 8, "seed": 42}}},
            "output_stem": "sw",
        },
    }
    produced = {}
    for command, doc in configs.items():
        config_path = tmp_path / f"{command}.config.json"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        runs = []
        for run_id in (1, 2):
            out_dir = tmp_path / f"{command}.out{run_id}"
            assert cli_main([command, "--config", str(config_path),
                             "--out-dir", str(out_dir)]) == 0
            runs.append(out_dir)
        first, second = runs
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()
        produced[command] = names
    assert all(produced.values())
    _report("criterion 10: all five subcommands rerun byte-identical "
            f"({sum(len(v) for v in produced.values())} files compared)")
