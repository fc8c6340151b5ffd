"""Float mode is exact mode rounded once, subcommand by subcommand.

Each case runs a float config through the CLI, rebuilds it in exact mode
at the doubles the float run read (:mod:`rounded_once`), runs that too, and
requires every number of the float report to be the exact report's number
rounded once to a double, and every other field to be equal.
"""

import json
from fractions import Fraction

import pytest

import rounded_once
from addcubic.cli import main as cli_main
from addcubic.config import ExperimentConfig

POWER_NOISE = {"kind": "power_noise", "seed": 5, "amplitude": "1/100",
               "exponent": "3/2"}
BOUNDED_NOISE = {"kind": "bounded_noise", "seed": 7, "amplitude": "1/1000"}
LINEAR_2D = {"kind": "linear", "matrix": [["2", "-1/2"], ["3/4", "1"]]}
CUBIC_2D = {"kind": "cubic", "dims": [2, 2],
            "terms": [[[[0, 0, 0], "1"], [[0, 1, 1], "-3/4"]],
                      [[[0, 0, 1], "5/2"], [[1, 1, 1], "-1"]]]}
MODELS = [
    {"label": "blend", "dim_in": 1, "dim_out": 1, "atoms": [
        {"kind": "linear", "matrix": [["3/2"]]},
        {"kind": "cubic", "dims": [1, 1], "terms": [[[[0, 0, 0], "-1/4"]]]},
        {"kind": "even", "matrices": [[["1/3"]]]}, BOUNDED_NOISE,
        POWER_NOISE]},
    {"label": "solution", "dim_in": 1, "dim_out": 1, "atoms": [
        {"kind": "linear", "matrix": [["2"]]},
        {"kind": "cubic", "dims": [1, 1], "terms": [[[[0, 0, 0], "1"]]]}]},
    {"label": "plane", "dim_in": 2, "dim_out": 2,
     "atoms": [LINEAR_2D, CUBIC_2D, {**POWER_NOISE, "seed": 9}]},
]
PAIRS = [[["1/3"], ["2/7"]], [["-5/9"], ["3/11"]], [["1/3", "-2/7"],
                                                    ["0.1", "5/3"]]]


def run(tmp_path, command: str, name: str, doc: dict):
    config_path = tmp_path / f"{name}.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    out_dir = tmp_path / name
    assert cli_main([command, "--config", str(config_path),
                     "--out-dir", str(out_dir)]) in (0, 1)
    return out_dir


def sampled_pairs(command: str, doc: dict) -> list:
    """The pairs a float run reads, as texts of their exact values."""
    config = ExperimentConfig.from_json_dict(doc, command)
    return [[[rounded_once.exact_text(Fraction(c)) for c in p.coords]
             for p in pair]
            for dim in sorted({m["dim_in"] for m in doc["models"]})
            for pair in config.samples.sample_pairs(dim, "float",
                                                    config.norm_kind)]


def assert_rounded_once(tmp_path, command: str, doc: dict, pairs=None):
    """``pairs``, the float run's sample pairs, are listed for both runs,
    so that each report prints every pair's residuals."""
    if pairs is not None:
        doc = {**doc, "samples": {"pairs": pairs}}
    float_dir = run(tmp_path, command, "float", doc)
    report = None
    if command == "recover":
        report = json.loads((float_dir / f"{doc['output_stem']}.json")
                            .read_text(encoding="utf-8"))
    exact = rounded_once.exact_config(doc, report, pairs)
    exact_dir = run(tmp_path, command, "exact", exact)
    assert rounded_once.compare_dirs(float_dir, exact_dir) == []


@pytest.mark.parametrize("max_denominator", [7, 1024])
def test_check_lemmas_is_exact_rounded_once(tmp_path, max_denominator):
    doc = {"schema_version": 1, "mode": "float", "models": MODELS,
           "samples": {"pairs": PAIRS,
                       "random": {"count": 4, "seed": 3,
                                  "max_denominator": max_denominator}},
           "chain": True, "output_stem": "lem"}
    pairs = sampled_pairs("check-lemmas", doc)
    assert_rounded_once(tmp_path, "check-lemmas", doc, pairs)
    report = json.loads((tmp_path / "float" / "lem.json").read_text())
    # The pairs off the grid leave residuals that are no float's sum.
    assert any(entry.get("explicit_pairs") for entry in report["models"])


def test_replay_chain_is_exact_rounded_once(tmp_path):
    doc = {"schema_version": 1, "mode": "float", "models": MODELS,
           "samples": {"pairs": PAIRS,
                       "random": {"count": 4, "seed": 8,
                                  "max_denominator": 97}},
           "output_stem": "rep"}
    assert_rounded_once(tmp_path, "replay-chain", doc,
                        sampled_pairs("replay-chain", doc))


@pytest.mark.parametrize("max_denominator", [7, 1024])
@pytest.mark.parametrize("norm_kind", ["euclidean", "max"])
def test_recover_is_exact_rounded_once(tmp_path, max_denominator, norm_kind):
    doc = {"schema_version": 1, "mode": "float", "norm": norm_kind,
           "model": {"dim_in": 2, "dim_out": 2,
                     "atoms": [LINEAR_2D, CUBIC_2D, BOUNDED_NOISE]},
           "phi": "certify",
           "samples": {"points": [["1/3", "-2/7"]],
                       "random": {"count": 6, "seed": 4,
                                  "max_denominator": max_denominator}},
           "output_stem": "rec"}
    assert_rounded_once(tmp_path, "recover", doc)


def test_recover_1d_power_noise_is_exact_rounded_once(tmp_path):
    doc = {"schema_version": 1, "mode": "float",
           "model": {"dim_in": 1, "dim_out": 1,
                     "atoms": MODELS[1]["atoms"] + [
                         {**POWER_NOISE, "exponent": "7/2"}]},
           "phi": "certify",
           "samples": {"points": [["1/3"], ["-2/7"]],
                       "random": {"count": 8, "seed": 5,
                                  "max_denominator": 7}},
           "output_stem": "rec"}
    assert_rounded_once(tmp_path, "recover", doc)


def test_bounds_is_exact_rounded_once(tmp_path):
    # Each x is written as its double's repr, which the report echoes.
    sum_phi = {"variant": "sum_of_powers", "theta": "1", "power": "2"}
    doc = {"mode": "float", "norm": "euclidean",
           "bounds": [
               {"kind": "additive", "phi": {"variant": "constant",
                                            "value": "1"},
                "x": ["0.3333333333333333"], "l": -1},
               {"kind": "combined", "phi": sum_phi,
                "x": ["0.1", "-2.5"], "l": "auto"},
               {"kind": "cubic", "phi": {"variant": "product_of_powers",
                                         "theta": "1/3", "r": "1/2",
                                         "s": "5/2"},
                "x": ["0.2857142857142857"], "l": "auto"}],
           "consistency": {"theta": "1/7", "p": [0, "1/2", 2, 5],
                           "rs": [[1, 1], ["1/2", 4]],
                           "x": ["0.3333333333333333"]},
           "output_stem": "bnd"}
    assert_rounded_once(tmp_path, "bounds", doc)


def test_rounding_a_number_twice_is_caught():
    exact = {"mode": "exact", "v": ["6004799503160661/18014398509481984"]}
    assert rounded_once.compare(
        {"mode": "float", "v": ["0.3333333333333333"]}, exact) == []
    assert rounded_once.compare(
        {"mode": "float", "v": ["0.33333333333333337"]}, exact) != []
    assert rounded_once.compare({"mode": "float", "v": [0.5]},
                                {"mode": "exact", "v": [0.5000000000000001]})
