import csv
import hashlib
import json
import math
import time

import pytest

from addcubic import FuncModel, harness, residuals
from addcubic.cli import main as cli_main
from addcubic.config import (ConfigError, ExperimentConfig, SampleSpec,
                             SweepSpec)
from addcubic.harness import (run_bounds, run_check_lemmas, run_recover,
                              run_replay_chain, run_sweep)
from addcubic.models import Point

LINEAR_ATOM = {"kind": "linear", "matrix": [["1"]]}
CUBIC_ATOM = {"kind": "cubic", "dims": [1, 1], "terms": [[[[0, 0, 0], "1"]]]}
EVEN_ATOM = {"kind": "even", "matrices": [[["1"]]]}
NOISE_ATOM = {"kind": "bounded_noise", "seed": 7, "amplitude": "1/1000"}


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# check-lemmas
# ---------------------------------------------------------------------------

def lemma_config(**overrides):
    doc = {
        "schema_version": 1,
        "mode": "exact",
        "models": [
            {"label": "slope", "dim_in": 1, "dim_out": 1, "atoms": [LINEAR_ATOM]},
            {"label": "cube", "dim_in": 1, "dim_out": 1, "atoms": [CUBIC_ATOM]},
        ],
        "samples": {"pairs": [[["1"], ["1"]]], "random": {"count": 25, "seed": 5}},
        "output_stem": "lem",
    }
    doc.update(overrides)
    return doc


def test_check_lemmas_default_families_all_zero(tmp_path):
    config = ExperimentConfig.from_json_dict(lemma_config(
        models=[], families={"linear": 10, "cubic": 10, "seed": 4,
                             "dims": [[1, 1], [2, 2]]},
        samples={"random": {"count": 100, "seed": 6}}), "check-lemmas")
    result = run_check_lemmas(config, tmp_path)
    assert result.ok and result.exit_code == 0
    for entry in result.report["models"]:
        if entry["expect"]["mixed"]:
            assert entry["mixed"]["nonzero_count"] == 0
        if entry["expect"]["additive"]:
            assert entry["additive"]["nonzero_count"] == 0
            assert all(row["nonzero_count"] == 0
                       for row in entry["chain"].values())
        if entry["expect"]["cubic"]:
            assert entry["cubic"]["nonzero_count"] == 0


def test_check_lemmas_separation(tmp_path):
    result = run_check_lemmas(
        ExperimentConfig.from_json_dict(lemma_config(), "check-lemmas"),
        tmp_path)
    slope = next(m for m in result.report["models"] if m["label"] == "slope")
    cube = next(m for m in result.report["models"] if m["label"] == "cube")
    # additive model: zero on the additive rule, -48 on the cubic rule at (1,1)
    assert slope["additive"]["nonzero_count"] == 0
    assert slope["explicit_pairs"][0]["residuals"]["cubic"] == ["-48"]
    # cubic model: zero on the cubic rule, +48 on the additive rule at (1,1)
    assert cube["cubic"]["nonzero_count"] == 0
    assert cube["explicit_pairs"][0]["residuals"]["additive"] == ["48"]
    assert result.ok


def test_check_lemmas_even_model_reports_minus_16(tmp_path):
    config = ExperimentConfig.from_json_dict(lemma_config(
        models=[{"label": "square", "dim_in": 1, "dim_out": 1,
                 "atoms": [EVEN_ATOM]}]), "check-lemmas")
    result = run_check_lemmas(config, tmp_path)
    square = result.report["models"][0]
    assert square["explicit_pairs"][0]["residuals"]["mixed"] == ["-16"]
    assert square["mixed"]["nonzero_count"] > 0
    assert result.ok  # nothing was expected to vanish


def test_cli_zero_sample_pairs_exit_2(tmp_path, capsys):
    for command in ("check-lemmas", "replay-chain"):
        for samples in ({}, {"random": {"count": 0}},
                        {"pairs": [[["1", "2"], ["3", "4"]]]}):
            config_path = write_config(tmp_path, "lem.json",
                                       lemma_config(samples=samples))
            out_dir = tmp_path / "out"
            assert cli_main([command, "--config", str(config_path),
                             "--out-dir", str(out_dir)]) == 2
            assert "no sample pairs" in capsys.readouterr().err
            assert not out_dir.exists()


def test_cli_explicit_pair_of_no_model_dimension_exit_2(tmp_path, capsys):
    samples = {"pairs": [[["1"], ["1"]], [["1", "2"], ["3", "4"]]]}
    config_path = write_config(tmp_path, "lem.json", lemma_config(
        models=lemma_config()["models"][:1], samples=samples))
    out_dir = tmp_path / "out"
    assert cli_main(["check-lemmas", "--config", str(config_path),
                     "--out-dir", str(out_dir)]) == 2
    assert "samples.pairs[1] has dimension 2" in capsys.readouterr().err
    assert not out_dir.exists()


def _reject_constant(name):
    raise ValueError(f"report holds the non-JSON constant {name}")


@pytest.mark.parametrize("atom, value", [(CUBIC_ATOM, "1e120"),
                                         (LINEAR_ATOM, "1e307")])
def test_check_lemmas_overflow_exits_2_in_both_modes(tmp_path, capsys, atom,
                                                     value):
    # Float residuals past the float range were once written as "nan" or
    # Infinity, and a NaN never counted as nonzero, so the run passed.
    big = [{"label": "big", "dim_in": 1, "dim_out": 1, "atoms": [atom]}]
    for mode in ("exact", "float"):
        config_path = write_config(tmp_path, f"{mode}.json", lemma_config(
            mode=mode, models=big, samples={"pairs": [[[value], [value]]]}))
        out_dir = tmp_path / mode
        assert cli_main(["check-lemmas", "--config", str(config_path),
                         "--out-dir", str(out_dir)]) == 2, mode
        assert "too large for float arithmetic" in capsys.readouterr().err
        assert not out_dir.exists()
    # A passing float report is strict JSON.
    config_path = write_config(tmp_path, "ok.json", lemma_config(mode="float"))
    assert cli_main(["check-lemmas", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "ok")]) == 0
    report = json.loads((tmp_path / "ok" / "lem.json").read_text(),
                        parse_constant=_reject_constant)
    assert report["ok"]


def test_even_residual_norm_past_the_squares_range_is_finite(tmp_path):
    # Each residual coordinate is about 1e161, so its square overflows; the
    # Euclidean norm was once written as Infinity, which is not JSON.
    even = {"kind": "even", "matrices": [[["1", "0"], ["0", "1"]],
                                         [["1", "0"], ["0", "0"]]]}
    models = [{"label": "even", "dim_in": 2, "dim_out": 2, "atoms": [even]}]
    config_path = write_config(tmp_path, "even.json", lemma_config(
        models=models, samples={"pairs": [[["1e80", "0"], ["1e80", "0"]]]}))
    assert cli_main(["check-lemmas", "--config", str(config_path),
                     "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "lem.json").read_text(),
                        parse_constant=_reject_constant)
    # D(q)(x, x) = -16 q(x) per output, at q(x) = (1e160, 1e160).
    assert report["models"][0]["mixed"]["max_abs"] \
        == math.hypot(16e160, 16e160)


def test_even_residual_norm_below_the_squares_range_is_nonzero(tmp_path):
    # The residual coordinates are about 1e-169, so their squares underflow
    # to 0; the Euclidean norm was once written as 0.0 beside a nonzero
    # count.
    even = {"kind": "even", "matrices": [[["1", "0"], ["0", "1"]],
                                         [["1", "0"], ["0", "0"]]]}
    models = [{"label": "even", "dim_in": 2, "dim_out": 2, "atoms": [even]}]
    config_path = write_config(tmp_path, "even.json", lemma_config(
        models=models, samples={"pairs": [[["1e-85", "0"], ["1e-85", "0"]]]}))
    assert cli_main(["check-lemmas", "--config", str(config_path),
                     "--out-dir", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "lem.json").read_text())["models"][0]
    # -16 q(x) and -48 q(x) per output, at q(x) = (1e-170, 1e-170).
    assert rows["mixed"]["max_abs"] == math.hypot(16e-170, 16e-170)
    assert rows["cubic"]["max_abs"] == math.hypot(48e-170, 48e-170)
    assert all(row["max_abs"] > 0 and row["nonzero_count"] == 1
               for row in rows["chain"].values())


def test_check_lemmas_evaluates_each_argument_once(tmp_path, monkeypatch):
    calls = []
    evaluate = FuncModel.evaluate_coords

    def counted(model, coords, **kwargs):
        calls.append(model)
        return evaluate(model, coords, **kwargs)

    monkeypatch.setattr(FuncModel, "evaluate_coords", counted)
    pairs = 1 + 25  # one explicit pair, 25 random ones, per model
    noisy = [{**entry, "atoms": [*entry["atoms"], NOISE_ATOM]}
             for entry in lemma_config()["models"]]
    noisy_models = {model for _, model in ExperimentConfig.from_json_dict(
        lemma_config(models=noisy), "check-lemmas").family_models()}
    assert len(noisy_models) == 2
    assert all(model.has_noise for model in noisy_models)
    for overrides, per_pair in (({}, 19), ({"chain": False}, 8),
                                ({"mode": "float"}, 19),
                                ({"mode": "float", "chain": False}, 8)):
        calls.clear()
        config = ExperimentConfig.from_json_dict(lemma_config(**overrides),
                                                 "check-lemmas")
        assert run_check_lemmas(config, tmp_path).ok
        assert calls == []  # polynomial models are expanded, never evaluated
        config = ExperimentConfig.from_json_dict(
            lemma_config(models=noisy, **overrides), "check-lemmas")
        assert run_check_lemmas(config, tmp_path).ok
        # Once per distinct argument of each pair, the noisy model whole.
        assert len(calls) == 2 * pairs * per_pair
        assert set(calls) == noisy_models


def test_exact_check_lemmas_builds_points_only_for_explicit_pairs(
        tmp_path, monkeypatch):
    built = []
    post_init = Point.__post_init__

    def counted_init(self):
        built.append(self)
        post_init(self)

    tally = harness._tally_pairs
    inside = []

    def watched(*args, **kwargs):
        before = len(built)
        kept = tally(*args, **kwargs)
        inside.append(len(built) - before)
        return kept

    monkeypatch.setattr(Point, "__post_init__", counted_init)
    monkeypatch.setattr(harness, "_tally_pairs", watched)
    random_only = lemma_config(samples={"random": {"count": 25, "seed": 5}})
    assert run_check_lemmas(
        ExperimentConfig.from_json_dict(random_only, "check-lemmas"),
        tmp_path).ok
    assert inside == [0, 0]
    # The one explicit pair's 3 rule and 21 chain residuals are reported.
    inside.clear()
    assert run_check_lemmas(
        ExperimentConfig.from_json_dict(lemma_config(), "check-lemmas"),
        tmp_path).ok
    assert inside == [24, 24]


def test_check_lemmas_draws_pairs_once_per_dimension(monkeypatch):
    drawn = []
    random_pairs = SampleSpec.random_pairs

    def counted(self, dim, *args):
        drawn.append(dim)
        return random_pairs(self, dim, *args)

    monkeypatch.setattr(SampleSpec, "random_pairs", counted)
    plane = {"label": "plane", "dim_in": 2, "dim_out": 1,
             "atoms": [{"kind": "linear", "matrix": [["1", "-2"]]}]}
    config = ExperimentConfig.from_json_dict(lemma_config(
        models=[*lemma_config()["models"], plane]), "check-lemmas")
    (_, _, explicit, pairs), (_, _, _, shared), (_, _, none, planar) = \
        harness._sampled_models(config)
    assert drawn == [1, 2]
    assert shared is pairs and len(pairs) == 26 and len(explicit) == 1
    assert none == [] and len(planar) == 25


def test_check_lemmas_rows_equal_tallying_every_table(tmp_path):
    # A noise-free model's tally reads only its live tables; a plain
    # callable's reads all 24.  The rows must agree.
    bowl = {"label": "bowl", "dim_in": 2, "dim_out": 1, "atoms": [
        {"kind": "even", "matrices": [[["1", "2"], ["0", "-1/3"]]]}]}
    solution = {"label": "solution", "dim_in": 1, "dim_out": 1,
                "atoms": [LINEAR_ATOM, CUBIC_ATOM]}
    config = ExperimentConfig.from_json_dict(
        lemma_config(models=[bowl, solution]), "check-lemmas")
    report = run_check_lemmas(config, tmp_path).report
    tables = residuals.TermTables(
        tuple(harness._RULE_TABLES.values())
        + tuple(ident.moved_terms for ident in residuals.CHAIN_CATALOGUE))
    live = []
    for (_, model, _, pairs), entry in zip(harness._sampled_models(config),
                                           report["models"]):
        live.append(len(tables.live(model)))
        rows = [{"max_abs": 0.0, "nonzero_count": 0} for _ in range(24)]
        harness._tally_pairs(lambda p, f=model: f(p), pairs, tables, rows)
        reported = [entry[name] for name in harness._RULE_TABLES]
        reported += entry["chain"].values()
        assert [(row["max_abs"], row["nonzero_count"]) for row in reported] \
            == [(row["max_abs"], row["nonzero_count"]) for row in rows]
    # Every table can be nonzero for the even model; the solution's mixed
    # rule and identity 2.10 (f(-x) = -f(x)) are zero by their moments.
    assert live == [24, 22]
    assert report["models"][0]["mixed"]["nonzero_count"] == 25


def test_replay_chain_runner(tmp_path):
    config = ExperimentConfig.from_json_dict({
        "mode": "exact",
        "models": [{"label": "lin", "dim_in": 1, "dim_out": 1,
                    "atoms": [LINEAR_ATOM]}],
        "samples": {"random": {"count": 10, "seed": 1}},
        "catalogue_out": "catalogue.json",
        "output_stem": "rep",
    }, "replay-chain")
    result = run_replay_chain(config, tmp_path)
    assert result.ok
    identities = result.report["models"][0]["identities"]
    assert len(identities) == 21
    assert all(row["nonzero_count"] == 0 for row in identities.values())
    catalogue = json.loads((tmp_path / "catalogue.json").read_text())
    assert len(catalogue["identities"]) == 21


def test_replay_chain_float_mode_zero_for_linear_models(tmp_path):
    # Float pairs off the dyadic grid are replayed at their exact binary
    # values, so every identity is exactly zero for additive models.
    config = ExperimentConfig.from_json_dict({
        "mode": "float",
        "families": {"linear": 4, "seed": 2, "dims": [[1, 1], [2, 3]]},
        "samples": {"pairs": [[["1/3"], ["-2/7"]]],
                    "random": {"count": 10, "seed": 1, "max_denominator": 7}},
        "output_stem": "rep",
    }, "replay-chain")
    result = run_replay_chain(config, tmp_path)
    assert result.exit_code == 0
    models = result.report["models"]
    assert len(models) == 4 and {m["model"]["dim_in"] for m in models} == {1, 2}
    for entry in models:
        assert entry["expect_zero"] and entry["ok"]
        assert len(entry["identities"]) == 21
        assert all(row == {"max_abs": 0.0, "nonzero_count": 0}
                   for row in entry["identities"].values())


# ---------------------------------------------------------------------------
# recover
# ---------------------------------------------------------------------------

def recover_config(**overrides):
    doc = {
        "schema_version": 1,
        "mode": "float",
        "model": {"dim_in": 1, "dim_out": 1,
                  "atoms": [{"kind": "linear", "matrix": [["2"]]}, CUBIC_ATOM,
                            NOISE_ATOM]},
        "phi": "certify",
        "samples": {"points": [["1"], ["-1"]],
                    "random": {"count": 25, "seed": 42}},
        "output_stem": "rec",
    }
    doc.update(overrides)
    return doc


def test_run_recover_writes_reports(tmp_path):
    config = ExperimentConfig.from_json_dict(recover_config(), "recover")
    result = run_recover(config, tmp_path)
    assert result.ok and result.exit_code == 0
    doc = json.loads((tmp_path / "rec.json").read_text())
    assert doc["ok"] and doc["summary"]["all_within_bound"]
    assert doc["phi"] == {"variant": "constant", "value": "19/250"}
    with open(tmp_path / "rec.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(doc["points"]) == 27
    # CSV floats round-trip exactly against the JSON report
    for row, entry in zip(rows, doc["points"]):
        assert float(row["error"]) == entry["error"]
        assert float(row["bound"]) == entry["bound"]


def test_run_recover_exact_solution_exit_zero(tmp_path):
    config = ExperimentConfig.from_json_dict(recover_config(
        model={"dim_in": 1, "dim_out": 1,
               "atoms": [{"kind": "linear", "matrix": [["2"]]}, CUBIC_ATOM]}),
        "recover")
    result = run_recover(config, tmp_path)
    assert result.ok
    assert result.report["summary"]["max_error"] <= 1e-12


def test_run_recover_divergent_series_status(tmp_path):
    config = ExperimentConfig.from_json_dict(recover_config(
        model={"dim_in": 1, "dim_out": 1,
               "atoms": [{"kind": "linear", "matrix": [["2"]]}, CUBIC_ATOM,
                         {"kind": "power_noise", "seed": 3,
                          "amplitude": "1/1000", "exponent": "1"}]}),
        "recover")
    result = run_recover(config, tmp_path)
    assert not result.ok
    assert result.status == "divergent-series"
    doc = json.loads((tmp_path / "rec.json").read_text())
    assert doc["status"] == "divergent-series"


def test_cli_recover_gap_above_its_tail_fails(tmp_path, capsys):
    # Constant phi does not bound power noise of exponent 1/2, yet every
    # error is within the constant bound: only the Cauchy gaps, some above
    # the certified tail 2 rho^(n-1) S, show that phi is no envelope.
    doc = recover_config(
        mode="exact",
        model={"dim_in": 1, "dim_out": 1, "atoms": [
            {"kind": "linear", "matrix": [["2"]]}, CUBIC_ATOM,
            {"kind": "power_noise", "seed": 3, "amplitude": "1/1000",
             "exponent": "1/2"}]},
        phi={"variant": "constant", "value": "76/1000"},
        samples={"points": [["1/3"], ["5/4"]]})
    config_path = write_config(tmp_path, "vacuous.json", doc)
    assert cli_main(["recover", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert "bound-violation" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "rec.json").read_text())
    assert not report["ok"] and not report["summary"]["all_within_bound"]
    for item in report["points"]:
        assert item["error"] <= item["bound"] and not item["within_bound"]


def huge_noise_config(exponent: str) -> dict:
    # phi is given, so certify_phi never sees the exponent.
    return recover_config(
        mode="exact", phi={"variant": "constant", "value": "1"},
        model={"dim_in": 1, "dim_out": 1,
               "atoms": [{"kind": "power_noise", "seed": 1,
                          "amplitude": "1/1000", "exponent": exponent}]},
        samples={"points": [["3"]]})


def test_cli_recover_huge_noise_exponent_hits_the_overflow_guard(
        tmp_path, capsys):
    # The exponent is within the load limit, but 3^p would have more than
    # noise.MAX_POWER_BITS bits; the report keeps the cause.
    config_path = write_config(tmp_path, "huge.json",
                               huge_noise_config("2000000"))
    start = time.perf_counter()
    assert cli_main(["recover", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert time.perf_counter() - start < 5.0
    report = json.loads((tmp_path / "out" / "rec.json").read_text())
    assert report["status"] == "overflow-guard"
    assert "noise scale overflow: exponent 2000000" in report["detail"]


def test_cli_noise_exponent_above_max_power_bits_exit_2(tmp_path, capsys):
    # Forming 3^(10^10) used to hang; an integer power above
    # noise.MAX_POWER_BITS overflows at every x != 0, so it is refused.
    config_path = write_config(tmp_path, "huge.json",
                               huge_noise_config("10000000000"))
    out_dir = tmp_path / "out"
    assert cli_main(["recover", "--config", str(config_path),
                     "--out-dir", str(out_dir)]) == 2
    assert "model.atoms[0].exponent" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_recover_over_zero_points_exit_2(tmp_path, capsys):
    cases = {"no samples": recover_config(samples={}),
             "no random draws": recover_config(
                 samples={"random": {"count": 0}}),
             "point of another dimension": recover_config(
                 samples={"points": [["1"], ["1", "2"]]})}
    for name, doc in cases.items():
        config_path = write_config(tmp_path, "rec.json", doc)
        out_dir = tmp_path / "out"
        assert cli_main(["recover", "--config", str(config_path),
                         "--out-dir", str(out_dir)]) == 2, name
        assert "samples" in capsys.readouterr().err, name
        assert not out_dir.exists(), name


def test_run_recover_samples_at_the_model_dimension(tmp_path):
    config = ExperimentConfig.from_json_dict(recover_config(
        model={"dim_in": 2, "dim_out": 2, "atoms": [
            {"kind": "linear", "matrix": [["2", "0"], ["1", "1"]]}]},
        samples={"points": [["1", "2"], ["-1/2", "3"]],
                 "random": {"count": 3, "seed": 1}}), "recover")
    result = run_recover(config, tmp_path)
    assert result.ok
    assert result.report["summary"]["count"] == 5
    assert result.report["points"][0]["x"] == ["1.0", "2.0"]  # float mode


def test_run_recover_requires_model(tmp_path):
    config = ExperimentConfig.from_json_dict({"mode": "float"}, "recover")
    with pytest.raises(ConfigError):
        run_recover(config, tmp_path)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

BOUNDS_DOC = {
    "mode": "float",
    "bounds": [
        {"kind": "additive", "phi": {"variant": "constant", "value": "1"},
         "x": ["1"], "l": -1},
        {"kind": "combined",
         "phi": {"variant": "sum_of_powers", "theta": "1", "power": "2"},
         "x": ["1"], "l": "auto"},
        {"kind": "additive",
         "phi": {"variant": "sum_of_powers", "theta": "1", "power": "1"},
         "x": ["1"], "l": -1, "expect": "diverged"},
    ],
    "consistency": {"theta": 1, "p": [0, 0.5, 2], "rs": [[1, 1]],
                    "tol": 1e-9},
    "output_stem": "bnd",
}


def test_run_bounds_items_and_consistency(tmp_path):
    config = ExperimentConfig.from_json_dict(BOUNDS_DOC, "bounds")
    result = run_bounds(config, tmp_path)
    assert result.ok
    items = result.report["items"]
    assert items[0]["upper"] == pytest.approx(0.5, rel=1e-9)
    assert items[1]["upper"] == pytest.approx(0.125, rel=1e-9)
    assert items[2]["status"] == "diverged"
    assert all(c["ok"] for c in result.report["consistency"])


def test_run_bounds_component_kind_with_auto_direction(tmp_path):
    config = ExperimentConfig.from_json_dict({
        "mode": "float",
        "bounds": [
            {"kind": "additive",
             "phi": {"variant": "sum_of_powers", "theta": "1", "power": "2"},
             "x": ["1"], "l": "auto"},  # auto picks l=+1 for the additive side
            {"kind": "cubic",
             "phi": {"variant": "sum_of_powers", "theta": "1", "power": "2"},
             "x": ["1"], "l": "auto"},  # and l=-1 for the cubic side
        ],
        "output_stem": "bnd",
    }, "bounds")
    result = run_bounds(config, tmp_path)
    assert result.ok
    additive_item, cubic_item = result.report["items"]
    assert additive_item["l"] == 1
    assert additive_item["upper"] == pytest.approx(0.5, rel=1e-9)
    assert cubic_item["l"] == -1
    assert cubic_item["upper"] == pytest.approx(0.25, rel=1e-9)


def test_run_bounds_expectation_failure(tmp_path):
    config = ExperimentConfig.from_json_dict({
        "mode": "float",
        "bounds": [{"kind": "additive",
                    "phi": {"variant": "sum_of_powers", "theta": "1",
                            "power": "1"},
                    "x": ["1"], "l": -1}],  # diverges but expected converged
        "output_stem": "bnd",
    }, "bounds")
    result = run_bounds(config, tmp_path)
    assert not result.ok and result.exit_code == 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_doc(**overrides):
    doc = {
        "schema_version": 1,
        "form": "sum",
        "p": [0, 2, 4],
        "theta": [1],
        "epsilon": ["1/1000"],
        "l_mode": ["auto"],
        "base": {"solution": {"linear": "2", "cubic": "1"}, "noise_seed": 11,
                 "samples": {"random": {"count": 10, "seed": 42}}},
        "output_stem": "sw",
    }
    doc.update(overrides)
    return doc


def test_run_sweep_closed_form_column(tmp_path):
    spec = SweepSpec.from_json_dict(sweep_doc())
    result = run_sweep(spec, tmp_path)
    assert result.ok
    with open(tmp_path / "sw.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    closed = [float(row["closed_form"]) for row in rows]
    assert closed == pytest.approx([4 / 21, 1 / 8, 11 / 336], rel=1e-12)
    assert all(row["bound_ok"] == "true" for row in rows)
    assert all(row["status"] == "ok" for row in rows)
    # CSV numerics round-trip exactly against the JSON report
    report = json.loads((tmp_path / "sw.json").read_text())
    for row, cell in zip(rows, report["cells"]):
        assert float(row["closed_form"]) == cell["closed_form"]
        assert float(row["series_value"]) == cell["series_value"]
        assert float(row["max_error"]) == cell["max_error"]


def test_run_sweep_divergent_cell_demonstration(tmp_path):
    spec = SweepSpec.from_json_dict(sweep_doc(p=[3], allow_divergent=True))
    result = run_sweep(spec, tmp_path)
    assert result.ok  # divergence was requested, so the run holds
    with open(tmp_path / "sw.csv", newline="") as handle:
        row = next(csv.DictReader(handle))
    assert row["status"] == "diverged"
    assert row["max_error"] == ""


def test_run_sweep_rejects_excluded_exponent_without_flag(tmp_path, capsys):
    config_path = write_config(tmp_path, "sweep.json", sweep_doc(p=[1]))
    out_dir = tmp_path / "out"
    assert cli_main(["sweep", "--config", str(config_path),
                     "--out-dir", str(out_dir)]) == 2
    assert "p: exponent p=1 is excluded" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_sweep_over_zero_points_exit_2(tmp_path, capsys):
    for samples in ({}, {"random": {"count": 0}}, {"points": [["1", "2"]]}):
        doc = sweep_doc(base={**sweep_doc()["base"], "samples": samples})
        config_path = write_config(tmp_path, "sweep.json", doc)
        out_dir = tmp_path / "out"
        assert cli_main(["sweep", "--config", str(config_path),
                         "--out-dir", str(out_dir)]) == 2
        assert "base.samples" in capsys.readouterr().err
        assert not out_dir.exists()


def test_sweep_bytes_do_not_depend_on_the_direction_cache(tmp_path):
    # The cells share the seed and the points, so the second and later
    # runs in a process read their noise directions from the cache; a run
    # with another seed in between must not leak into the next one.
    spec = SweepSpec.from_json_dict(sweep_doc())
    other = SweepSpec.from_json_dict(sweep_doc(base={
        **sweep_doc()["base"], "noise_seed": 12}))
    outputs = []
    for name, runs in (("first", [spec]), ("second", [spec]),
                       ("third", [other, spec])):
        for run_spec in runs:
            run_sweep(run_spec, tmp_path / name)
        outputs.append({path.name: path.read_bytes()
                        for path in (tmp_path / name).iterdir()})
    assert outputs[0] == outputs[1] == outputs[2]
    assert set(outputs[0]) == {"sw.csv", "sw.json"}


def test_run_sweep_product_form(tmp_path):
    spec = SweepSpec.from_json_dict(sweep_doc(
        form="product", p=[], rs=[[0, 0], [1, 1], [2, 2]]))
    result = run_sweep(spec, tmp_path)
    assert result.ok
    with open(tmp_path / "sw.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    closed = [float(row["closed_form"]) for row in rows]
    assert closed == pytest.approx([2 / 21, 1 / 16, 11 / 672], rel=1e-12)


# ---------------------------------------------------------------------------
# determinism and CLI
# ---------------------------------------------------------------------------

def test_outputs_byte_identical_across_reruns(tmp_path):
    config_path = write_config(tmp_path, "rec.json", recover_config())
    sweep_path = write_config(tmp_path, "sweep.json", sweep_doc())
    lemmas_path = write_config(tmp_path, "lem.json", lemma_config())
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    for out in (out1, out2):
        assert cli_main(["recover", "--config", str(config_path),
                         "--out-dir", str(out)]) == 0
        assert cli_main(["sweep", "--config", str(sweep_path),
                         "--out-dir", str(out)]) == 0
        assert cli_main(["check-lemmas", "--config", str(lemmas_path),
                         "--out-dir", str(out)]) == 0
    for name in ("rec.json", "rec.csv", "sw.csv", "sw.json", "lem.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


GOLDEN_MODELS = [
    {"label": "slope", "dim_in": 2, "dim_out": 2, "atoms": [
        {"kind": "linear", "matrix": [["2", "-1/2"], ["3/4", "1"]]}]},
    {"label": "cube", "dim_in": 2, "dim_out": 2, "atoms": [
        {"kind": "cubic", "dims": [2, 2],
         "terms": [[[[0, 0, 0], "1"], [[0, 1, 1], "-3/4"]],
                   [[[0, 0, 1], "5/2"], [[1, 1, 1], "-1"]]]}]},
    {"label": "blend", "dim_in": 1, "dim_out": 1, "atoms": [
        {"kind": "linear", "matrix": [["3/2"]]},
        {"kind": "cubic", "dims": [1, 1], "terms": [[[[0, 0, 0], "-1/4"]]]},
        {"kind": "even", "matrices": [[["1/3"]]]},
        NOISE_ATOM,
        {"kind": "power_noise", "seed": 5, "amplitude": "1/100",
         "exponent": "2"}]},
]
GOLDEN_EXACT = {
    "schema_version": 1, "mode": "exact", "models": GOLDEN_MODELS,
    "samples": {"pairs": [[["1", "-2"], ["1/2", "3"]], [["1"], ["1"]],
                          [["-3/4"], ["5/2"]]],
                "random": {"count": 3, "seed": 9}},
    "chain": True, "catalogue_out": "catalogue.json", "output_stem": "golden",
}
GOLDEN_FLOAT = {key: value for key, value in GOLDEN_EXACT.items()
                if key != "catalogue_out"} | {"mode": "float"}
# sha256 of each file check-lemmas writes for the golden configs.  A change
# to the residual arithmetic or the report layout changes these bytes.
GOLDEN_SHA256 = {
    "exact": {
        "golden.json": "f2c865317f5feca95b02a8b7d2fb2942"
                       "cdb16f10b1cc97a0fa6965ddd0ba8e64",
        "catalogue.json": "807473463c2db9ec2080be6e13312d82"
                          "10e20f9c6793cd7f49433d61b78c10be",
    },
    "float": {
        "golden.json": "9f42be714a5f7e0bab9e74a67afe26e0"
                       "e70dbdb2b0caff14a37b5b8c898f0390",
    },
}


def test_check_lemmas_golden_report_bytes(tmp_path):
    for name, doc in (("exact", GOLDEN_EXACT), ("float", GOLDEN_FLOAT)):
        config_path = write_config(tmp_path, f"{name}.json", doc)
        out_dir = tmp_path / name
        assert cli_main(["check-lemmas", "--config", str(config_path),
                         "--out-dir", str(out_dir)]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in out_dir.iterdir()}
        assert digests == GOLDEN_SHA256[name], name


REPLAY_DOC = {
    "schema_version": 1, "mode": "exact",
    "models": [{"label": "lin", "dim_in": 2, "dim_out": 1, "atoms": [
                    {"kind": "linear", "matrix": [["3", "-1/2"]]}]},
               {"label": "mix", "dim_in": 1, "dim_out": 1,
                "atoms": [LINEAR_ATOM, CUBIC_ATOM, NOISE_ATOM]}],
    "families": {"linear": 1, "cubic": 1, "seed": 3},
    "samples": {"pairs": [[["1", "2"], ["-1/3", "5"]], [["2"], ["-7/4"]]],
                "random": {"count": 4, "seed": 8}},
    "catalogue_out": "catalogue.json", "output_stem": "rep",
}
# Exact-mode recovery along both directions with power noise.
RECOVER_EXACT_DOC = recover_config(
    mode="exact",
    model={"dim_in": 1, "dim_out": 1, "atoms": [
        {"kind": "linear", "matrix": [["2"]]}, CUBIC_ATOM,
        {"kind": "power_noise", "seed": 5, "amplitude": "1/1000",
         "exponent": "2"}]},
    directions={"additive": 1, "cubic": "auto"},
    samples={"points": [["1"], ["-3/2"]], "random": {"count": 3, "seed": 4}},
    n_max=40, output_stem="recx")
# Exact 2-D recovery of a model with every atom kind but power noise: an
# even atom is in f(x), so in raw_error, and not in the odd part.
RECOVER_BLEND_DOC = recover_config(
    mode="exact",
    model={"dim_in": 2, "dim_out": 2, "atoms": [
        GOLDEN_MODELS[0]["atoms"][0], GOLDEN_MODELS[1]["atoms"][0],
        {"kind": "even", "matrices": [[["1/3", "0"], ["0", "1"]],
                                      [["0", "1/2"], ["1/2", "0"]]]},
        {"kind": "bounded_noise", "seed": 3, "amplitude": "1/1000"}]},
    phi={"variant": "constant", "value": "1"},
    directions={"additive": -1, "cubic": -1},
    samples={"points": [["1", "-2"], ["0", "0"]],
             "random": {"count": 3, "seed": 4}},
    n_max=40, output_stem="blend")
# Product form with a divergent cell (p = r + s = 1) documented, not rejected.
SWEEP_PRODUCT_DOC = sweep_doc(
    form="product", p=[], rs=[["1/2", "1/2"], [0, 0], [1, "3/2"]],
    theta=["1/2", 2], epsilon=[0, "1/1000"], l_mode=["auto", "neg"],
    allow_divergent=True)
# Float recovery of the benchmark's model at the non-dyadic points n/7, where
# float cancellation along the orbit once broke the bound at 169 of the 200.
RECOVER_SEVENTHS_DOC = recover_config(
    directions={"additive": -1, "cubic": -1},
    samples={"random": {"count": 200, "seed": 1708705673,
                        "max_denominator": 7}},
    output_stem="rec7")
# The benchmark's seed-1 sweep in every direction mode: fractional
# exponents take the float-pow noise scale, and "pos" forces l = +1 where
# "auto" picks -1.
SWEEP_DIRECTIONS_DOC = sweep_doc(
    p=["0", "1/2", "1", "2", "5/2", "3", "4", "5"], theta=["1"],
    l_mode=["auto", "pos", "neg"], allow_divergent=True,
    base={"solution": {"linear": "2", "cubic": "1"}, "noise_seed": 1548140966,
          "samples": {"random": {"count": 6, "seed": 912610027}}})
# sha256 of each file the other subcommands write for pinned configs.  A
# change to a runner, to the config readers or to a report layout changes
# these bytes.
COMMAND_GOLDENS = {
    "recover-float": ("recover", recover_config(), {
        "rec.json": "b7feadf76a57a9f797215f8f3147536f"
                    "1de9ec8a2903608d8e87348363d6469e",
        "rec.csv": "1865b7824478dfea0eb9b9cf46a15df1"
                   "4a3526e6d044906f4080bdb2f6d9c1f1",
    }),
    "recover-float-sevenths": ("recover", RECOVER_SEVENTHS_DOC, {
        "rec7.json": "5110f9ebfa4d57858a7fba42d38f1d29"
                     "d7368e1c2c2721b055ca2627a246d272",
        "rec7.csv": "4b246c588c3fa03127a9aa1737e2ea61"
                    "d949a10f259886c8af09efbbeabbceaf",
    }),
    "recover-exact": ("recover", RECOVER_EXACT_DOC, {
        "recx.json": "e2c80791c2201a6c74128eff21f6cc5c"
                     "6d4721c2be23be7311dcb0f635a8b7b5",
        "recx.csv": "ed9306adb50eeb29570df3f38c5d4bc8"
                    "00be2aed4276887c189689ba6dd10d97",
    }),
    "recover-exact-blend": ("recover", RECOVER_BLEND_DOC, {
        "blend.json": "d38eaf9e35faf561b5a918fa0557fde1"
                      "90f6f27f53d353560f0162900b2304d7",
        "blend.csv": "933f1781979ca3f3cd2a0ff4e1459fa5"
                     "b0ce1bb976e88091bd4dc34d30c8f723",
    }),
    "replay-chain": ("replay-chain", REPLAY_DOC, {
        "rep.json": "d113c44a492bbda8cc0c9056935edb22"
                    "81cb251a645ae758b55f6e8ba8c4847a",
        "catalogue.json": "807473463c2db9ec2080be6e13312d82"
                          "10e20f9c6793cd7f49433d61b78c10be",
    }),
    "bounds": ("bounds", BOUNDS_DOC, {
        "bnd.json": "3df669076c6d89992d48301d36f15c79"
                    "bbb46058a9f23920a9d467adf965130c",
    }),
    "sweep-sum": ("sweep", sweep_doc(), {
        "sw.csv": "57b5ef119ef41f563ef2c2f8a75bd3a7"
                  "8076899785f6815282b94cc1c420584b",
        "sw.json": "6f2dd9a9611b9fde4e6917789c1816da"
                   "fe792ceee107bb3718cafcc9d195b1ed",
    }),
    "sweep-product": ("sweep", SWEEP_PRODUCT_DOC, {
        "sw.csv": "3dcafef606fffcadc78a71257dc33554"
                  "cde7b6c859222875c8a764dd131711c5",
        "sw.json": "160723edd4cc53a58b9100f5439b5cc6"
                   "0f6bc054fdeecea59d5f66fed802c793",
    }),
    "sweep-fractional-directions": ("sweep", SWEEP_DIRECTIONS_DOC, {
        "sw.csv": "c3ebc5756e482978ee2a1c466b078197"
                  "9e220ce775a742e1cc200ab3b1b3dd04",
        "sw.json": "c407a3285592ca92f5acbf0bc92f2177"
                   "8faf6f23465bcd244c4ed9ad942c04e3",
    }),
}


@pytest.mark.parametrize("name", sorted(COMMAND_GOLDENS))
def test_command_golden_report_bytes(tmp_path, name):
    command, doc, expected = COMMAND_GOLDENS[name]
    config_path = write_config(tmp_path, "config.json", doc)
    out_dir = tmp_path / "out"
    assert cli_main([command, "--config", str(config_path),
                     "--out-dir", str(out_dir)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out_dir.iterdir()}
    assert digests == expected


def test_cli_out_dir_environment_override(tmp_path, monkeypatch, capsys):
    config_path = write_config(tmp_path, "lem.json", lemma_config())
    target = tmp_path / "env_out"
    monkeypatch.setenv("ADDCUBIC_OUT_DIR", str(target))
    assert cli_main(["check-lemmas", "--config", str(config_path)]) == 0
    assert (target / "lem.json").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["recover", "--config", str(bad),
                     "--out-dir", str(tmp_path)]) == 2
    missing = tmp_path / "missing.json"
    assert cli_main(["recover", "--config", str(missing),
                     "--out-dir", str(tmp_path)]) == 2


def test_cli_unreadable_config_exit_2(tmp_path, capsys):
    cases = {"nested": "[" * 100_000 + "]" * 100_000,
             "latin-1": '{"output_stem": "caf\xe9"}'}
    for name, text in cases.items():
        config_path = tmp_path / f"{name}.json"
        config_path.write_bytes(text.encode("latin-1"))
        assert cli_main(["recover", "--config", str(config_path),
                         "--out-dir", str(tmp_path / "out")]) == 2, name
        assert "invalid JSON" in capsys.readouterr().err, name


def test_cli_n_max_below_one_exit_2(tmp_path, capsys):
    cases = (("recover", recover_config(n_max=0)),
             ("sweep", sweep_doc(base={**sweep_doc()["base"], "n_max": 0})))
    for command, doc in cases:
        config_path = write_config(tmp_path, f"{command}.json", doc)
        assert cli_main([command, "--config", str(config_path),
                         "--out-dir", str(tmp_path / "out")]) == 2
        assert "n_max must be at least 1" in capsys.readouterr().err


def test_cli_failure_exit_code(tmp_path):
    config_path = write_config(tmp_path, "rec.json", recover_config(
        model={"dim_in": 1, "dim_out": 1,
               "atoms": [{"kind": "linear", "matrix": [["2"]]}, CUBIC_ATOM,
                         {"kind": "power_noise", "seed": 3,
                          "amplitude": "1/1000", "exponent": "1"}]}))
    assert cli_main(["recover", "--config", str(config_path),
                     "--out-dir", str(tmp_path)]) == 1
