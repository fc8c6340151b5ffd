import csv
import hashlib
import json

import pytest

from addcubic import FuncModel
from addcubic.cli import main as cli_main
from addcubic.config import ConfigError, ExperimentConfig, SweepSpec
from addcubic.harness import (run_bounds, run_check_lemmas, run_recover,
                              run_replay_chain, run_sweep)

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
        samples={"random": {"count": 100, "seed": 6}}))
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
        ExperimentConfig.from_json_dict(lemma_config()), tmp_path)
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
                 "atoms": [EVEN_ATOM]}]))
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


def test_check_lemmas_evaluates_each_argument_once(tmp_path, monkeypatch):
    calls = []
    evaluate = FuncModel.evaluate_coords

    def counted(model, coords, mode):
        calls.append((id(model), coords))
        return evaluate(model, coords, mode)

    monkeypatch.setattr(FuncModel, "evaluate_coords", counted)
    pairs = 1 + 25  # one explicit pair, 25 random ones, per model
    for mode, per_pair in (("exact", 19), ("float", 8)):
        calls.clear()
        config = ExperimentConfig.from_json_dict(lemma_config(mode=mode))
        assert run_check_lemmas(config, tmp_path).ok
        assert len(calls) == 2 * pairs * per_pair


def test_replay_chain_runner(tmp_path):
    config = ExperimentConfig.from_json_dict({
        "mode": "exact",
        "models": [{"label": "lin", "dim_in": 1, "dim_out": 1,
                    "atoms": [LINEAR_ATOM]}],
        "samples": {"random": {"count": 10, "seed": 1}},
        "catalogue_out": "catalogue.json",
        "output_stem": "rep",
    })
    result = run_replay_chain(config, tmp_path)
    assert result.ok
    identities = result.report["models"][0]["identities"]
    assert len(identities) == 21
    assert all(row["nonzero_count"] == 0 for row in identities.values())
    catalogue = json.loads((tmp_path / "catalogue.json").read_text())
    assert len(catalogue["identities"]) == 21


def test_replay_chain_rejects_float_mode(tmp_path):
    config = ExperimentConfig.from_json_dict({"mode": "float"})
    with pytest.raises(ConfigError):
        run_replay_chain(config, tmp_path)


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
    config = ExperimentConfig.from_json_dict(recover_config())
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
               "atoms": [{"kind": "linear", "matrix": [["2"]]}, CUBIC_ATOM]}))
    result = run_recover(config, tmp_path)
    assert result.ok
    assert result.report["summary"]["max_error"] <= 1e-12


def test_run_recover_divergent_series_status(tmp_path):
    config = ExperimentConfig.from_json_dict(recover_config(
        model={"dim_in": 1, "dim_out": 1,
               "atoms": [{"kind": "linear", "matrix": [["2"]]}, CUBIC_ATOM,
                         {"kind": "power_noise", "seed": 3,
                          "amplitude": "1/1000", "exponent": "1"}]}))
    result = run_recover(config, tmp_path)
    assert not result.ok
    assert result.status == "divergent-series"
    doc = json.loads((tmp_path / "rec.json").read_text())
    assert doc["status"] == "divergent-series"


def test_run_recover_requires_model(tmp_path):
    config = ExperimentConfig.from_json_dict({"mode": "float"})
    with pytest.raises(ConfigError):
        run_recover(config, tmp_path)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_run_bounds_items_and_consistency(tmp_path):
    config = ExperimentConfig.from_json_dict({
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
    })
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
    })
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
    })
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


def test_run_sweep_rejects_excluded_exponent_without_flag(tmp_path):
    spec = SweepSpec.from_json_dict(sweep_doc(p=[1]))
    with pytest.raises(ConfigError):
        run_sweep(spec, tmp_path)


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
        "golden.json": "7c9a0ba660f23438a3cb492203a750d1"
                       "7461dfa9198c5d5438a1859ea32c643a",
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
