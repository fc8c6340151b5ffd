import json
from fractions import Fraction

import pytest

from addcubic import (BoundedNoise, Constant, CubicHomogeneous, Even,
                      FuncModel, Linear, PowerNoise, ProductOfPowers,
                      SumOfPowers, cubic_1d, linear_1d)
from addcubic.config import (ConfigError, ExperimentConfig, SampleSpec,
                             SweepSpec, atom_from_json, atom_to_json,
                             model_from_json, model_to_json, phi_from_json,
                             phi_to_json)


def test_atom_round_trips():
    atoms = [
        Linear(((Fraction(2), Fraction(1, 2)), (Fraction(0), Fraction(-3)))),
        CubicHomogeneous(((((0, 0, 0), Fraction(1)),),
                          (((0, 0, 0), Fraction(-2, 3)),)), dims=(1, 2)),
        Even((((Fraction(1),),),)),
        BoundedNoise(7, Fraction(1, 1000)),
        PowerNoise(9, Fraction(3, 100), Fraction(5, 2)),
    ]
    for atom in atoms:
        doc = atom_to_json(atom)
        assert atom_from_json(json.loads(json.dumps(doc))) == atom


def test_model_round_trip():
    model = FuncModel(1, 1, (linear_1d(2), cubic_1d(1),
                             BoundedNoise(7, Fraction(1, 1000))))
    assert model_from_json(model_to_json(model)) == model


def test_phi_round_trips():
    for phi in (Constant(Fraction(19, 250)), SumOfPowers(1, 2),
                ProductOfPowers(Fraction(1, 2), 1, 1)):
        assert phi_from_json(phi_to_json(phi)) == phi


def test_bad_documents_raise_config_error():
    with pytest.raises(ConfigError):
        atom_from_json({"kind": "mystery"})
    with pytest.raises(ConfigError):
        atom_from_json({"kind": "linear"})
    with pytest.raises(ConfigError):
        phi_from_json({"variant": "constant"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_dict({"schema_version": 99})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_dict({"mode": "decimal"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_dict({"norm": "hamming"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_dict({"directions": {"additive": 2}})
    for n_max in (0, -3):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_dict({"n_max": n_max})


def test_experiment_config_parsing(tmp_path):
    doc = {
        "schema_version": 1,
        "dim_in": 1, "dim_out": 1,
        "norm": "max",
        "mode": "float",
        "model": {"dim_in": 1, "dim_out": 1,
                  "atoms": [{"kind": "linear", "matrix": [["2"]]}]},
        "phi": "certify",
        "directions": {"additive": -1, "cubic": "auto"},
        "samples": {"points": [["1"], ["1/2"]],
                    "random": {"count": 5, "seed": 3}},
        "tolerances": {"abs": 1e-10, "rel": 1e-9, "series": 1e-11},
        "n_max": 32,
        "output_stem": "run",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    config = ExperimentConfig.load(path)
    assert config.norm_kind == "max"
    assert config.mode == "float"
    assert config.phi_certify and config.phi is None
    assert config.direction_additive == -1
    assert config.direction_cubic == "auto"
    assert config.tol_abs == 1e-10 and config.n_max == 32
    points = config.samples.sample_points(1, config.mode, config.norm_kind)
    assert len(points) == 7
    assert points[0].coords == (1.0,)


def test_sample_points_dimension_filtering():
    spec = SampleSpec.from_json({"points": [["1"], ["1", "2"]],
                                 "pairs": [[["1"], ["1"]],
                                           [["1", "0"], ["0", "1"]]]})
    assert len(spec.explicit_points(1, "exact", "euclidean")) == 1
    assert len(spec.explicit_points(2, "exact", "euclidean")) == 1
    assert len(spec.explicit_pairs(2, "exact", "euclidean")) == 1


def test_random_samples_are_deterministic():
    spec = SampleSpec.from_json({"random": {"count": 6, "seed": 11}})
    first = spec.sample_points(2, "exact", "euclidean")
    second = spec.sample_points(2, "exact", "euclidean")
    assert [p.coords for p in first] == [p.coords for p in second]
    # denominators stay within the configured grid
    assert all(c.denominator <= 1024 for p in first for c in p.coords)
    assert all(-8 <= c <= 8 for p in first for c in p.coords)


def test_family_models_generation():
    config = ExperimentConfig.from_json_dict({
        "families": {"linear": 3, "cubic": 2, "seed": 5, "dims": [[1, 1], [2, 2]]},
    })
    labeled = config.family_models()
    assert len(labeled) == 5
    labels = [label for label, _ in labeled]
    assert labels == ["linear_000", "linear_001", "linear_002",
                      "cubic_000", "cubic_001"]
    regenerated = config.family_models()
    assert [m for _, m in labeled] == [m for _, m in regenerated]


def test_sweep_spec_parsing_and_cells():
    spec = SweepSpec.from_json_dict({
        "schema_version": 1,
        "form": "sum",
        "p": [4, 0, 2],
        "theta": [1],
        "epsilon": ["1/1000"],
        "l_mode": ["auto"],
        "base": {"solution": {"linear": "2", "cubic": "1"},
                 "samples": {"random": {"count": 4, "seed": 2}}},
    })
    cells = spec.cells()
    assert [float(c["p"]) for c in cells] == [0.0, 2.0, 4.0]  # sorted
    assert all(c["epsilon"] == Fraction(1, 1000) for c in cells)


def test_sweep_spec_product_form():
    spec = SweepSpec.from_json_dict({
        "form": "product",
        "rs": [[1, 1], [0, 0]],
        "epsilon": [0],
    })
    cells = spec.cells()
    assert [(float(c["r"]), float(c["s"])) for c in cells] == [(0, 0), (1, 1)]
    assert [float(c["p"]) for c in cells] == [0.0, 2.0]


def test_sweep_spec_rejects_unknown_form_and_mode():
    with pytest.raises(ConfigError):
        SweepSpec.from_json_dict({"form": "ratio"})
    with pytest.raises(ConfigError):
        SweepSpec.from_json_dict({"l_mode": ["sideways"]})
    with pytest.raises(ConfigError):
        SweepSpec.from_json_dict({"base": {"n_max": 0}})
