import copy
import json
import re
import tempfile
import textwrap
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from addcubic import (BoundedNoise, Constant, CubicHomogeneous, Even,
                      FuncModel, Linear, PowerNoise, ProductOfPowers,
                      SumOfPowers, cubic_1d, linear_1d)
from addcubic.cli import main as cli_main
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
        ExperimentConfig.from_json_dict({"schema_version": 99}, "bounds")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_dict({"mode": "decimal"}, "check-lemmas")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_dict({"norm": "hamming"}, "replay-chain")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_dict({"directions": {"additive": 2}},
                                        "recover")
    for n_max in (0, -3):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_dict({"n_max": n_max}, "recover")


def test_experiment_config_parsing(tmp_path):
    doc = {
        "schema_version": 1,
        "norm": "max",
        "mode": "float",
        "model": {"dim_in": 1, "dim_out": 1,
                  "atoms": [{"kind": "linear", "matrix": [["2"]]}]},
        "phi": "certify",
        "directions": {"additive": -1, "cubic": "auto"},
        "samples": {"points": [["1"], ["1/2"]],
                    "random": {"count": 5, "seed": 3}},
        "n_max": 32,
        "output_stem": "run",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    config = ExperimentConfig.load(path, "recover")
    assert config.norm_kind == "max"
    assert config.mode == "float"
    assert config.phi is None
    assert config.direction_additive == -1
    assert config.direction_cubic == "auto"
    assert config.n_max == 32
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
    }, "check-lemmas")
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


# ---------------------------------------------------------------------------
# Every document either runs or is rejected with exit code 2
# ---------------------------------------------------------------------------

def _valid_documents():
    from test_harness import BOUNDS_DOC, lemma_config, recover_config, sweep_doc
    return {"check-lemmas": lemma_config(), "replay-chain": lemma_config(),
            "recover": recover_config(), "bounds": BOUNDS_DOC,
            "sweep": sweep_doc()}


def _positions(node, path=()):
    """(path, value) of every value below ``node``, ``node`` included."""
    yield path, node
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _positions(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


BAD_VALUES = st.one_of(
    st.text(max_size=12), st.floats(), st.none(),
    st.lists(st.one_of(st.integers(-3, 3), st.text(max_size=3)), max_size=3),
    st.integers(max_value=-1), st.floats(max_value=0.0, exclude_max=True))


# The top-level keys each subcommand reads.
_COMMON_KEYS = {"schema_version", "norm", "mode", "output_stem"}
_LEMMA_KEYS = _COMMON_KEYS | {"model", "models", "families", "samples",
                              "catalogue_out"}
COMMAND_KEYS = {
    "check-lemmas": _LEMMA_KEYS | {"chain"},
    "replay-chain": _LEMMA_KEYS,
    "recover": _COMMON_KEYS | {"model", "phi", "directions", "samples",
                               "n_max"},
    "bounds": _COMMON_KEYS | {"bounds", "consistency"},
    "sweep": {"schema_version", "form", "p", "rs", "theta", "epsilon",
              "l_mode", "allow_divergent", "base", "output_stem"},
}


# A value each subcommand that reads the key accepts.
KEY_VALUES = {
    "schema_version": 1, "norm": "max", "mode": "exact", "output_stem": "out",
    "model": {"atoms": [{"kind": "linear", "matrix": [["2"]]}]},
    "models": [], "families": {"linear": 1}, "samples": {"points": [["1"]]},
    "chain": False, "catalogue_out": "catalogue.json", "phi": "certify",
    "directions": {"additive": 1}, "n_max": 8,
    "bounds": [], "consistency": {"p": [2]}, "form": "sum", "p": [2],
    "rs": [[1, 1]], "theta": [1], "epsilon": [0], "l_mode": ["auto"],
    "allow_divergent": True, "base": {"n_max": 8},
}


def _other_keys(command):
    """Top-level keys other subcommands read and ``command`` does not."""
    return sorted(set(KEY_VALUES) - COMMAND_KEYS[command])


@st.composite
def mutated_documents(draw):
    """A subcommand's valid document with one key dropped, one unknown key
    added at any depth, one value replaced by a value of another kind, or
    one top-level key of another subcommand added.

    Returns the subcommand, the document and the exit codes allowed: only
    2 for a key of another subcommand.
    """
    command = draw(st.sampled_from(sorted(_valid_documents())))
    doc = copy.deepcopy(_valid_documents()[command])
    objects = [path for path, node in _positions(doc)
               if isinstance(node, dict) and node]
    mutation = draw(st.sampled_from(("drop", "add", "replace", "other")))
    if mutation == "other":
        key = draw(st.sampled_from(_other_keys(command)))
        doc[key] = KEY_VALUES[key]
        return command, doc, (2,)
    if mutation == "drop":
        node = _at(doc, draw(st.sampled_from(objects)))
        del node[draw(st.sampled_from(sorted(node)))]
    elif mutation == "add":
        node = _at(doc, draw(st.sampled_from(objects)))
        key = draw(st.text(min_size=1, max_size=10).filter(
            lambda k: k not in node))
        node[key] = draw(st.one_of(BAD_VALUES, st.integers(0, 3)))
    else:
        path = draw(st.sampled_from([p for p, _ in _positions(doc) if p]))
        _at(doc, path[:-1])[path[-1]] = draw(BAD_VALUES)
    return command, doc, (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(mutated_documents())
def test_mutated_document_exits_0_1_or_2(case):
    command, doc, codes = case
    with tempfile.TemporaryDirectory() as scratch:
        config_path = Path(scratch) / "config.json"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        code = cli_main([command, "--config", str(config_path),
                         "--out-dir", str(Path(scratch) / "out")])
    assert code in codes


def _bad_document(command, edit):
    doc = copy.deepcopy(_valid_documents()[command])
    edit(doc)
    return doc


# (subcommand, edit of its valid document, key path named in the error)
BAD_DOCUMENTS = {
    "n_max-string": ("recover", lambda d: d.update(n_max="many"), "n_max"),
    "count-string": ("check-lemmas",
                     lambda d: d["samples"]["random"].update(count="ten"),
                     "samples.random.count"),
    "noise_seed-string": ("sweep",
                          lambda d: d["base"].update(noise_seed="abc"),
                          "base.noise_seed"),
    "families-string": ("check-lemmas",
                        lambda d: d.update(families={"linear": "two"}),
                        "families.linear"),
    "bounds-item-without-phi": ("bounds", lambda d: d["bounds"][0].pop("phi"),
                                "bounds[0].phi"),
    "l-string": ("bounds", lambda d: d["bounds"][0].update(l="up"),
                 "bounds[0].l"),
    # Each series is one closed form: no truncation tolerance, and no
    # inconclusive status to expect.
    "tol-string": ("bounds", lambda d: d["bounds"][0].update(tol="tiny"),
                   "unknown key 'bounds[0].tol'"),
    "expect-inconclusive": ("bounds",
                            lambda d: d["bounds"][0].update(
                                expect="inconclusive"),
                            "bounds[0].expect"),
    # The iterates stop at the certified depth; the gap tolerances of the
    # old stopping rule are gone.
    "tolerances-string": ("recover",
                          lambda d: d.update(tolerances={"abs": "tiny"}),
                          "unknown key 'tolerances'"),
    "tolerances-in-recover": ("recover",
                              lambda d: d.update(tolerances={"abs": 1e-12}),
                              "unknown key 'tolerances'"),
    "tolerances-in-sweep": ("sweep", lambda d: d["base"].update(
        tolerances={"series": 1e-12}), "unknown key 'base.tolerances'"),
    "consistency-p-string": ("bounds",
                             lambda d: d["consistency"].update(p=["x"]),
                             "consistency.p[0]"),
    "chain-string": ("check-lemmas", lambda d: d.update(chain="false"),
                     "chain"),
    "misspelled-key": ("recover",
                       lambda d: d.update(tolerences={"abs": 1e-9}),
                       "tolerences"),
    "l_mode-string": ("sweep", lambda d: d.update(l_mode="auto"),
                      "l_mode must be a list"),
    "top-level-dim_in": ("recover", lambda d: d.update(dim_in=1), "dim_in"),
    "output-outside-out-dir": ("check-lemmas",
                               lambda d: d.update(output_stem="../lem"),
                               "output_stem"),
    "bounds-nothing-to-check": ("bounds",
                                lambda d: [d.pop("bounds"),
                                           d.pop("consistency")],
                                "bounds"),
    "sweep-empty-grid": ("sweep", lambda d: d.update(theta=[]), "theta"),
    "even-form-not-square": ("check-lemmas", lambda d: d["models"][0].update(
        atoms=[{"kind": "even", "matrices": [[["1", "2"]]]}]),
        "models[0].atoms[0]"),
    # r + s is not 1, but float(r) + float(s) is, and the closed form adds
    # the floats.
    "consistency-rs-float-sum-1": ("bounds", lambda d: d.update(
        mode="float", consistency={"theta": 1, "rs": [[
            "377789318629571784867839/1208925819614629174706176",
            "831136500985057624719359/1208925819614629174706176"]]}),
        "consistency.rs"),
    # The same pair in a product-form sweep: its cell would diverge.
    "sweep-rs-float-sum-1": ("sweep", lambda d: d.update(
        form="product", epsilon=["0"], rs=[[
            "377789318629571784867839/1208925819614629174706176",
            "831136500985057624719359/1208925819614629174706176"]]), "rs"),
    # Each form reads one exponent axis; a value on the other is not run.
    "sweep-p-under-product": ("sweep", lambda d: d.update(
        form="product", rs=[[1, 1]]), "p is not read"),
    "sweep-rs-under-sum": ("sweep", lambda d: d.update(rs=[[1, 1]]),
                           "rs is not read"),
    # A key of another subcommand is unknown.
    "chain-in-recover": ("recover", lambda d: d.update(chain=True), "chain"),
    "tolerances-in-check-lemmas": ("check-lemmas", lambda d: d.update(
        tolerances={"rel": 1e-3}), "tolerances"),
    "n_max-in-bounds": ("bounds", lambda d: d.update(n_max=8), "n_max"),
    "chain-in-replay-chain": ("replay-chain",
                              lambda d: d.update(chain=False), "chain"),
    # The catalogue would overwrite the report.
    "catalogue-over-report-check-lemmas": ("check-lemmas", lambda d: d.update(
        output_stem="rep", catalogue_out="rep.json"), "catalogue_out"),
    "catalogue-over-report-replay-chain": ("replay-chain", lambda d: d.update(
        output_stem="rep", catalogue_out="rep.json"), "catalogue_out"),
}


@pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
def test_bad_document_exits_2_naming_the_key(tmp_path, capsys, name):
    command, edit, key = BAD_DOCUMENTS[name]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_bad_document(command, edit)))
    out_dir = tmp_path / "out"
    assert cli_main([command, "--config", str(config_path),
                     "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_key_of_another_subcommand_exits_2(tmp_path, capsys, command):
    assert set(KEY_VALUES) == set().union(*COMMAND_KEYS.values())
    config_path = tmp_path / "config.json"
    for key in _other_keys(command):
        doc = {**_valid_documents()[command], key: KEY_VALUES[key]}
        config_path.write_text(json.dumps(doc))
        assert cli_main([command, "--config", str(config_path),
                         "--out-dir", str(tmp_path / "out")]) == 2, key
        assert f"unknown key {key!r}" in capsys.readouterr().err, key


# ---------------------------------------------------------------------------
# README's documented configs load
# ---------------------------------------------------------------------------

def _readme_config_examples() -> list:
    """(subcommand, document) of every JSON example in README's config
    schema section.  The subcommand is that of the list item holding the
    example, or None for an example outside the list."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    schema = readme[readme.index("### Config schema"):
                    readme.index("## Module map")]
    examples = []
    for block in re.finditer(r"^( *)```json\n(.*?)^\1```", schema,
                             re.MULTILINE | re.DOTALL):
        items = re.findall(r"^\* `([a-z-]+)`", schema[:block.start()],
                           re.MULTILINE)
        command = items[-1] if block.group(1) else None
        text = textwrap.dedent(block.group(2))
        docs = [json.loads(text)] if text.startswith("{\n") else [
            json.loads(line) for line in text.splitlines()]  # one per line
        examples.extend((command, doc) for doc in docs)
    return examples


def _read(command, doc):
    if command == "sweep":
        return SweepSpec.from_json_dict(doc)
    return ExperimentConfig.from_json_dict(doc, command)


def test_readme_config_examples_load():
    """Each example loads with its subcommand's reader, and the common
    fields with every reader but the sweep's.  A subcommand's examples and
    the common fields show every key it reads."""
    loaded = Counter()
    shown = {command: set() for command in COMMAND_KEYS}
    for command, doc in _readme_config_examples():
        tag = next((key for key in ("kind", "variant") if key in doc), None)
        if command is None and tag:
            (atom_from_json if tag == "kind" else phi_from_json)(doc)
            loaded[tag] += 1
            continue
        for name in [command] if command else sorted(
                set(COMMAND_KEYS) - {"sweep"}):
            _read(name, doc)
            shown[name] |= set(doc)
        loaded[command or "common"] += 1
    assert shown == COMMAND_KEYS
    assert loaded == {"kind": 5, "variant": 3, "common": 1, "check-lemmas": 1,
                      "replay-chain": 1, "recover": 1, "bounds": 1,
                      "sweep": 1}
