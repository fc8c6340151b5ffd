"""The command line: its grammar, usage errors and help.

A usage error returns 2 (it does not raise ``SystemExit``), prints the
usage line and the error to stderr, and writes no file.
"""

import json

import pytest

from addcubic.cli import OUT_DIR_ENV, main

CONFIG = {
    "schema_version": 1, "mode": "exact",
    "models": [{"label": "slope", "dim_in": 1, "dim_out": 1,
                "atoms": [{"kind": "linear", "matrix": [["2"]]}]}],
    "samples": {"random": {"count": 3, "seed": 1}},
    "output_stem": "lem",
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config" / "lem.config.json"
    path.parent.mkdir()
    path.write_text(json.dumps(CONFIG), encoding="utf-8")
    return path


@pytest.fixture
def work_dir(tmp_path, monkeypatch):
    """An empty working directory, also the environment's output directory:
    a file written by default lands here."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv(OUT_DIR_ENV, str(work))
    return work


@pytest.mark.parametrize("argv, error", [
    ([], "a subcommand is required"),
    (["bogus"], "unknown subcommand 'bogus'"),
    (["--config", "CONFIG"], "unknown subcommand '--config'"),
    (["check-lemmas"], "--config is required"),
    (["check-lemmas", "--out-dir", "out"], "--config is required"),
    (["check-lemmas", "--config"], "--config expects a value"),
    (["check-lemmas", "--config", "--out-dir", "out"],
     "--config expects a value"),
    (["check-lemmas", "--config", "CONFIG", "--out-dir"],
     "--out-dir expects a value"),
    (["check-lemmas", "--conf", "CONFIG"], "unrecognized argument '--conf'"),
    (["check-lemmas", "--conf=lem.json"],
     "unrecognized argument '--conf=lem.json'"),
    (["check-lemmas", "--config", "CONFIG", "--seed", "3"],
     "unrecognized argument '--seed'"),
    (["check-lemmas", "--config", "CONFIG", "extra"],
     "unrecognized argument 'extra'"),
    (["check-lemmas", "CONFIG"], "unrecognized argument 'CONFIG'"),
])
def test_usage_error_returns_2_and_writes_nothing(argv, error, config_path,
                                                  work_dir, capsys):
    argv = [str(config_path) if arg == "CONFIG" else arg for arg in argv]
    error = error.replace("CONFIG", str(config_path))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    usage, message = err.splitlines()
    assert usage.startswith("usage: addcubic {check-lemmas,")
    assert message == f"addcubic: error: {error}"
    assert out == ""
    assert list(work_dir.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["check-lemmas", "-h"], ["bogus", "--help"],
    ["check-lemmas", "--config", "CONFIG", "--help"],
])
def test_help_prints_the_usage_and_returns_0(argv, work_dir, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == ("usage: addcubic {check-lemmas,replay-chain,recover,"
                   "bounds,sweep} --config PATH [--out-dir DIR]\n")
    assert err == ""
    assert list(work_dir.iterdir()) == []


def test_flags_take_the_equals_form(config_path, tmp_path, work_dir):
    out = tmp_path / "out"
    assert main(["check-lemmas", f"--config={config_path}",
                 f"--out-dir={out}"]) == 0
    assert [path.name for path in out.iterdir()] == ["lem.json"]
    assert list(work_dir.iterdir()) == []


def test_a_repeated_flag_takes_its_last_value(config_path, tmp_path,
                                             work_dir):
    first, last = tmp_path / "first", tmp_path / "last"
    assert main(["check-lemmas", "--config", str(tmp_path / "missing.json"),
                 "--out-dir", str(first), f"--config={config_path}",
                 "--out-dir", str(last)]) == 0
    assert not first.exists()
    assert [path.name for path in last.iterdir()] == ["lem.json"]


def test_out_dir_flag_wins_over_the_environment(config_path, tmp_path,
                                                work_dir):
    flag = tmp_path / "flag"
    assert main(["check-lemmas", "--config", str(config_path),
                 "--out-dir", str(flag)]) == 0
    assert [path.name for path in flag.iterdir()] == ["lem.json"]
    assert list(work_dir.iterdir()) == []
