"""Start-up cost of the CLI: importing it generates no code, and a call
loads no module it does not use.

Every CLI call is a fresh interpreter, so what ``import addcubic.cli``
pulls in is paid on each call.  ``dataclasses`` compiles methods for each
class at import and brings ``inspect``, ``ast`` and ``dis`` with it.
``hashlib`` loads OpenSSL (``_hashlib``), and ``argparse`` loads
``gettext`` and ``locale`` on first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CODE_GENERATION_MODULES = ("dataclasses", "inspect", "ast", "dis")
UNUSED_MODULES = ("_hashlib", "hashlib", "argparse", "gettext", "locale")

# Prints to stderr, after the import and after a CLI call with the given
# arguments, the watched modules added to those present at start-up.
PROBE = """
import sys
watched = set(sys.argv[1].split(","))
before = set(sys.modules)
import addcubic.cli
print(*sorted(watched & (set(sys.modules) - before)), file=sys.stderr)
if sys.argv[2:]:
    assert addcubic.cli.main(sys.argv[2:]) == 0
print(*sorted(watched & (set(sys.modules) - before)), file=sys.stderr)
"""


def _probe(modules, *argv) -> list[list[str]]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = subprocess.run(
        [sys.executable, "-c", PROBE, ",".join(modules), *argv], env=env,
        capture_output=True, text=True, check=True)
    return [line.split() for line in probe.stderr.splitlines()]


def test_cli_import_loads_no_code_generation_modules():
    assert _probe(CODE_GENERATION_MODULES) == [[], []]


def test_check_lemmas_call_loads_no_unused_module(tmp_path):
    config = tmp_path / "lemmas.json"
    config.write_text(json.dumps({
        "mode": "exact", "families": {"linear": 2, "cubic": 2, "seed": 1},
        "samples": {"random": {"count": 4, "seed": 1}}}), encoding="utf-8")
    loaded = _probe(UNUSED_MODULES, "check-lemmas", f"--config={config}",
                    "--out-dir", str(tmp_path / "out"))
    assert loaded == [[], []]
