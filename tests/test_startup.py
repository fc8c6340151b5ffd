"""Start-up cost of the CLI: importing it generates no code.

Every CLI call is a fresh interpreter, so what ``import addcubic.cli``
pulls in is paid on each call.  ``dataclasses`` compiles methods for each
class at import and brings ``inspect``, ``ast`` and ``dis`` with it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CODE_GENERATION_MODULES = ("dataclasses", "inspect", "ast", "dis")

# Prints the watched modules that the import added to those present at
# interpreter start-up.
PROBE = f"""
import sys
before = set(sys.modules)
import addcubic.cli
print(*sorted(set({CODE_GENERATION_MODULES!r}) & (set(sys.modules) - before)))
"""


def test_cli_import_loads_no_code_generation_modules():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = subprocess.run([sys.executable, "-c", PROBE], env=env,
                           capture_output=True, text=True, check=True)
    assert probe.stdout.split() == []
