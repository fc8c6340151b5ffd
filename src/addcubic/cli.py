"""Command-line front end: addcubic SUBCOMMAND --config PATH [--out-dir DIR].

Flags only select the subcommand, the config path and the output directory;
everything else lives in the JSON config so a run is reproducible from one
artifact.  Flags are spelled in full, as ``--flag value`` or ``--flag=value``;
the last one given wins, and ``--out-dir`` wins over ADDCUBIC_OUT_DIR in the
environment.  ``-h`` or ``--help`` prints the usage.

The config is read in full before anything runs, and each subcommand
reads only its own keys: any other key, a missing required key or a value
of the wrong type or range is a configuration error that names the key
path, as is a check that would run over zero sample points or pairs.

Exit codes: 0 when every asserted identity/inequality held, 1 when an
assertion failed (including divergent bound series), 2 on configuration or
usage errors, including a config file or output path the system refuses
and values too large for float arithmetic; a usage error prints the usage.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from .bounds import CertificationError
from .config import ConfigError, ExperimentConfig, SweepSpec
from .harness import (RunResult, run_bounds, run_check_lemmas, run_recover,
                      run_replay_chain, run_sweep)

OUT_DIR_ENV = "ADDCUBIC_OUT_DIR"

_RUNNERS = {
    "check-lemmas": (ExperimentConfig, run_check_lemmas),
    "replay-chain": (ExperimentConfig, run_replay_chain),
    "recover": (ExperimentConfig, run_recover),
    "bounds": (ExperimentConfig, run_bounds),
    "sweep": (SweepSpec, run_sweep),
}

USAGE = (f"usage: addcubic {{{','.join(_RUNNERS)}}} --config PATH "
         "[--out-dir DIR]")


def _parse(argv: list[str]) -> tuple[str, str, str | None]:
    """(subcommand, config path, --out-dir or None); ValueError if misused."""
    if not argv or argv[0] not in _RUNNERS:
        raise ValueError(f"unknown subcommand {argv[0]!r}" if argv
                         else "a subcommand is required")
    values = {}
    rest = iter(argv[1:])
    for arg in rest:
        flag, has_value, value = arg.partition("=")
        if flag not in ("--config", "--out-dir"):
            raise ValueError(f"unrecognized argument {arg!r}")
        if not has_value:
            value = next(rest, None)
            if value is None or value.startswith("-"):
                raise ValueError(f"{flag} expects a value")
        values[flag] = value
    if "--config" not in values:
        raise ValueError("--config is required")
    return argv[0], values["--config"], values.get("--out-dir")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        return 0
    try:
        command, config_path, out_flag = _parse(argv)
    except ValueError as exc:
        print(f"{USAGE}\naddcubic: error: {exc}", file=sys.stderr)
        return 2
    loader, runner = _RUNNERS[command]
    out_dir = Path(out_flag or os.environ.get(OUT_DIR_ENV) or ".")
    try:
        config = loader.load(config_path, command)
        result: RunResult = runner(config, out_dir)
    except (ConfigError, OSError, CertificationError) as exc:
        print(f"addcubic {command}: error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"addcubic {command}: error: a config value is too large "
              f"for float arithmetic ({exc})", file=sys.stderr)
        return 2
    for path in result.files:
        print(f"wrote {path}")
    print(f"addcubic {command}: {result.status}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
