"""Command-line front end.

Flags only select the subcommand, the config path and the output directory;
everything else lives in the JSON config so a run is reproducible from one
artifact.  The output directory may also be set through the ADDCUBIC_OUT_DIR
environment variable (the --out-dir flag wins).

The config is read in full before anything runs, and each subcommand
reads only its own keys: any other key, a missing required key or a value
of the wrong type or range is a configuration error that names the key
path, as is a check that would run over zero sample points or pairs.

Exit codes: 0 when every asserted identity/inequality held, 1 when an
assertion failed (including divergent bound series), 2 on configuration or
usage errors, including a config file or output path the system refuses
and values too large for float arithmetic.
"""

from __future__ import annotations

import argparse
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addcubic",
        description="Verification lab for a mixed additive-cubic functional "
                    "equation: residual checks, identity replay, recovery "
                    "and certified stability bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--out-dir", default=None,
                         help=f"output directory (default: ${OUT_DIR_ENV} or .)")
    return parser


def _resolve_out_dir(flag_value) -> Path:
    return Path(flag_value or os.environ.get(OUT_DIR_ENV) or ".")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    loader, runner = _RUNNERS[args.command]
    out_dir = _resolve_out_dir(args.out_dir)
    try:
        config = loader.load(args.config, args.command)
        result: RunResult = runner(config, out_dir)
    except (ConfigError, OSError, CertificationError) as exc:
        print(f"addcubic {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"addcubic {args.command}: error: a config value is too large "
              f"for float arithmetic ({exc})", file=sys.stderr)
        return 2
    for path in result.files:
        print(f"wrote {path}")
    print(f"addcubic {args.command}: {result.status}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
