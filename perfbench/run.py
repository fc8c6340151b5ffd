"""Benchmark of the ``addcubic`` CLI on three seeded workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``lemmas_exact`` (check-lemmas),
``recover_float`` (recover) and ``sweep_exact`` (sweep).  The config is
generated from the seed.  Every run is one CLI call in a fresh interpreter,
one at a time, and the files it writes are checked, including that their
bytes match the first run of the same seed.  The benchmark calls the CLI
for ``--seconds`` seconds.

The first call of a run is a warm-up: it is checked and counted, but not
timed.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
alternates untraced and traced calls and reports the per-layer metrics of
the traced ones (see ``tracer.py``), the off-CPU share of the untraced ones
and the tracing overhead.  Readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10  # samples that must lie above the reported tail
# Percentile of a run's call times that the end-to-end time is taken at.
# On a shared host the same call runs at a few speeds, and the share of
# calls at each speed drifts from minute to minute.  The median and the mean
# follow that share; the slowest speed, which the 90th percentile reaches
# in every 60 s run, moves much less (see README.md).  A faster program
# lowers all speeds alike.
RUN_PERCENTILE = 90

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "run_s.p90": "s",
    "run_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_ok_frac": "ratio",
}

# Per-layer metrics that count work; they must repeat exactly across the
# traced runs of one seed, or the run counts as failed.
WORK_COUNTS = (
    "models.eval_calls", "models.points_built", "noise.sample_calls",
    "residuals.combine_calls", "residuals.combine_terms",
    "residuals.chain_replays", "direct_method.iterate_steps",
    "bounds.series_calls", "bounds.series_terms", "harness.bytes_written",
    "scalars.format_calls",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_frac") or name.endswith("_per_point"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def output_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def run_time(samples: list[float]) -> float:
    """The RUN_PERCENTILE percentile of ``samples``, interpolated."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[
        RUN_PERCENTILE - 1]


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with TAIL_BEYOND above it.

    With too few samples for that, the maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


class Runner:
    """Runs one workload's CLI calls and keeps the tally of failures."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload = workload
        self.command = workloads.WORKLOADS[workload]
        self.config_path = workloads.write_configs(seed, run_dir)[workload]
        self.doc = json.loads(self.config_path.read_text(encoding="utf-8"))
        self.items = workloads.items(workload, self.doc)
        self.run_dir = run_dir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digest: str | None = None
        self._counts: dict | None = None

    def call(self, traced: bool = False) -> dict | None:
        """One checked CLI call: the child's record, or None if it failed."""
        self.attempted += 1
        run_id = self.attempted
        out_dir = self.run_dir / f"out{run_id}"
        argv = [sys.executable, str(HERE / "child.py"), self.command,
                str(self.config_path), str(out_dir)]
        if traced:
            argv += ["--trace", str(run_id)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(argv, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            problems, record = self._inspect(proc, out_dir)
        except subprocess.TimeoutExpired:
            problems, record = [f"timed out after {CHILD_TIMEOUT_S} s"], None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems.extend(f"run {run_id}: {p}" for p in problems)
            return None
        record["setup_s"] = record["ready_at"] - spawned
        return record

    def _inspect(self, proc, out_dir: Path) -> tuple[list[str], dict | None]:
        lines = proc.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1]) if lines else None
        except ValueError:
            record = None
        if proc.returncode != 0 or record is None:
            return [f"child exited {proc.returncode}: "
                    f"{proc.stderr.strip()[-300:]}"], None
        problems = []
        if not Path(record["package"]).resolve().is_relative_to(SRC):
            problems.append(f"imported {record['package']}, not the checkout")
        if record["exit_code"] != 0:
            problems.append(f"addcubic exited {record['exit_code']}")
        problems += workloads.check(self.workload, self.doc, out_dir)
        if out_dir.is_dir():
            digest = output_digest(out_dir)
            if self._digest is None:
                self._digest = digest
            elif digest != self._digest:
                problems.append("output bytes differ from the first run")
        if "layers" in record:
            counts = {k: record["layers"][k] for k in WORK_COUNTS}
            if self._counts is None:
                self._counts = counts
            elif counts != self._counts:
                changed = sorted(k for k in counts
                                 if counts[k] != self._counts[k])
                problems.append(f"work counts changed: {', '.join(changed)}")
        return problems, record


def repeat(seconds: float, step) -> None:
    """Call ``step`` at least once, and again while it can end in time."""
    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        step()
        now = time.monotonic()
        if now + (now - started) > deadline:
            return


def measure_end_to_end(runner: Runner, seconds: float) -> dict:
    records = []
    runner.call()  # warm-up

    def step():
        record = runner.call()
        if record is not None:
            records.append(record)

    repeat(seconds, step)
    if not records:
        return {}
    run_s = [r["run_s"] for r in records]
    p90 = run_time(run_s)
    tail_s, tail_pct = tail(run_s)
    print(f"run_s: {len(run_s)} samples, run_s.tail is their "
          f"p{tail_pct:.1f}; median {statistics.median(run_s):.4f} s; "
          f"{runner.items} items per run")
    return {
        "items_per_s": runner.items / p90,
        "run_s.p90": p90,
        "run_s.tail": tail_s,
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"]
                                         for r in records) / 1024.0,
        "ops_ok_frac": 1.0 - runner.failed / runner.attempted,
    }


def measure_layers(runner: Runner, seconds: float) -> dict:
    plain, traced = [], []
    runner.call()  # warm-up

    def step():
        for bucket, trace in ((traced, True), (plain, False)):
            record = runner.call(traced=trace)
            if record is not None:
                bucket.append(record)

    repeat(seconds, step)
    if not plain or not traced:
        return {}
    layers = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        layers[name] = values[0] if name in WORK_COUNTS \
            else statistics.median(values)
    plain_p90 = run_time([r["run_s"] for r in plain])
    traced_p90 = run_time([r["run_s"] for r in traced])
    layers["cli.offcpu_frac"] = statistics.median(
        1.0 - r["cpu_s"] / r["run_s"] for r in plain)
    layers["trace.overhead_frac"] = traced_p90 / plain_p90 - 1.0
    print(f"traced {len(traced)} and untraced {len(plain)} calls; run_s.p90 "
          f"{traced_p90:.4f} s traced, {plain_p90:.4f} s untraced")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the running child is killed and
    # waited for and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (SRC / "addcubic" / "cli.py").is_file():
        print(f"perfbench: no addcubic package under {SRC}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                    dir=WORK_ROOT))
    try:
        runner = Runner(args.workload, args.seed, run_dir)
        print(f"perfbench {args.workload} seed {args.seed} "
              f"({runner.command}), {args.seconds:g} s, trace {args.trace}")
        if args.trace:
            metrics = measure_layers(runner, args.seconds)
        else:
            metrics = measure_end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another benchmark is using it

    for problem in runner.problems[:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if not metrics:
        print("perfbench: no successful run to measure", file=sys.stderr)
        return 1
    units = END_TO_END_UNITS if not args.trace else \
        {name: layer_unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>14.6g} {units[name]}")
    print(f"  ops_failed_frac {runner.failed}/{runner.attempted}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
