"""One timed ``addcubic`` CLI call in a fresh interpreter.

Usage: ``python child.py COMMAND CONFIG OUT_DIR [--trace RUN_ID]``, with
the package's ``src`` directory on ``PYTHONPATH``.  The last line of
standard output is a JSON object:

* ``ready_at``: ``time.monotonic()`` once ``addcubic.cli`` is imported;
  the parent subtracts its own spawn time from it to get the set-up time;
* ``run_s`` and ``cpu_s``: wall and CPU seconds of ``addcubic.cli.main``,
  which covers config load to the last file written;
* ``exit_code``, ``peak_rss_kb`` and ``package``, the imported package path;
* ``layers``: the per-layer metrics, only with ``--trace``.
"""

import json
import resource
import sys
import time

import addcubic.cli

READY_AT = time.monotonic()


def main(argv: list[str]) -> int:
    command, config, out_dir = argv[:3]
    tracer = None
    if argv[3:4] == ["--trace"]:
        from tracer import Tracer
        tracer = Tracer(run_id=int(argv[4])).install()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        code = addcubic.cli.main([command, "--config", config,
                                  "--out-dir", out_dir])
    finally:
        wall1, cpu1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.uninstall()
    record = {
        "ready_at": READY_AT,
        "run_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "exit_code": code,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "package": addcubic.__file__,
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
