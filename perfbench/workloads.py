"""Seeded workload configs and the output checks for each benchmark run.

Each workload is one ``addcubic`` subcommand on one generated JSON config.
The config is a pure function of the workload seed, so the same seed gives
byte-identical configs; the program only ever sees the written files.

The checks read the files a run wrote and accept them only when the
mathematical claims the benchmark relies on hold for any seed.  They
import nothing from the package, so a defect in it cannot vouch for
itself.

Run ``python3 perfbench/workloads.py --seed N --out DIR`` to write the
three configs for seed ``N`` into ``DIR``.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
from fractions import Fraction
from pathlib import Path

# Residual checks: one linear and one cubic family per (dim_in, dim_out).
LEMMA_DIMS = ((1, 1), (2, 2), (3, 3), (3, 1))
LEMMA_PAIRS = 16
CHAIN_IDENTITIES = 21

# Float recovery of 2x + x^3 + BoundedNoise(7, 1/1000), the ROADMAP anchor.
RECOVER_POINTS = 200
RECOVER_NOISE_SEED = 7
RECOVER_EPS = Fraction(1, 1000)
# Combined recovery bound for Constant(76 eps) with l = -1 on both parts:
# 76 eps / 6 * (1/2 + 1/14) = 152 eps / 21.
RECOVER_MAX_ERROR = float(152 * RECOVER_EPS / 21)

# Sweep grid: 1 and 3 are the excluded exponents, fractional ones take the
# float-pow noise path, and p > 1 / p > 3 switch the iterates to l = +1.
SWEEP_EXPONENTS = ("0", "1/2", "1", "2", "5/2", "3", "4", "5")
SWEEP_DIVERGENT = ("1", "3")
SWEEP_POINTS = 6

WORKLOADS = {
    "lemmas_exact": "check-lemmas",
    "recover_float": "recover",
    "sweep_exact": "sweep",
}


def _rational(rng: random.Random) -> str:
    num = rng.randint(-9, 9)
    den = (1, 2, 4)[rng.randint(0, 2)]
    return str(num) if den == 1 else f"{num}/{den}"


def _lemmas_config(rng: random.Random) -> dict:
    models = []
    for d, m in LEMMA_DIMS:
        matrix = [[_rational(rng) for _ in range(d)] for _ in range(m)]
        models.append({"label": f"linear_{d}x{m}", "dim_in": d, "dim_out": m,
                       "atoms": [{"kind": "linear", "matrix": matrix}]})
        monomials = [[i, j, k] for i in range(d) for j in range(i, d)
                     for k in range(j, d)]
        terms = [[[mono, _rational(rng)] for mono in monomials]
                 for _ in range(m)]
        models.append({"label": f"cubic_{d}x{m}", "dim_in": d, "dim_out": m,
                       "atoms": [{"kind": "cubic", "dims": [d, m],
                                  "terms": terms}]})
    return {
        "schema_version": 1,
        "mode": "exact",
        "models": models,
        "samples": {"random": {"count": LEMMA_PAIRS,
                               "seed": rng.randrange(1 << 31)}},
        "chain": True,
        "output_stem": "lemmas",
    }


def _recover_config(rng: random.Random) -> dict:
    return {
        "schema_version": 1,
        "mode": "float",
        "model": {"dim_in": 1, "dim_out": 1, "atoms": [
            {"kind": "linear", "matrix": [["2"]]},
            {"kind": "cubic", "dims": [1, 1], "terms": [[[[0, 0, 0], "1"]]]},
            {"kind": "bounded_noise", "seed": RECOVER_NOISE_SEED,
             "amplitude": str(RECOVER_EPS)}]},
        "phi": "certify",
        "directions": {"additive": -1, "cubic": -1},
        "samples": {"random": {"count": RECOVER_POINTS,
                               "seed": rng.randrange(1 << 31)}},
        "output_stem": "recover",
    }


def _sweep_config(rng: random.Random) -> dict:
    return {
        "schema_version": 1,
        "form": "sum",
        "p": list(SWEEP_EXPONENTS),
        "theta": ["1"],
        "epsilon": ["1/1000"],
        "l_mode": ["auto"],
        "allow_divergent": True,
        "base": {"solution": {"linear": "2", "cubic": "1"},
                 "noise_seed": rng.randrange(1 << 31),
                 "samples": {"random": {"count": SWEEP_POINTS,
                                        "seed": rng.randrange(1 << 31)}}},
        "output_stem": "sweep",
    }


_BUILDERS = {
    "lemmas_exact": _lemmas_config,
    "recover_float": _recover_config,
    "sweep_exact": _sweep_config,
}


def build_config(workload: str, seed: int) -> dict:
    """The config document of one workload for one seed."""
    # A string seed is hashed with SHA-512, so streams are stable across
    # platforms and do not collide between workloads.
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def write_configs(seed: int, out_dir: Path) -> dict[str, Path]:
    """Write every workload's config for ``seed``; returns name -> path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in WORKLOADS:
        path = out_dir / f"{name}.config.json"
        text = json.dumps(build_config(name, seed), indent=2, sort_keys=True)
        path.write_text(text + "\n", encoding="utf-8")
        paths[name] = path
    return paths


def items(workload: str, doc: dict) -> int:
    """Work items one run completes: checks, points or cell recoveries."""
    if workload == "lemmas_exact":
        return len(doc["models"]) * doc["samples"]["random"]["count"]
    if workload == "recover_float":
        return doc["samples"]["random"]["count"]
    recovered = [p for p in doc["p"] if p not in SWEEP_DIVERGENT]
    return len(recovered) * doc["base"]["samples"]["random"]["count"]


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the run is good
# ---------------------------------------------------------------------------

def _load_json(path: Path, problems: list[str]) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None


def _read_csv(path: Path, problems: list[str]) -> list[list[str]] | None:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            return list(csv.reader(handle))
    except (OSError, csv.Error) as exc:
        problems.append(f"{path.name}: {exc}")
        return None


def _require_files(out_dir: Path, names: set[str], problems: list[str]) -> bool:
    found = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    if found != names:
        problems.append(f"output files {sorted(found)}, expected {sorted(names)}")
        return False
    return True


def _zero_stats(stats: dict, samples: int) -> bool:
    return (stats.get("samples", samples) == samples
            and stats.get("nonzero_count") == 0
            and stats.get("max_abs") == 0.0)


def _check_lemmas(doc: dict, out_dir: Path) -> list[str]:
    problems: list[str] = []
    if not _require_files(out_dir, {"lemmas.json"}, problems):
        return problems
    report = _load_json(out_dir / "lemmas.json", problems)
    if report is None:
        return problems
    if report.get("ok") is not True or report.get("mode") != "exact":
        problems.append("report is not an ok exact-mode run")
    samples = doc["samples"]["random"]["count"]
    labels = [m["label"] for m in doc["models"]]
    entries = report.get("models", [])
    if [e.get("label") for e in entries] != labels:
        return problems + ["model labels differ from the config"]
    for entry in entries:
        label = entry["label"]
        family = label.split("_")[0]
        zero_rules = ("additive", "mixed") if family == "linear" \
            else ("cubic", "mixed")
        for rule in zero_rules:
            if not _zero_stats(entry.get(rule, {}), samples):
                problems.append(f"{label}: {rule} residual is not zero")
        chain = entry.get("chain", {})
        if len(chain) != CHAIN_IDENTITIES:
            problems.append(f"{label}: {len(chain)} chain identities replayed")
        elif family == "linear":
            for ident, stats in chain.items():
                if not _zero_stats(stats, samples):
                    problems.append(f"{label}: chain identity {ident} "
                                    "is not zero")
    return problems


def _check_recover(doc: dict, out_dir: Path) -> list[str]:
    problems: list[str] = []
    if not _require_files(out_dir, {"recover.json", "recover.csv"}, problems):
        return problems
    report = _load_json(out_dir / "recover.json", problems)
    rows = _read_csv(out_dir / "recover.csv", problems)
    if report is None or rows is None:
        return problems
    count = doc["samples"]["random"]["count"]
    points = report.get("points", [])
    summary = report.get("summary", {})
    if report.get("ok") is not True:
        problems.append("report is not ok")
    if len(points) != count or summary.get("count") != count:
        problems.append(f"{len(points)} points reported, expected {count}")
    if summary.get("all_within_bound") is not True:
        problems.append("all_within_bound does not hold")
    errors = [p.get("error", float("inf")) for p in points]
    if points and summary.get("max_error") != max(errors):
        problems.append("max_error is not the largest point error")
    if not summary.get("max_error", float("inf")) <= RECOVER_MAX_ERROR:
        problems.append(f"max_error {summary.get('max_error')!r} exceeds "
                        f"152 eps / 21 = {RECOVER_MAX_ERROR!r}")
    for idx, item in enumerate(points):
        if item.get("within_bound") is not True \
                or not item.get("error", float("inf")) <= item.get("bound", 0):
            problems.append(f"point {idx} is not within its bound")
    header = ["index", "x", "additive", "cubic", "error", "raw_error",
              "bound", "within_bound", "additive_converged",
              "cubic_converged"]
    if not rows or rows[0] != header:
        return problems + ["recover.csv header differs"]
    if len(rows) - 1 != len(points):
        return problems + ["recover.csv row count differs from the report"]
    for idx, (row, item) in enumerate(zip(rows[1:], points)):
        expected = [
            str(idx), ";".join(item["x"]), ";".join(item["additive"]),
            ";".join(item["cubic"]), repr(item["error"]),
            repr(item["raw_error"]), repr(item["bound"]),
            str(item["within_bound"]).lower(),
            str(item["additive_trace"]["converged"]).lower(),
            str(item["cubic_trace"]["converged"]).lower(),
        ]
        if row != expected:
            problems.append(f"recover.csv row {idx} disagrees with the report")
    return problems


def _float_or_none(text: str) -> float | None:
    return float(text) if text else None


def _check_sweep(doc: dict, out_dir: Path) -> list[str]:
    problems: list[str] = []
    if not _require_files(out_dir, {"sweep.json", "sweep.csv"}, problems):
        return problems
    report = _load_json(out_dir / "sweep.json", problems)
    rows = _read_csv(out_dir / "sweep.csv", problems)
    if report is None or rows is None:
        return problems
    if report.get("ok") is not True:
        problems.append("report is not ok")
    cells = report.get("cells", [])
    if [c.get("p") for c in cells] != list(doc["p"]):
        return problems + ["sweep cells differ from the configured exponents"]
    for cell in cells:
        p = cell["p"]
        if p in SWEEP_DIVERGENT:
            if cell.get("status") != "diverged":
                problems.append(f"p={p}: status {cell.get('status')!r}, "
                                "expected diverged")
        elif cell.get("status") != "ok" or cell.get("bound_ok") is not True:
            problems.append(f"p={p}: status {cell.get('status')!r}, "
                            f"bound_ok {cell.get('bound_ok')!r}")
        if cell.get("ok") is not True:
            problems.append(f"p={p}: cell is not ok")
    if len(rows) != len(cells) + 1 or not rows or rows[0][-1] != "status":
        return problems + ["sweep.csv shape disagrees with the report"]
    header = rows[0]
    for row, cell in zip(rows[1:], cells):
        fields = dict(zip(header, row))
        bound_ok = cell.get("bound_ok")
        try:
            agrees = (
                len(row) == len(header)
                and fields["p"] == cell["p"]
                and fields["status"] == cell["status"]
                and fields["bound_ok"] == ("" if bound_ok is None
                                           else str(bound_ok).lower())
                and all(_float_or_none(fields[k]) == cell[k]
                        for k in ("closed_form", "series_value", "max_error")))
        except (KeyError, ValueError):
            agrees = False
        if not agrees:
            problems.append(f"sweep.csv row p={cell['p']} disagrees "
                            "with the report")
    return problems


_CHECKS = {
    "lemmas_exact": _check_lemmas,
    "recover_float": _check_recover,
    "sweep_exact": _check_sweep,
}


def check(workload: str, doc: dict, out_dir: Path) -> list[str]:
    """Problems found in the files one run of ``workload`` wrote."""
    return _CHECKS[workload](doc, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for name, path in write_configs(args.seed, args.out).items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
