"""Float mode is exact mode rounded once: rebuild a float config in exact
mode at the same doubles, and compare the two reports.

Standard library only; it never imports ``addcubic``, so a fault in the
package's number formatting cannot hide in here.

A float run reads each input to the nearest double.  :func:`exact_config`
writes the config that reads the same doubles exactly: every explicit
coordinate becomes the exact value of its double, as "p/q", and the mode
becomes "exact".  :func:`compare` then walks both reports together: every
leaf must be equal, except that a float report's number text must be the
exact report's number rounded once to a double (``repr`` of it).  The
"mode" key is the one that names the difference.

Usage::

    python rounded_once.py rebuild FLOAT_CONFIG [FLOAT_REPORT] EXACT_CONFIG
    python rounded_once.py compare FLOAT_OUT_DIR EXACT_OUT_DIR

``rebuild`` takes a recover config's points from its float report (which
prints every sampled point); other configs must list their inputs
explicitly.  ``compare`` compares every JSON and CSV file of the float
run with the exact run's file of the same name.  Both exit 1 with a line
per mismatch.
"""

from __future__ import annotations

import copy
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path


def exact_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 \
        else f"{value.numerator}/{value.denominator}"


def double_text(text) -> str:
    """The exact value of the double nearest ``text`` ("1/3", "0.1", 2)."""
    return exact_text(Fraction(float(Fraction(str(text)))))


def _doubles(coords) -> list[str]:
    return [double_text(c) for c in coords]


def exact_config(doc: dict, report: dict | None = None,
                 pairs: list | None = None) -> dict:
    """The float config ``doc`` in exact mode at the doubles it reads.

    A recover config takes its points from ``report``, the float run's;
    ``pairs`` replaces the sample pairs (the random ones are not printed).
    A config that still draws random samples is refused: the exact run
    would draw rationals, not the float run's doubles.
    """
    if doc.get("mode") != "float":
        raise ValueError("not a float-mode config")
    out = copy.deepcopy(doc)
    out["mode"] = "exact"
    samples = out.get("samples")
    if samples is not None:
        if report is not None:
            samples["points"] = [item["x"] for item in report["points"]]
        if pairs is not None:
            samples["pairs"] = pairs
        if samples.get("random", {}).get("count", 0) and report is None \
                and pairs is None:
            raise ValueError("random samples are drawn afresh in exact mode;"
                             " pass the float run's samples")
        samples["random"] = {**samples.get("random", {}), "count": 0}
        samples["points"] = [_doubles(p) for p in samples.get("points", [])]
        samples["pairs"] = [[_doubles(x), _doubles(y)]
                            for x, y in samples.get("pairs", [])]
    for item in out.get("bounds", []):
        item["x"] = _doubles(item["x"])
    if "consistency" in out and "x" in out["consistency"]:
        out["consistency"]["x"] = _doubles(out["consistency"]["x"])
    return out


def _rounded(float_text: str, exact: str) -> bool:
    """``float_text`` is ``exact``'s number rounded once to a double."""
    try:
        return float_text == repr(float(Fraction(exact)))
    except (ValueError, ZeroDivisionError, OverflowError):
        return False


def compare(float_doc, exact_doc, where: str = "") -> list[str]:
    """Every place where the float report is not the exact one rounded."""
    if isinstance(float_doc, dict) and isinstance(exact_doc, dict):
        if float_doc.keys() != exact_doc.keys():
            return [f"{where}: keys {sorted(float_doc)} vs {sorted(exact_doc)}"]
        problems = []
        for key in float_doc:
            if key == "mode":
                if (float_doc[key], exact_doc[key]) != ("float", "exact"):
                    problems.append(f"{where}.mode: {float_doc[key]!r} vs "
                                    f"{exact_doc[key]!r}")
                continue
            problems += compare(float_doc[key], exact_doc[key],
                                f"{where}.{key}")
        return problems
    if isinstance(float_doc, list) and isinstance(exact_doc, list):
        if len(float_doc) != len(exact_doc):
            return [f"{where}: {len(float_doc)} vs {len(exact_doc)} entries"]
        return [problem for index, (a, b) in enumerate(zip(float_doc,
                                                           exact_doc))
                for problem in compare(a, b, f"{where}[{index}]")]
    if type(float_doc) is type(exact_doc) and float_doc == exact_doc:
        return []
    if isinstance(float_doc, str) and isinstance(exact_doc, str) \
            and _rounded(float_doc, exact_doc):
        return []
    return [f"{where}: {float_doc!r} vs {exact_doc!r}"]


def compare_csv(float_rows, exact_rows, where: str = "") -> list[str]:
    """:func:`compare` over CSV cells, each split at ";" into numbers."""
    return compare([[cell.split(";") for cell in row] for row in float_rows],
                   [[cell.split(";") for cell in row] for row in exact_rows],
                   where)


def compare_dirs(float_dir: Path, exact_dir: Path) -> list[str]:
    """:func:`compare` over every report file of two output directories."""
    names = sorted(path.name for path in float_dir.iterdir())
    exact_names = sorted(path.name for path in exact_dir.iterdir())
    if names != exact_names:
        return [f"files {names} vs {exact_names}"]
    problems = []
    for name in names:
        texts = [(d / name).read_text(encoding="utf-8")
                 for d in (float_dir, exact_dir)]
        if name.endswith(".csv"):
            problems += compare_csv(*[list(csv.reader(t.splitlines()))
                                      for t in texts], name)
        else:
            problems += compare(*[json.loads(t) for t in texts], name)
    return problems


def main(argv: list[str]) -> int:
    if argv[:1] == ["rebuild"] and len(argv) in (3, 4):
        doc = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
        report = (json.loads(Path(argv[2]).read_text(encoding="utf-8"))
                  if len(argv) == 4 else None)
        Path(argv[-1]).write_text(json.dumps(exact_config(doc, report)),
                                  encoding="utf-8")
        return 0
    if argv[:1] == ["compare"] and len(argv) == 3:
        problems = compare_dirs(Path(argv[1]), Path(argv[2]))
        for problem in problems:
            print(problem)
        if not problems:
            print(f"{argv[1]}: every number is {argv[2]}'s rounded once")
        return 1 if problems else 0
    print(__doc__.split("Usage::")[1].split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
