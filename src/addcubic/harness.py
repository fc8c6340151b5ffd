"""Experiment runners behind the CLI: lemma checks, replay, recovery, sweeps.

Every runner consumes an :class:`~addcubic.config.ExperimentConfig` (or
:class:`~addcubic.config.SweepSpec`), writes deterministic JSON/CSV files
into an output directory and returns a :class:`RunResult` whose ``ok`` flag
feeds the process exit status: 0 iff every asserted inequality/identity in
the run holds.  Model values, residuals and recovered parts are exact in
both modes: a mode only decides how the config's points are read and how
the report prints.  A float report holds each exact value rounded once.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from . import bounds as bounds_mod
from . import residuals
from .config import (ConfigError, ExperimentConfig, SweepSpec, model_to_json,
                     phi_to_json)
from .direct_method import DivergentControlError, OverflowGuardError, recover
from .models import (CubicHomogeneous, FuncModel, Linear, PowerNoise,
                     ProductOfPowers, SumOfPowers, coords_norm, cubic_1d,
                     linear_1d, point)
from .scalars import EXACT, format_number

SWEEP_CSV_HEADER = ("p", "r", "s", "theta", "epsilon", "l_additive", "l_cubic",
                    "closed_form", "series_value", "max_error", "bound_ok",
                    "status")


class RunResult:
    """A runner's verdict, status word, report document and written files."""

    def __init__(self, ok: bool, status: str, report: dict,
                 files: list[Path]):
        self.ok, self.status = ok, status
        self.report, self.files = report, files

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def write_json(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8")
    return path


def write_csv(path: Path, header, rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _csv_text(value) -> str:
    """A report value as its CSV field: floats by repr, booleans lowercase."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


# ---------------------------------------------------------------------------
# Lemma checks and chain replay
# ---------------------------------------------------------------------------

_RULE_TABLES = {
    "mixed": residuals.MIXED_RULE,
    "additive": residuals.ADDITIVE_RULE,
    "cubic": residuals.CUBIC_RULE,
}


def _expectations(model: FuncModel) -> dict[str, bool]:
    """Which residuals must vanish identically, derived from the atom mix:
    the mixed rule for linear and cubic atoms, the additive rule and the
    chain for linear atoms alone, the cubic rule for cubic atoms alone."""
    kinds = {type(atom) for atom in model.atoms}
    additive = kinds <= {Linear}
    return {"mixed": kinds <= {Linear, CubicHomogeneous}, "additive": additive,
            "cubic": kinds <= {CubicHomogeneous}, "chain": additive}


# Checked when a config names no model and no family.
DEFAULT_FAMILIES = (("linear_default", FuncModel(1, 1, (linear_1d(1),))),
                    ("cubic_default", FuncModel(1, 1, (cubic_1d(1),))))


def _sampled_models(config: ExperimentConfig) -> list[tuple]:
    """(label, model, explicit pairs, all pairs), drawn once per dimension.

    A model with no pairs of its input dimension, or an explicit pair that
    fits no model, is a config error: the check would pass vacuously.
    """
    labeled = config.family_models() or DEFAULT_FAMILIES
    drawn = {}
    sampled = []
    for label, model in labeled:
        args = (model.dim_in, config.mode, config.norm_kind)
        if args not in drawn:
            explicit = config.samples.explicit_pairs(*args)
            drawn[args] = explicit, explicit + config.samples.random_pairs(*args)
        explicit, pairs = drawn[args]
        if not pairs:
            raise ConfigError(
                f"model {label!r} has no sample pairs of dimension "
                f"{model.dim_in}; a check over zero pairs would pass vacuously")
        sampled.append((label, model, explicit, pairs))
    config.samples.require_dims({model.dim_in for _, model in labeled})
    return sampled


def _chain_stats(catalogue) -> dict[str, dict]:
    return {ident.label: {"max_abs": 0.0, "nonzero_count": 0}
            for ident in catalogue}


def _tally_pairs(f, pairs, tables: residuals.TermTables, rows: list[dict],
                 keep: int = 0) -> list:
    """Fold the residual of ``tables`` entry i at every pair into rows[i].

    In both modes the rows read the exact integer totals of
    :meth:`~addcubic.residuals.TermTables.integer_sums`: a residual is
    nonzero when any numerator is, and the norm divides int by int, which
    rounds as ``float(Fraction)`` does; tables not ``live`` for f stay 0.
    Returns the residual vectors of the first ``keep`` pairs, from the totals.
    """
    kept = []
    live = [(rows[i], i) for i in tables.live(f)]
    for x, y in pairs:
        totals = tables.integer_sums(f, x, y)
        if len(kept) < keep:
            kept.append(residuals.residual_vectors(totals, x))
        for row, i in live:
            nums, den = totals[i]
            if any(nums):
                magnitude = coords_norm([n / den for n in nums], x.norm_kind)
                row["max_abs"] = max(row["max_abs"], magnitude)
                row["nonzero_count"] += 1
    return kept


def _chain_ok(expect_zero: bool, stats: dict[str, dict]) -> bool:
    return not expect_zero or all(row["nonzero_count"] == 0
                                  for row in stats.values())


def run_check_lemmas(config: ExperimentConfig, out_dir: Path) -> RunResult:
    """Residual statistics for the mixed/additive/cubic rules plus replay.

    Exit is nonzero if any residual that must be identically zero for a
    model family is nonzero on the sampled pairs.  Residuals are exact in
    both modes; float mode reports each value rounded once.  ``max_rel``
    is kept in schema 1 and reads 0.0.
    """
    sampled = _sampled_models(config)
    catalogue = residuals.CHAIN_CATALOGUE if config.chain else ()
    tables = residuals.TermTables(
        tuple(_RULE_TABLES.values())
        + tuple(ident.moved_terms for ident in catalogue))

    ok = True
    model_reports = []
    for label, model, explicit_pairs, pairs in sampled:
        expect = _expectations(model)
        rule_stats = {name: {"max_abs": 0.0, "max_rel": 0.0,
                             "nonzero_count": 0, "samples": len(pairs)}
                      for name in _RULE_TABLES}
        chain_stats = _chain_stats(catalogue)
        kept = _tally_pairs(model, pairs, tables,
                            [*rule_stats.values(), *chain_stats.values()],
                            keep=len(explicit_pairs))
        entry: dict = {"label": label, "model": model_to_json(model),
                       "expect": expect, **rule_stats}
        model_ok = not any(expect[name] and stats["nonzero_count"]
                           for name, stats in rule_stats.items())
        if explicit_pairs:
            entry["explicit_pairs"] = [{
                "x": [format_number(c, config.mode) for c in x.coords],
                "y": [format_number(c, config.mode) for c in y.coords],
                "residuals": {
                    name: [format_number(c, config.mode)
                           for c in vector.value.coords]
                    for name, vector in zip(_RULE_TABLES, vectors)},
            } for (x, y), vectors in zip(explicit_pairs, kept)]
        if catalogue:
            entry["chain"] = chain_stats
            model_ok = model_ok and _chain_ok(expect["chain"], chain_stats)
        entry["ok"] = model_ok
        ok = ok and model_ok
        model_reports.append(entry)

    report = {"schema_version": 1, "command": "check-lemmas",
              "mode": config.mode, "models": model_reports, "ok": ok}
    files = [write_json(out_dir / f"{config.output_stem}.json", report)]
    if config.catalogue_out:
        files.append(write_json(out_dir / config.catalogue_out,
                                residuals.catalogue_as_json_dict()))
    return RunResult(ok, "ok" if ok else "residual-violation", report, files)


def run_replay_chain(config: ExperimentConfig, out_dir: Path) -> RunResult:
    """Chain replay only, exact in both modes like :func:`run_check_lemmas`."""
    sampled = _sampled_models(config)
    tables = residuals.chain_tables()
    ok = True
    model_reports = []
    for label, model, _, pairs in sampled:
        expect_zero = _expectations(model)["chain"]
        per_identity = _chain_stats(residuals.CHAIN_CATALOGUE)
        _tally_pairs(model, pairs, tables, list(per_identity.values()))
        model_ok = _chain_ok(expect_zero, per_identity)
        ok = ok and model_ok
        model_reports.append({"label": label, "model": model_to_json(model),
                              "expect_zero": expect_zero,
                              "identities": per_identity, "ok": model_ok})
    report = {"schema_version": 1, "command": "replay-chain",
              "models": model_reports, "ok": ok}
    files = [write_json(out_dir / f"{config.output_stem}.json", report)]
    if config.catalogue_out:
        files.append(write_json(out_dir / config.catalogue_out,
                                residuals.catalogue_as_json_dict()))
    return RunResult(ok, "ok" if ok else "chain-violation", report, files)


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------

def run_recover(config: ExperimentConfig, out_dir: Path) -> RunResult:
    """Recover additive/cubic parts and certify errors against the bound."""
    model = config.model
    if model is None:
        raise ConfigError("recover needs a \"model\" entry")
    phi = config.phi
    if phi is None:
        phi = bounds_mod.certify_phi(model)
    config.samples.require_dims({model.dim_in})
    points = config.samples.sample_points(model.dim_in, config.mode,
                                          config.norm_kind)
    if not points:
        raise ConfigError(
            f"samples has no points of dimension {model.dim_in}; a recovery "
            "over zero points would pass vacuously")
    try:
        report = recover(model, points, phi,
                         l_additive=config.direction_additive,
                         l_cubic=config.direction_cubic,
                         n_max=config.n_max)
    except (DivergentControlError, OverflowGuardError) as exc:
        diverged = isinstance(exc, DivergentControlError)
        status = "divergent-series" if diverged else "overflow-guard"
        doc = {"schema_version": 1, "command": "recover", "status": status,
               "detail": str(exc), "ok": False,
               **({"phi": phi_to_json(phi)} if diverged else {})}
        files = [write_json(out_dir / f"{config.output_stem}.json", doc)]
        return RunResult(False, status, doc, files)

    doc = report.to_json_dict(config.mode)
    doc["command"] = "recover"
    doc["ok"] = report.ok
    rows = [[_csv_text(value) for value in (
        index, ";".join(item["x"]), ";".join(item["additive"]),
        ";".join(item["cubic"]), item["error"], item["raw_error"],
        item["bound"], item["within_bound"],
        item["additive_trace"]["converged"], item["cubic_trace"]["converged"])]
        for index, item in enumerate(doc["points"])]
    files = [
        write_json(out_dir / f"{config.output_stem}.json", doc),
        write_csv(out_dir / f"{config.output_stem}.csv", report.CSV_HEADER,
                  rows),
    ]
    return RunResult(report.ok, "ok" if report.ok else "bound-violation",
                     doc, files)


# ---------------------------------------------------------------------------
# Bound evaluations
# ---------------------------------------------------------------------------

def run_bounds(config: ExperimentConfig, out_dir: Path) -> RunResult:
    """Evaluate bound series items and closed-form consistency checks."""
    spec = config.consistency
    if not (config.bounds_items or spec and (spec["p"] or spec["rs"])):
        raise ConfigError("bounds has no items and no consistency exponents; "
                          "an empty check would pass vacuously")
    ok = True
    items_report = []
    for item in config.bounds_items:
        x = point(item["x"], config.mode, config.norm_kind)
        l = item["l"]
        result = bounds_mod.series_bound(item["kind"], item["phi"], x, l)
        item_ok = result.status == item["expect"]
        ok = ok and item_ok
        items_report.append({
            "kind": item["kind"], "phi": phi_to_json(item["phi"]),
            "x": list(item["x_text"]),
            "l": list(l) if isinstance(l, tuple) else l,
            "partial_sum": result.partial_sum,
            "tail_bound": (result.tail_bound
                           if math.isfinite(result.tail_bound) else "inf"),
            "upper": (result.upper if math.isfinite(result.upper) else "inf"),
            "terms_used": result.terms_used,
            "status": result.status, "expect": item["expect"], "ok": item_ok,
        })

    consistency_report = []
    if spec:
        theta, tol = spec["theta"], spec["tol"]
        x = point(spec["x"], config.mode, config.norm_kind)
        for p in spec["p"]:
            result = bounds_mod.consistency_check(theta, p, x, tol=tol)
            ok = ok and result.ok
            consistency_report.append({
                "p": result.p, "theta": result.theta, "form": "sum",
                "closed": result.sum_closed, "series": result.sum_series,
                "ok": result.sum_ok,
            })
        for (r, s), (r_text, s_text) in zip(spec["rs"], spec["rs_text"]):
            result = bounds_mod.consistency_check(theta, r + s, x, tol=tol,
                                                  r=r, s=s)
            ok = ok and result.product_ok
            consistency_report.append({
                "p": result.p, "r": r_text, "s": s_text,
                "theta": result.theta, "form": "product",
                "closed": result.product_closed,
                "series": result.product_series, "ok": result.product_ok,
            })

    report = {"schema_version": 1, "command": "bounds", "items": items_report,
              "consistency": consistency_report, "ok": ok}
    files = [write_json(out_dir / f"{config.output_stem}.json", report)]
    return RunResult(ok, "ok" if ok else "bound-mismatch", report, files)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def _sweep_directions(l_mode: str, phi) -> tuple[int, int]:
    if l_mode == "auto":
        return bounds_mod.auto_directions(phi)
    value = 1 if l_mode == "pos" else -1
    return (value, value)


def _sweep_cell(spec: SweepSpec, cell: dict, points: list) -> dict:
    """The report entry of one grid cell, with typed values."""
    p, r, s = cell["p"], cell["r"], cell["s"]
    theta, eps = cell["theta"], cell["epsilon"]
    if spec.form == "sum":
        grid_phi = SumOfPowers(theta, p)
    else:
        grid_phi = ProductOfPowers(theta, r, s)
    l_add, l_cub = _sweep_directions(cell["l_mode"], grid_phi)

    unit = point(["1"], EXACT, spec.norm_kind)
    status = "ok"
    closed = series_value = max_error = bound_ok = None
    try:
        if spec.form == "sum":
            closed = bounds_mod.corollary_sum_bound(theta, p, unit)
        else:
            closed = bounds_mod.corollary_product_bound(theta, r, s, unit)
    except bounds_mod.ExcludedExponentError:
        status = "diverged"
    series = bounds_mod.series_bound("combined", grid_phi, unit,
                                     (l_add, l_cub))
    if series.status == bounds_mod.DIVERGED:
        status = "diverged"
    else:
        series_value = series.upper

    if status == "ok":
        atoms = [linear_1d(spec.solution_linear), cubic_1d(spec.solution_cubic)]
        if eps > 0:
            atoms.append(PowerNoise(spec.noise_seed, eps, p))
        model = FuncModel(1, 1, tuple(atoms))
        try:
            report = recover(model, points, bounds_mod.certify_phi(model),
                             l_additive=l_add, l_cubic=l_cub,
                             n_max=spec.n_max)
            max_error = report.max_error
            bound_ok = report.all_within_bound
            if not bound_ok:
                status = "bound-violation"
        except DivergentControlError:
            status = "diverged"
        except OverflowGuardError:
            status = "overflow-guard"

    return {
        "p": format_number(p),
        "r": None if r is None else format_number(r),
        "s": None if s is None else format_number(s),
        "theta": format_number(theta), "epsilon": format_number(eps),
        "l_additive": l_add, "l_cubic": l_cub,
        "closed_form": closed, "series_value": series_value,
        "max_error": max_error, "bound_ok": bound_ok, "status": status,
        "ok": status == "ok" or (status == "diverged" and spec.allow_divergent),
    }


def run_sweep(spec: SweepSpec, out_dir: Path) -> RunResult:
    """One recovery experiment per grid cell; failures recorded, sweep continues."""
    spec.samples.require_dims({1}, "base.samples")
    # Exact-mode points keep the sampled rationals as drawn; float points
    # would round them to doubles first.  Both modes iterate exactly.
    points = spec.samples.sample_points(1, EXACT, spec.norm_kind)
    if not points:
        raise ConfigError("base.samples has no points of dimension 1; a sweep "
                          "over zero points would pass vacuously")
    cells = [_sweep_cell(spec, cell, points) for cell in spec.cells()]
    ok = all(cell["ok"] for cell in cells)
    report = {"schema_version": 1, "command": "sweep", "cells": cells,
              "ok": ok}
    rows = [[_csv_text(cell[key]) for key in SWEEP_CSV_HEADER]
            for cell in cells]
    files = [
        write_csv(out_dir / f"{spec.output_stem}.csv", SWEEP_CSV_HEADER,
                  rows),
        write_json(out_dir / f"{spec.output_stem}.json", report),
    ]
    return RunResult(ok, "ok" if ok else "sweep-failures", report, files)
