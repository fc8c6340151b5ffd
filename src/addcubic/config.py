"""JSON configuration schema: models, control functions, experiments, sweeps.

A whole experiment is a single JSON document, so a run is reproducible from
one artifact.  Scalars may be JSON numbers or strings; strings are parsed
as exact rationals ("3/4", "0.25", "1e-3"), which is the lossless way to
feed exact mode.  Random sampling is delegated to ``random.Random`` (the
Mersenne Twister), drawing integers only, so sample streams are portable
across platforms and Python versions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .models import (BoundedNoise, Constant, ControlFunction, CubicHomogeneous,
                     Even, FuncModel, Linear, Point, PowerNoise,
                     ProductOfPowers, SumOfPowers, EUCLIDEAN, NORM_KINDS,
                     point, random_cubic, random_linear, random_point)
from .scalars import EXACT, MODES, format_number, parse_rational

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed configuration document."""


# ---------------------------------------------------------------------------
# Atom and model (de)serialization
# ---------------------------------------------------------------------------

def _rows_to_json(rows) -> list[list[str]]:
    return [[format_number(v) for v in row] for row in rows]


def _rows_from_json(rows):
    return tuple(tuple(parse_rational(v) for v in row) for row in rows)


def atom_to_json(atom) -> dict:
    if isinstance(atom, Linear):
        return {"kind": "linear", "matrix": _rows_to_json(atom.matrix)}
    if isinstance(atom, CubicHomogeneous):
        return {
            "kind": "cubic",
            "dims": list(atom.dims),
            "terms": [[[list(mono), format_number(c)] for mono, c in rows]
                      for rows in atom.terms],
        }
    if isinstance(atom, Even):
        return {"kind": "even",
                "matrices": [_rows_to_json(q) for q in atom.matrices]}
    if isinstance(atom, BoundedNoise):
        return {"kind": "bounded_noise", "seed": atom.seed,
                "amplitude": format_number(atom.amplitude)}
    if isinstance(atom, PowerNoise):
        return {"kind": "power_noise", "seed": atom.seed,
                "amplitude": format_number(atom.amplitude),
                "exponent": format_number(atom.exponent)}
    raise ConfigError(f"unknown atom type {type(atom).__name__}")


def atom_from_json(doc: dict):
    kind = doc.get("kind")
    try:
        if kind == "linear":
            return Linear(_rows_from_json(doc["matrix"]))
        if kind == "cubic":
            terms = tuple(
                tuple((tuple(mono), parse_rational(c)) for mono, c in rows)
                for rows in doc["terms"])
            return CubicHomogeneous(terms, dims=tuple(doc["dims"]))
        if kind == "even":
            return Even(tuple(_rows_from_json(q) for q in doc["matrices"]))
        if kind == "bounded_noise":
            return BoundedNoise(int(doc["seed"]), parse_rational(doc["amplitude"]))
        if kind == "power_noise":
            return PowerNoise(int(doc["seed"]), parse_rational(doc["amplitude"]),
                              parse_rational(doc.get("exponent", 0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind!r} atom: {exc}") from exc
    raise ConfigError(f"unknown atom kind {kind!r}")


def model_to_json(model: FuncModel) -> dict:
    return {
        "dim_in": model.dim_in,
        "dim_out": model.dim_out,
        "atoms": [atom_to_json(a) for a in model.atoms],
    }


def model_from_json(doc: dict) -> FuncModel:
    try:
        atoms = tuple(atom_from_json(a) for a in doc.get("atoms", []))
        return FuncModel(int(doc.get("dim_in", 1)), int(doc.get("dim_out", 1)),
                         atoms)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model: {exc}") from exc


def phi_to_json(phi: ControlFunction) -> dict:
    if isinstance(phi, Constant):
        return {"variant": "constant", "value": format_number(phi.value)}
    if isinstance(phi, SumOfPowers):
        return {"variant": "sum_of_powers", "theta": format_number(phi.theta),
                "power": format_number(phi.power)}
    if isinstance(phi, ProductOfPowers):
        return {"variant": "product_of_powers", "theta": format_number(phi.theta),
                "r": format_number(phi.r), "s": format_number(phi.s)}
    raise ConfigError(f"unknown control function {type(phi).__name__}")


def phi_from_json(doc: dict) -> ControlFunction:
    variant = doc.get("variant")
    try:
        if variant == "constant":
            return Constant(parse_rational(doc["value"]))
        if variant == "sum_of_powers":
            return SumOfPowers(parse_rational(doc["theta"]),
                               parse_rational(doc["power"]))
        if variant == "product_of_powers":
            return ProductOfPowers(parse_rational(doc["theta"]),
                                   parse_rational(doc["r"]),
                                   parse_rational(doc["s"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {variant!r} control function: {exc}") from exc
    raise ConfigError(f"unknown control function variant {variant!r}")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomSampleSpec:
    count: int = 0
    seed: int = 0
    low: int = -8
    high: int = 8
    max_denominator: int = 1024

    @classmethod
    def from_json(cls, doc: dict) -> "RandomSampleSpec":
        return cls(count=int(doc.get("count", 0)), seed=int(doc.get("seed", 0)),
                   low=int(doc.get("low", -8)), high=int(doc.get("high", 8)),
                   max_denominator=int(doc.get("max_denominator", 1024)))

    def to_json(self) -> dict:
        return {"count": self.count, "seed": self.seed, "low": self.low,
                "high": self.high, "max_denominator": self.max_denominator}


@dataclass(frozen=True)
class SampleSpec:
    """Explicit points/pairs plus an optional seeded random block."""

    points: tuple[tuple[str, ...], ...] = ()
    pairs: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = ()
    random: RandomSampleSpec | None = None

    @classmethod
    def from_json(cls, doc: dict | None) -> "SampleSpec":
        doc = doc or {}
        points = tuple(tuple(str(v) for v in coords)
                       for coords in doc.get("points", []))
        pairs = tuple((tuple(str(v) for v in x), tuple(str(v) for v in y))
                      for x, y in doc.get("pairs", []))
        rnd = doc.get("random")
        return cls(points=points, pairs=pairs,
                   random=RandomSampleSpec.from_json(rnd) if rnd else None)

    def to_json(self) -> dict:
        doc: dict = {}
        if self.points:
            doc["points"] = [list(p) for p in self.points]
        if self.pairs:
            doc["pairs"] = [[list(x), list(y)] for x, y in self.pairs]
        if self.random:
            doc["random"] = self.random.to_json()
        return doc

    def explicit_points(self, dim: int, mode: str,
                        norm_kind: str) -> list[Point]:
        """Configured points matching the requested dimension."""
        return [point([parse_rational(v) for v in coords], mode, norm_kind)
                for coords in self.points if len(coords) == dim]

    def random_points(self, dim: int, mode: str, norm_kind: str) -> list[Point]:
        if not (self.random and self.random.count):
            return []
        rng = random.Random(self.random.seed)
        return [random_point(rng, dim, mode, norm_kind, self.random.low,
                             self.random.high, self.random.max_denominator)
                for _ in range(self.random.count)]

    def sample_points(self, dim: int, mode: str, norm_kind: str) -> list[Point]:
        return (self.explicit_points(dim, mode, norm_kind)
                + self.random_points(dim, mode, norm_kind))

    def explicit_pairs(self, dim: int, mode: str,
                       norm_kind: str) -> list[tuple[Point, Point]]:
        return [(point([parse_rational(v) for v in x], mode, norm_kind),
                 point([parse_rational(v) for v in y], mode, norm_kind))
                for x, y in self.pairs if len(x) == dim and len(y) == dim]

    def random_pairs(self, dim: int, mode: str,
                     norm_kind: str) -> list[tuple[Point, Point]]:
        if not (self.random and self.random.count):
            return []
        rng = random.Random(self.random.seed)
        out = []
        for _ in range(self.random.count):
            first = random_point(rng, dim, mode, norm_kind, self.random.low,
                                 self.random.high, self.random.max_denominator)
            second = random_point(rng, dim, mode, norm_kind, self.random.low,
                                  self.random.high, self.random.max_denominator)
            out.append((first, second))
        return out

    def sample_pairs(self, dim: int, mode: str,
                     norm_kind: str) -> list[tuple[Point, Point]]:
        return (self.explicit_pairs(dim, mode, norm_kind)
                + self.random_pairs(dim, mode, norm_kind))


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

def _n_max_from_json(value) -> int:
    n_max = int(value)
    if n_max < 1:
        raise ConfigError(f"n_max must be at least 1, got {n_max}")
    return n_max


def _direction_from_json(value):
    if value in ("auto", None):
        return "auto"
    if value in (-1, 1):
        return int(value)
    raise ConfigError(f"direction must be -1, 1 or \"auto\", got {value!r}")


@dataclass
class ExperimentConfig:
    """One experiment: model(s), control function, sampling and tolerances.

    Two runs of the same config produce byte-identical outputs; nothing
    here depends on wall time, platform or hashing randomization.
    """

    dim_in: int = 1
    dim_out: int = 1
    norm_kind: str = EUCLIDEAN
    mode: str = EXACT
    model: FuncModel | None = None
    models: list[tuple[str, FuncModel]] = field(default_factory=list)
    families: dict | None = None
    phi: ControlFunction | None = None
    phi_certify: bool = False
    direction_additive: int | str = "auto"
    direction_cubic: int | str = "auto"
    samples: SampleSpec = field(default_factory=SampleSpec)
    tol_abs: float = 1e-12
    tol_rel: float = 1e-10
    series_tol: float = 1e-12
    n_max: int = 48
    chain: bool = True
    catalogue_out: str | None = None
    bounds_items: list[dict] = field(default_factory=list)
    consistency: dict | None = None
    output_stem: str = "report"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        version = doc.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version!r}")
        mode = doc.get("mode", EXACT)
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}")
        norm_kind = doc.get("norm", EUCLIDEAN)
        if norm_kind not in NORM_KINDS:
            raise ConfigError(f"unknown norm kind {norm_kind!r}")

        phi_doc = doc.get("phi")
        phi = None
        certify = False
        if phi_doc == "certify":
            certify = True
        elif phi_doc is not None:
            phi = phi_from_json(phi_doc)

        directions = doc.get("directions", {})
        models = [(entry.get("label", f"model_{idx:02d}"),
                   model_from_json(entry))
                  for idx, entry in enumerate(doc.get("models", []))]

        return cls(
            dim_in=int(doc.get("dim_in", 1)),
            dim_out=int(doc.get("dim_out", 1)),
            norm_kind=norm_kind,
            mode=mode,
            model=model_from_json(doc["model"]) if "model" in doc else None,
            models=models,
            families=doc.get("families"),
            phi=phi,
            phi_certify=certify,
            direction_additive=_direction_from_json(directions.get("additive")),
            direction_cubic=_direction_from_json(directions.get("cubic")),
            samples=SampleSpec.from_json(doc.get("samples")),
            tol_abs=float(doc.get("tolerances", {}).get("abs", 1e-12)),
            tol_rel=float(doc.get("tolerances", {}).get("rel", 1e-10)),
            series_tol=float(doc.get("tolerances", {}).get("series", 1e-12)),
            n_max=_n_max_from_json(doc.get("n_max", 48)),
            chain=bool(doc.get("chain", True)),
            catalogue_out=doc.get("catalogue_out"),
            bounds_items=list(doc.get("bounds", [])),
            consistency=doc.get("consistency"),
            output_stem=str(doc.get("output_stem", "report")),
        )

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_json_dict(doc)

    def family_models(self) -> list[tuple[str, FuncModel]]:
        """Labeled models: explicit ones plus seeded random families."""
        labeled = list(self.models)
        if self.model is not None:
            labeled.insert(0, ("model", self.model))
        spec = self.families or {}
        if spec:
            rng = random.Random(int(spec.get("seed", 0)))
            dims = [tuple(d) for d in spec.get("dims", [[self.dim_in,
                                                         self.dim_out]])]
            for idx in range(int(spec.get("linear", 0))):
                d, m = dims[rng.randint(0, len(dims) - 1)]
                labeled.append((f"linear_{idx:03d}",
                                FuncModel(d, m, (random_linear(rng, d, m),))))
            for idx in range(int(spec.get("cubic", 0))):
                d, m = dims[rng.randint(0, len(dims) - 1)]
                labeled.append((f"cubic_{idx:03d}",
                                FuncModel(d, m, (random_cubic(rng, d, m),))))
        return labeled


# ---------------------------------------------------------------------------
# Sweep specification
# ---------------------------------------------------------------------------

@dataclass
class SweepSpec:
    """Grid over exponents, theta and noise amplitude, one experiment per cell."""

    form: str = "sum"  # "sum" uses exponents p; "product" uses (r, s) pairs
    exponents: tuple[Fraction, ...] = ()
    rs_pairs: tuple[tuple[Fraction, Fraction], ...] = ()
    thetas: tuple[Fraction, ...] = (Fraction(1),)
    epsilons: tuple[Fraction, ...] = ()
    l_modes: tuple[str, ...] = ("auto",)
    allow_divergent: bool = False
    solution_linear: Fraction = Fraction(2)
    solution_cubic: Fraction = Fraction(1)
    noise_seed: int = 11
    norm_kind: str = EUCLIDEAN
    samples: SampleSpec = field(default_factory=SampleSpec)
    tol_abs: float = 1e-12
    tol_rel: float = 1e-10
    series_tol: float = 1e-12
    n_max: int = 48
    output_stem: str = "sweep"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SweepSpec":
        version = doc.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version!r}")
        form = doc.get("form", "sum")
        if form not in ("sum", "product"):
            raise ConfigError(f"sweep form must be 'sum' or 'product', got {form!r}")
        base = doc.get("base", {})
        solution = base.get("solution", {})
        tolerances = base.get("tolerances", {})
        spec = cls(
            form=form,
            exponents=tuple(sorted(parse_rational(p) for p in doc.get("p", []))),
            rs_pairs=tuple(sorted((parse_rational(r), parse_rational(s))
                                  for r, s in doc.get("rs", []))),
            thetas=tuple(sorted(parse_rational(t) for t in doc.get("theta", [1]))),
            epsilons=tuple(sorted(parse_rational(e)
                                  for e in doc.get("epsilon", [0]))),
            l_modes=tuple(sorted(doc.get("l_mode", ["auto"]))),
            allow_divergent=bool(doc.get("allow_divergent", False)),
            solution_linear=parse_rational(solution.get("linear", 2)),
            solution_cubic=parse_rational(solution.get("cubic", 1)),
            noise_seed=int(base.get("noise_seed", 11)),
            norm_kind=base.get("norm", EUCLIDEAN),
            samples=SampleSpec.from_json(base.get("samples")),
            tol_abs=float(tolerances.get("abs", 1e-12)),
            tol_rel=float(tolerances.get("rel", 1e-10)),
            series_tol=float(tolerances.get("series", 1e-12)),
            n_max=_n_max_from_json(base.get("n_max", 48)),
            output_stem=str(doc.get("output_stem", "sweep")),
        )
        for mode in spec.l_modes:
            if mode not in ("auto", "pos", "neg"):
                raise ConfigError(f"unknown l_mode {mode!r}")
        return spec

    @classmethod
    def load(cls, path) -> "SweepSpec":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_json_dict(doc)

    def cells(self) -> list[dict]:
        """Grid cells in sorted order; each cell fully describes one run."""
        if self.form == "sum":
            exponent_axis = [(p, None, None) for p in self.exponents]
        else:
            exponent_axis = [(r + s, r, s) for r, s in self.rs_pairs]
        out = []
        for p, r, s in exponent_axis:
            for theta in self.thetas:
                for eps in self.epsilons:
                    for l_mode in self.l_modes:
                        out.append({"p": p, "r": r, "s": s, "theta": theta,
                                    "epsilon": eps, "l_mode": l_mode})
        return out
