"""JSON configuration schema: models, control functions, experiments, sweeps.

A whole experiment is a single JSON document, so a run is reproducible from
one artifact.  Scalars may be JSON numbers or strings; strings are parsed
as exact rationals ("3/4", "0.25", "1e-3"), which is the lossless way to
feed exact mode.  Random sampling is delegated to ``random.Random`` (the
Mersenne Twister), drawing integers only, so sample streams are portable
across platforms and Python versions.

Each JSON object of a document is read by a :func:`section` that declares
its keys once, each with a field reader; an experiment's keys also name
the subcommands that read them, and each subcommand has a section of its
own.  Values are converted at load, and a key the subcommand does not read,
a missing required key, or a value its reader cannot convert is a
:class:`ConfigError` naming the key path, such as ``samples.random.count``
or ``bounds[0].phi``.  The runners see typed values only.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from .bounds import (CONVERGED, DIVERGED, EXCLUDED_ADDITIVE_EXPONENT,
                     EXCLUDED_CUBIC_EXPONENT, auto_directions)
from .models import (BoundedNoise, Constant, ControlFunction, CubicHomogeneous,
                     DimensionMismatchError, Even, FuncModel, Linear, Point,
                     PowerNoise, ProductOfPowers, SumOfPowers, EUCLIDEAN,
                     NORM_KINDS, point, random_cubic, random_linear,
                     random_point)
from .noise import MAX_POWER_BITS
from .scalars import EXACT, MODES, format_number, parse_rational

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed configuration document."""


# ---------------------------------------------------------------------------
# Field readers: functions (value, key path) -> typed value
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _reader(convert, what: str, minimum=None, maximum=None):
    """A reader applying ``convert``, which raises on a value it rejects."""
    def read(value, where: str):
        try:
            result = convert(value)
        except (TypeError, ValueError, ArithmeticError):
            raise ConfigError(f"{where} must be {what}, got {value!r}") from None
        if minimum is not None and result < minimum:
            raise ConfigError(f"{where} must be at least {minimum}, "
                              f"got {value!r}")
        if maximum is not None and result > maximum:
            raise ConfigError(f"{where} must be at most {maximum}, "
                              f"got {value!r}")
        return result
    return read


def _exactly(kind):
    """Identity on values of type ``kind``; bool is not int here."""
    def convert(value):
        if type(value) is not kind:
            raise TypeError(value)
        return value
    return convert


def integer(minimum: int | None = None):
    """JSON integers, not booleans or floats, of at least ``minimum``."""
    return _reader(_exactly(int), "an integer", minimum)


def rational(minimum=None, decimal: bool = False, maximum=None):
    """Exact rationals from JSON numbers or strings.

    A value must fit in a float, because norms and bound series are
    evaluated in floats.  ``decimal`` reads a number from its text, so that
    a JSON 0.1 is exactly 1/10.
    """
    def convert(value) -> Fraction:
        number = parse_rational(str(value) if decimal else value)
        float(number)
        return number
    return _reader(convert, "a finite rational number", minimum, maximum)


# Nonnegative floats such as a ``tol``.
real = _reader(lambda value: float(parse_rational(value)), "a number",
               minimum=0)


flag = _reader(_exactly(bool), "true or false")
text = _reader(_exactly(str), "a string")


def _file_name(value) -> str:
    name = _exactly(str)(value)
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ValueError(name)
    return name


# Output names stay inside the output directory.
file_name = _reader(_file_name, "a file name without a directory part")


def choice(*options):
    """One of ``options``, compared with type: 1.0 and true are not 1."""
    def convert(value):
        if not any(type(value) is type(o) and value == o for o in options):
            raise ValueError(value)
        return value
    return _reader(convert, " | ".join(json.dumps(o) for o in options))


def list_of(read, size: int | None = None, nonempty: bool = False):
    """JSON lists of values ``read`` accepts; ``size`` fixes the length."""
    def convert(value) -> list:
        if (type(value) is not list or size not in (None, len(value))
                or nonempty and not value):
            raise ValueError(value)
        return value
    check = _reader(convert, f"a list of {size} items" if size
                    else "a nonempty list" if nonempty else "a list")
    return lambda value, where: tuple(
        read(item, f"{where}[{index}]")
        for index, item in enumerate(check(value, where)))


def section(schema: dict):
    """JSON objects read into a dict, keyed as declared in ``schema``.

    ``schema`` maps each key to its reader, or to a (reader, default) pair
    when the key may be left out.  A default is read like a configured
    value, except that None stays None.  A dotted key "a.b" is key "b" of
    the object under "a", which may itself be left out.  Any other key is
    an error.
    """
    nested: dict = {}
    for key, entry in schema.items():
        outer, _, inner = key.partition(".")
        if inner:
            nested.setdefault(outer, {})[inner] = entry
    entries = {key: entry for key, entry in schema.items() if "." not in key}
    entries.update({outer: (section(inner), {})
                    for outer, inner in nested.items()})

    def read(value, where: str) -> dict:
        if type(value) is not dict:
            raise ConfigError(f"{where or 'the document'} must be an object, "
                              f"got {value!r}")
        out = {}
        for key, entry in entries.items():
            reader, default = entry if isinstance(entry, tuple) \
                else (entry, _REQUIRED)
            path = f"{where}.{key}" if where else key
            if key in value:
                out[key] = reader(value[key], path)
            elif default is _REQUIRED:
                raise ConfigError(f"missing key {path!r}")
            else:
                out[key] = None if default is None else reader(default, path)
        for key in value:
            if key not in entries:
                raise ConfigError(
                    f"unknown key {f'{where}.{key}' if where else key!r}")
        for outer in nested:
            out.update({f"{outer}.{key}": inner
                        for key, inner in out.pop(outer).items()})
        return out
    return read


def _sorted(read):
    return lambda value, where: tuple(sorted(read(value, where)))


def _reject_excluded(exponents, where: str, hint: str = "") -> None:
    """Exponents 1 and 3 make one component series diverge."""
    for p in exponents:
        if float(p) in (EXCLUDED_ADDITIVE_EXPONENT, EXCLUDED_CUBIC_EXPONENT):
            raise ConfigError(f"{where}: exponent p={p} is excluded{hint}")


def _to_json(value):
    """Typed values back to JSON: rationals as "p/q" text, tuples as lists."""
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return format_number(value) if isinstance(value, Fraction) else value


_DIRECTION = choice(-1, 1, "auto")
_COORDINATES = list_of(rational(decimal=True), nonempty=True)
_MATRIX = list_of(list_of(rational(), nonempty=True), nonempty=True)
_RS_PAIR = list_of(rational(minimum=0), size=2)
# noise._scale refuses an integer power above MAX_POWER_BITS at any x != 0.
_NOISE_EXPONENT = rational(minimum=0, maximum=MAX_POWER_BITS)


# ---------------------------------------------------------------------------
# Atoms, models and control functions
# ---------------------------------------------------------------------------

def _cubic_term(value, where: str):
    """A [monomial, coefficient] row of a cubic atom."""
    monomial, coefficient = list_of(lambda item, _: item, size=2)(value, where)
    return (list_of(integer(minimum=0), size=3)(monomial, f"{where}[0]"),
            rational()(coefficient, f"{where}[1]"))


_ATOMS = {
    "linear": (Linear, {"matrix": _MATRIX}),
    "cubic": (CubicHomogeneous, {"dims": list_of(integer(minimum=1), size=2),
                                 "terms": list_of(list_of(_cubic_term))}),
    "even": (Even, {"matrices": list_of(_MATRIX, nonempty=True)}),
    "bounded_noise": (BoundedNoise, {"seed": integer(),
                                     "amplitude": rational(minimum=0)}),
    "power_noise": (PowerNoise, {"seed": integer(),
                                 "amplitude": rational(minimum=0),
                                 "exponent": (_NOISE_EXPONENT, 0)}),
}
_PHIS = {
    "constant": (Constant, {"value": rational(minimum=0)}),
    "sum_of_powers": (SumOfPowers, {"theta": rational(minimum=0),
                                    "power": rational(minimum=0)}),
    "product_of_powers": (ProductOfPowers, {"theta": rational(minimum=0),
                                            "r": rational(minimum=0),
                                            "s": rational(minimum=0)}),
}


def _build(cls, values: dict, where: str):
    """cls(**values), reporting its dimension checks as config errors."""
    try:
        return cls(**values)
    except DimensionMismatchError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _from_variant(doc, where: str, tag: str, variants: dict):
    """The value the constructor ``doc[tag]`` names makes of its keys."""
    name = doc.get(tag) if type(doc) is dict else None
    cls, schema = variants.get(name if type(name) is str else None, (None, {}))
    values = section({tag: choice(*variants), **schema})(doc, where)
    del values[tag]
    return _build(cls, values, where)


def atom_to_json(atom) -> dict:
    for name, (cls, schema) in _ATOMS.items():
        if type(atom) is cls:
            return {"kind": name, **{key: _to_json(getattr(atom, key))
                                     for key in schema}}
    raise ConfigError(f"no kind for {type(atom).__name__}")


def atom_from_json(doc: dict, where: str = "atom"):
    return _from_variant(doc, where, "kind", _ATOMS)


def phi_to_json(phi: ControlFunction) -> dict:
    """The variant a control function reads as, told by its monomials: one
    (0, 0) is a constant, the pair (p, 0), (0, p) a sum of powers."""
    theta, p, monomials = _to_json(phi.theta), phi.degree, phi.monomials
    if monomials == ((0, 0),):
        return {"variant": "constant", "value": theta}
    if monomials == ((p, 0), (0, p)):
        return {"variant": "sum_of_powers", "theta": theta,
                "power": _to_json(p)}
    if len(monomials) != 1:
        raise ConfigError(f"no variant for {phi!r}")
    (r, s), = monomials
    return {"variant": "product_of_powers", "theta": theta, "r": _to_json(r),
            "s": _to_json(s)}


def phi_from_json(doc: dict, where: str = "phi") -> ControlFunction:
    return _from_variant(doc, where, "variant", _PHIS)


def _phi_or_certify(value, where: str):
    """A control function, or None for "certify": derive it from the model."""
    return None if value == "certify" else phi_from_json(value, where)


_MODEL = {"dim_in": (integer(minimum=1), 1),
          "dim_out": (integer(minimum=1), 1),
          "atoms": (list_of(atom_from_json), [])}


def model_to_json(model: FuncModel) -> dict:
    return {
        "dim_in": model.dim_in,
        "dim_out": model.dim_out,
        "atoms": [atom_to_json(a) for a in model.atoms],
    }


def model_from_json(doc: dict, where: str = "model") -> FuncModel:
    return _build(FuncModel, section(_MODEL)(doc, where), where)


def _labeled_models(value, where: str) -> tuple[tuple[str, FuncModel], ...]:
    """Models with their labels; an unlabeled one is named by its index."""
    out = []
    for index, doc in enumerate(list_of(section(
            {"label": (text, None), **_MODEL}))(value, where)):
        label = doc.pop("label")
        out.append((f"model_{index:02d}" if label is None else label,
                    _build(FuncModel, doc, f"{where}[{index}]")))
    return tuple(out)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _sample_pair(value, where: str):
    x, y = list_of(_COORDINATES, size=2)(value, where)
    if len(x) != len(y):
        raise ConfigError(f"{where} pairs points of dimensions {len(x)} "
                          f"and {len(y)}")
    return x, y


_SAMPLE_KEYS = section({
    "points": (list_of(_COORDINATES), []),
    "pairs": (list_of(_sample_pair), []),
    "random.count": (integer(minimum=0), 0),
    "random.seed": (integer(), 0),
    "random.low": (integer(), -8),
    "random.high": (integer(), 8),
    "random.max_denominator": (integer(minimum=1), 1024),
})


class SampleSpec:
    """Explicit points/pairs plus ``count`` seeded random draws."""

    def __init__(self, keys: dict):
        """``keys``: the values :data:`_SAMPLE_KEYS` reads, by key path."""
        self.points, self.pairs = keys["points"], keys["pairs"]
        self.count, self.seed = keys["random.count"], keys["random.seed"]
        self.low, self.high = keys["random.low"], keys["random.high"]
        self.max_denominator = keys["random.max_denominator"]

    @classmethod
    def from_json(cls, doc: dict, where: str = "samples") -> "SampleSpec":
        spec = cls(_SAMPLE_KEYS(doc, where))
        if spec.high < spec.low:
            raise ConfigError(f"{where}.random.high must be at least low "
                              f"({spec.low}), got {spec.high}")
        return spec

    def to_json(self) -> dict:
        return {"points": _to_json(self.points), "pairs": _to_json(self.pairs),
                "random": {"count": self.count, "seed": self.seed,
                           "low": self.low, "high": self.high,
                           "max_denominator": self.max_denominator}}

    def require_dims(self, dims, where: str = "samples") -> None:
        """Reject an explicit point or pair of a dimension outside ``dims``.

        Sampling keeps only the entries of the dimension asked for, so one
        that fits no model would otherwise be dropped without a word.
        """
        for key, entries in (("points", self.points),
                             ("pairs", [x for x, _ in self.pairs])):
            for index, coords in enumerate(entries):
                if len(coords) not in dims:
                    raise ConfigError(
                        f"{where}.{key}[{index}] has dimension {len(coords)}"
                        f", but the models take "
                        f"{' or '.join(map(str, sorted(dims)))}")

    def _draw(self, count: int, dim: int, mode: str,
              norm_kind: str) -> list[Point]:
        rng = random.Random(self.seed)
        return [random_point(rng, dim, mode, norm_kind, self.low, self.high,
                             self.max_denominator) for _ in range(count)]

    def explicit_points(self, dim: int, mode: str,
                        norm_kind: str) -> list[Point]:
        """Configured points matching the requested dimension."""
        return [point(coords, mode, norm_kind)
                for coords in self.points if len(coords) == dim]

    def random_points(self, dim: int, mode: str, norm_kind: str) -> list[Point]:
        return self._draw(self.count, dim, mode, norm_kind)

    def sample_points(self, dim: int, mode: str, norm_kind: str) -> list[Point]:
        return (self.explicit_points(dim, mode, norm_kind)
                + self.random_points(dim, mode, norm_kind))

    def explicit_pairs(self, dim: int, mode: str,
                       norm_kind: str) -> list[tuple[Point, Point]]:
        return [(point(x, mode, norm_kind), point(y, mode, norm_kind))
                for x, y in self.pairs if len(x) == dim]

    def random_pairs(self, dim: int, mode: str,
                     norm_kind: str) -> list[tuple[Point, Point]]:
        """``count`` pairs, drawn first point then second from one stream."""
        drawn = self._draw(2 * self.count, dim, mode, norm_kind)
        return list(zip(drawn[::2], drawn[1::2]))

    def sample_pairs(self, dim: int, mode: str,
                     norm_kind: str) -> list[tuple[Point, Point]]:
        return (self.explicit_pairs(dim, mode, norm_kind)
                + self.random_pairs(dim, mode, norm_kind))


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

def _series_direction(value, where: str):
    """-1, 1 or "auto", or an [additive, cubic] pair of -1 and 1."""
    if type(value) is list:
        return list_of(choice(-1, 1), size=2)(value, where)
    return _DIRECTION(value, where)


_BOUNDS_ITEM = section({
    "kind": (choice("additive", "cubic", "combined"), "combined"),
    "phi": phi_from_json,
    "x": (_COORDINATES, ["1"]),
    "l": (_series_direction, "auto"),
    "expect": (choice(CONVERGED, DIVERGED), CONVERGED),
})


def _bounds_item(doc, where: str) -> dict:
    """A series evaluation, its direction(s) resolved against ``phi``."""
    item = _BOUNDS_ITEM(doc, where)
    l = auto_directions(item["phi"]) if item["l"] == "auto" else item["l"]
    if item["kind"] != "combined" and isinstance(l, tuple):
        l = l[0] if item["kind"] == "additive" else l[1]
    return {**item, "l": l, "x_text": tuple(map(str, doc.get("x", ["1"])))}


_CONSISTENCY = section({
    "theta": (rational(minimum=0), 1),
    "tol": (real, 1e-9),
    "x": (_COORDINATES, ["1"]),
    "p": (list_of(rational(minimum=0)), []),
    "rs": (list_of(_RS_PAIR), []),
})


def _consistency(doc, where: str) -> dict:
    """Closed forms against series at exponents p and r + s."""
    spec = _CONSISTENCY(doc, where)
    _reject_excluded(spec["p"], f"{where}.p")
    for r, s in spec["rs"]:  # the closed form adds r and s as floats
        _reject_excluded([r + s, float(r) + float(s)], f"{where}.rs")
    return {**spec,
            "rs_text": [tuple(map(str, pair)) for pair in doc.get("rs", [])]}


_FAMILIES = section({
    "linear": (integer(minimum=0), 0),
    "cubic": (integer(minimum=0), 0),
    "seed": (integer(), 0),
    "dims": (list_of(list_of(integer(minimum=1), size=2), nonempty=True),
             [[1, 1]]),
})
_SCHEMA_VERSION = choice(SCHEMA_VERSION)
# The subcommands that read an ExperimentConfig key.
_LEMMAS = ("check-lemmas", "replay-chain")
_SAMPLED = (*_LEMMAS, "recover")
_RECOVER, _BOUNDS = ("recover",), ("bounds",)
_ALL = (*_SAMPLED, *_BOUNDS)
# Each key: (reader, default, the subcommands that read it).
_EXPERIMENT_KEYS = {
    "schema_version": (_SCHEMA_VERSION, 1, _ALL),
    "norm": (choice(*NORM_KINDS), EUCLIDEAN, _ALL),
    "mode": (choice(*MODES), EXACT, _ALL),
    "model": (model_from_json, None, _SAMPLED),
    "models": (_labeled_models, [], _LEMMAS),
    "families": (_FAMILIES, None, _LEMMAS),
    "phi": (_phi_or_certify, None, _RECOVER),
    "directions.additive": (_DIRECTION, "auto", _RECOVER),
    "directions.cubic": (_DIRECTION, "auto", _RECOVER),
    "samples": (SampleSpec.from_json, {}, _SAMPLED),
    "n_max": (integer(minimum=1), 48, _RECOVER),
    "chain": (flag, True, ("check-lemmas",)),
    "catalogue_out": (file_name, None, _LEMMAS),
    "bounds": (list_of(_bounds_item), [], _BOUNDS),
    "consistency": (_consistency, None, _BOUNDS),
    "output_stem": (file_name, "report", _ALL),
}
_EXPERIMENT_SECTIONS = {
    command: section({key: (read, default) for key, (read, default, commands)
                      in _EXPERIMENT_KEYS.items() if command in commands})
    for command in _ALL}


class ExperimentConfig:
    """One experiment: model(s), control function, sampling and depth cap.

    Each attribute holds the value of one document key, or None when the
    subcommand does not read that key; a direction is -1, 1 or "auto".
    Two runs of the same config produce byte-identical outputs; nothing
    here depends on wall time, platform or hashing randomization.
    """

    def __init__(self, keys: dict):
        """``keys``: a subcommand's values of :data:`_EXPERIMENT_KEYS`."""
        self.norm_kind: str = keys["norm"]
        self.mode: str = keys["mode"]
        self.model: FuncModel | None = keys.get("model")
        self.models: tuple | None = keys.get("models")
        self.families: dict | None = keys.get("families")
        self.phi: ControlFunction | None = keys.get("phi")
        self.direction_additive = keys.get("directions.additive")
        self.direction_cubic = keys.get("directions.cubic")
        self.samples: SampleSpec | None = keys.get("samples")
        self.n_max: int | None = keys.get("n_max")
        self.chain: bool | None = keys.get("chain")
        self.catalogue_out: str | None = keys.get("catalogue_out")
        self.bounds_items: tuple[dict, ...] | None = keys.get("bounds")
        self.consistency: dict | None = keys.get("consistency")
        self.output_stem: str = keys["output_stem"]

    @classmethod
    def from_json_dict(cls, doc: dict, command: str) -> "ExperimentConfig":
        keys = _EXPERIMENT_SECTIONS[command](doc, "")
        report = f"{keys['output_stem']}.json"
        if keys.get("catalogue_out") == report:
            raise ConfigError(f"catalogue_out {report!r} would overwrite "
                              "the report of output_stem")
        return cls(keys)

    @classmethod
    def load(cls, path, command: str) -> "ExperimentConfig":
        return cls.from_json_dict(_read_json(path), command)

    def family_models(self) -> list[tuple[str, FuncModel]]:
        """Labeled models: explicit ones plus seeded random families."""
        labeled = list(self.models)
        if self.model is not None:
            labeled.insert(0, ("model", self.model))
        spec = self.families
        if spec:
            rng = random.Random(spec["seed"])
            dims = spec["dims"]
            for kind, make in (("linear", random_linear),
                               ("cubic", random_cubic)):
                for idx in range(spec[kind]):
                    d, m = dims[rng.randint(0, len(dims) - 1)]
                    labeled.append((f"{kind}_{idx:03d}",
                                    FuncModel(d, m, (make(rng, d, m),))))
        return labeled


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Sweep specification
# ---------------------------------------------------------------------------

_SWEEP_KEYS = section({
    "schema_version": (_SCHEMA_VERSION, 1),
    "form": (choice("sum", "product"), "sum"),
    "p": (_sorted(list_of(rational(minimum=0))), []),
    "rs": (_sorted(list_of(_RS_PAIR)), []),
    "theta": (_sorted(list_of(rational(minimum=0))), [1]),
    "epsilon": (_sorted(list_of(rational(minimum=0))), [0]),
    "l_mode": (_sorted(list_of(choice("auto", "pos", "neg"))), ["auto"]),
    "allow_divergent": (flag, False),
    "base.solution.linear": (rational(), 2),
    "base.solution.cubic": (rational(), 1),
    "base.noise_seed": (integer(), 11),
    "base.norm": (choice(*NORM_KINDS), EUCLIDEAN),
    "base.samples": (SampleSpec.from_json, {}),
    "base.n_max": (integer(minimum=1), 48),
    "output_stem": (file_name, "sweep"),
})


class SweepSpec:
    """Grid over exponents, theta and noise amplitude, one experiment per cell."""

    def __init__(self, keys: dict):
        """``keys``: the values :data:`_SWEEP_KEYS` reads, by key path."""
        self.form: str = keys["form"]
        self.exponents: tuple[Fraction, ...] = keys["p"]
        self.rs_pairs: tuple[tuple[Fraction, Fraction], ...] = keys["rs"]
        self.thetas: tuple[Fraction, ...] = keys["theta"]
        self.epsilons: tuple[Fraction, ...] = keys["epsilon"]
        self.l_modes: tuple[str, ...] = keys["l_mode"]
        self.allow_divergent: bool = keys["allow_divergent"]
        self.solution_linear: Fraction = keys["base.solution.linear"]
        self.solution_cubic: Fraction = keys["base.solution.cubic"]
        self.noise_seed: int = keys["base.noise_seed"]
        self.norm_kind: str = keys["base.norm"]
        self.samples: SampleSpec = keys["base.samples"]
        self.n_max: int = keys["base.n_max"]
        self.output_stem: str = keys["output_stem"]

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SweepSpec":
        spec = cls(_SWEEP_KEYS(doc, ""))
        cells = spec.cells()
        axis = "p" if spec.form == "sum" else "rs"
        if not spec.allow_divergent:
            exponents = [cell["p"] for cell in cells]
            if spec.form == "product":  # the closed form adds r, s as floats
                exponents += [float(r) + float(s) for r, s in spec.rs_pairs]
            _reject_excluded(exponents, axis, "; set allow_divergent to "
                             "demonstrate the divergence instead")
        unread, values = (("p", spec.exponents) if spec.form == "product"
                          else ("rs", spec.rs_pairs))
        if values:
            raise ConfigError(f"{unread} is not read under form "
                              f"{spec.form!r}, whose exponents are {axis}")
        if not cells:
            raise ConfigError(f"the sweep grid is empty: {axis}, theta, "
                              "epsilon and l_mode each need a value")
        return spec

    @classmethod
    def load(cls, path, command: str = "sweep") -> "SweepSpec":
        """``command`` is unused: a sweep spec has one key set."""
        return cls.from_json_dict(_read_json(path))

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
