"""Points, norms, function models and control functions.

The domain and codomain are finite-dimensional real spaces R^d with either
the Euclidean or the max norm.  A function model is a sum of atoms:

* ``Linear``            -- f(x) = M x, exactly additive;
* ``CubicHomogeneous``  -- per-output homogeneous degree-3 polynomials,
                           satisfying f(2x) = 8 f(x) and f(-x) = -f(x);
* ``BoundedNoise``      -- deterministic perturbation, ||f(x)|| <= eps;
* ``PowerNoise``        -- deterministic perturbation, ||f(x)|| <= eps ||x||^p;
* ``Even``              -- quadratic forms, a deliberate non-solution used in
                           negative tests.

All coefficients are stored as exact rationals; evaluation happens in the
mode of the input point (exact or float).  Exact evaluation is one integer
kernel: the argument is integer numerators over one denominator, each atom
returns integer numerators over one denominator, and the model adds them.
Callers holding integers pass ``den`` and get integers back; others get one
``Fraction`` per output coordinate.  Every value is immutable after
construction and evaluation is pure, so everything here is safe to share
across threads without synchronization.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence, Union

from . import noise as noise_mod
from .scalars import (EXACT, FLOAT, ModeMismatchError, Number, add_ratios,
                      coerce, integer_ratio, require_mode)

EUCLIDEAN = "euclidean"
MAX = "max"
NORM_KINDS = (EUCLIDEAN, MAX)


class DimensionMismatchError(ValueError):
    """Raised when points or models of incompatible dimensions meet."""


# ---------------------------------------------------------------------------
# Points and norms
# ---------------------------------------------------------------------------

def _coord_mode(coords) -> str:
    modes = {FLOAT if isinstance(c, float) else EXACT for c in coords}
    if len(modes) != 1:
        raise ModeMismatchError("point mixes exact and float coordinates")
    return modes.pop()


@dataclass(frozen=True)
class Point:
    """An element of R^d: ordered coordinates plus the active norm kind."""

    coords: tuple[Number, ...]
    norm_kind: str = EUCLIDEAN
    mode: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coords) < 1:
            raise DimensionMismatchError("points need at least one coordinate")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.norm_kind!r}")
        object.__setattr__(self, "mode", _coord_mode(self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check_compatible(self, other: "Point") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dimension {self.dim} vs {other.dim}")
        if self.norm_kind != other.norm_kind:
            raise ValueError("points carry different norm kinds")
        if self.mode != other.mode:
            raise ModeMismatchError("points carry different scalar modes")

    def __add__(self, other: "Point") -> "Point":
        self._check_compatible(other)
        return Point(tuple(a + b for a, b in zip(self.coords, other.coords)),
                     self.norm_kind)

    def __sub__(self, other: "Point") -> "Point":
        self._check_compatible(other)
        return Point(tuple(a - b for a, b in zip(self.coords, other.coords)),
                     self.norm_kind)

    def __neg__(self) -> "Point":
        return Point(tuple(-c for c in self.coords), self.norm_kind)

    def scale(self, factor) -> "Point":
        f = coerce(factor, self.mode)
        return Point(tuple(f * c for c in self.coords), self.norm_kind)

    def __rmul__(self, factor) -> "Point":
        return self.scale(factor)

    def to_mode(self, mode: str) -> "Point":
        require_mode(mode)
        if mode == self.mode:
            return self
        return Point(tuple(coerce(c, mode) for c in self.coords), self.norm_kind)


def point(values: Sequence, mode: str = EXACT, norm_kind: str = EUCLIDEAN) -> Point:
    """Build a point, coercing each value into the requested mode."""
    return Point(tuple(coerce(v, mode) for v in values), norm_kind)


def zero_point(dim: int, mode: str = EXACT, norm_kind: str = EUCLIDEAN) -> Point:
    return point([0] * dim, mode, norm_kind)


def norm(p: Point) -> float:
    """Norm of a point under its norm kind, computed as a float.

    Exactness-sensitive checks compare coordinates directly (``is_zero``);
    the norm is a diagnostic metric and float precision is sufficient.
    """
    return coords_norm(p.coords, p.norm_kind)


def coords_norm(coords: Sequence, norm_kind: str) -> float:
    """:func:`norm` of bare coordinates, each rounded to a float first."""
    if norm_kind == MAX:
        return max(abs(float(c)) for c in coords)
    if len(coords) == 1:
        return abs(float(coords[0]))
    return math.sqrt(math.fsum(float(c) * float(c) for c in coords))


# ---------------------------------------------------------------------------
# Model atoms.  ``evaluate(coords, mode, dim_out, den=1)`` returns floats in
# float mode; in exact mode ``coords`` are integers over ``den`` and the
# result is (integer numerators, denominator).
# ---------------------------------------------------------------------------

def _rational_rows(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def _coefficient_tables(coefficients, build):
    """An atom's (float table, (integer table, L)) from its coefficients.

    ``build`` lays out a table from an iterator over the coefficients, in
    order; it is given the floats, then the integer numerators over the one
    denominator L they share.
    """
    ints, den = integer_ratio(coefficients)
    return build(map(float, coefficients)), (build(iter(ints)), den)


@dataclass(frozen=True)
class Linear:
    """f(x) = M x for an m-by-d rational matrix M; exactly additive."""

    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "matrix", _rational_rows(self.matrix))
        widths = {len(row) for row in self.matrix}
        if len(widths) != 1:
            raise DimensionMismatchError("ragged matrix")

    @property
    def dim_in(self) -> int:
        return len(self.matrix[0])

    @property
    def dim_out(self) -> int:
        return len(self.matrix)

    @cached_property
    def _tables(self):
        return _coefficient_tables(
            [v for row in self.matrix for v in row],
            lambda it: tuple(tuple(next(it) for _ in row)
                             for row in self.matrix))

    def evaluate(self, coords, mode: str, dim_out: int, den: int = 1):
        exact = mode == EXACT
        floats, (ints, row_den) = self._tables
        rows = ints if exact else floats
        zero = 0 if exact else 0.0
        out = []
        for row in rows:
            acc = zero
            for m, c in zip(row, coords):
                if m:
                    acc += m * c
            out.append(acc)
        return (out, row_den * den) if exact else out


Monomial = tuple[int, int, int]  # sorted coordinate indices i <= j <= k


@dataclass(frozen=True)
class CubicHomogeneous:
    """Per-output homogeneous cubic polynomials: f_j(x) = sum c * x_i x_j x_k.

    Each output coordinate carries a tuple of (monomial, coefficient) rows
    with sorted index triples, i.e. the diagonal of a symmetric trilinear
    form.  Any such map satisfies f(2x) = 8 f(x) and f(-x) = -f(x) exactly.
    """

    terms: tuple[tuple[tuple[Monomial, Fraction], ...], ...]
    dims: tuple[int, int]  # (d, m); d is not implied by sparse terms

    def __post_init__(self):
        d, m = self.dims
        normalized = []
        for out_terms in self.terms:
            rows = []
            for mono, coeff in out_terms:
                i, j, k = sorted(mono)
                if not 0 <= i <= j <= k < d:
                    raise DimensionMismatchError(f"monomial {mono} out of range")
                rows.append(((i, j, k), Fraction(coeff)))
            normalized.append(tuple(rows))
        if len(normalized) != m:
            raise DimensionMismatchError("one term table per output coordinate")
        object.__setattr__(self, "terms", tuple(normalized))

    @property
    def dim_in(self) -> int:
        return self.dims[0]

    @property
    def dim_out(self) -> int:
        return self.dims[1]

    @cached_property
    def _tables(self):
        return _coefficient_tables(
            [c for rows in self.terms for _, c in rows],
            lambda it: tuple(tuple((mono, next(it)) for mono, _ in rows)
                             for rows in self.terms))

    def evaluate(self, coords, mode: str, dim_out: int, den: int = 1):
        exact = mode == EXACT
        floats, (ints, table_den) = self._tables
        table = ints if exact else floats
        zero = 0 if exact else 0.0
        products: dict[Monomial, object] = {}
        out = []
        for rows in table:
            acc = zero
            for mono, c in rows:
                v = products.get(mono)
                if v is None:
                    i, j, k = mono
                    v = coords[i] * coords[j] * coords[k]
                    products[mono] = v
                acc += c * v
            out.append(acc)
        return (out, table_den * den ** 3) if exact else out


@dataclass(frozen=True)
class Even:
    """Quadratic forms f_j(x) = x^T Q_j x; even, hence never a solution."""

    matrices: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "matrices", tuple(_rational_rows(q) for q in self.matrices))
        d = len(self.matrices[0])
        if any(len(q) != d or any(len(row) != d for row in q)
               for q in self.matrices):
            raise DimensionMismatchError(
                "quadratic forms must be square and of one size")

    @property
    def dim_in(self) -> int:
        return len(self.matrices[0])

    @property
    def dim_out(self) -> int:
        return len(self.matrices)

    @cached_property
    def _tables(self):
        return _coefficient_tables(
            [v for q in self.matrices for row in q for v in row],
            lambda it: tuple(tuple(tuple(next(it) for _ in row) for row in q)
                             for q in self.matrices))

    def evaluate(self, coords, mode: str, dim_out: int, den: int = 1):
        exact = mode == EXACT
        floats, (ints, form_den) = self._tables
        forms = ints if exact else floats
        zero = 0 if exact else 0.0
        out = []
        for q in forms:
            acc = zero
            for row, ci in zip(q, coords):
                for v, cj in zip(row, coords):
                    if v:
                        acc += v * ci * cj
            out.append(acc)
        return (out, form_den * den * den) if exact else out


@dataclass(frozen=True)
class BoundedNoise:
    """Deterministic seeded perturbation with ||f(x)|| <= amplitude."""

    seed: int
    amplitude: Fraction

    def __post_init__(self):
        object.__setattr__(self, "amplitude", Fraction(self.amplitude))
        if self.amplitude < 0:
            raise ValueError("noise amplitude must be nonnegative")
        object.__setattr__(self, "_amplitude", self.amplitude.as_integer_ratio())

    def evaluate(self, coords, mode: str, dim_out: int, den: int = 1,
                 mirror: bool = False):
        return noise_mod.sample(self.seed, coords, self._amplitude, (0, 1),
                                dim_out, mode, den, mirror)


@dataclass(frozen=True)
class PowerNoise:
    """Deterministic seeded perturbation with ||f(x)|| <= amplitude * ||x||^p."""

    seed: int
    amplitude: Fraction
    exponent: Fraction

    def __post_init__(self):
        object.__setattr__(self, "amplitude", Fraction(self.amplitude))
        object.__setattr__(self, "exponent", Fraction(self.exponent))
        if self.amplitude < 0:
            raise ValueError("noise amplitude must be nonnegative")
        if self.exponent < 0:
            raise ValueError("noise exponent must be nonnegative")
        object.__setattr__(self, "_amplitude", self.amplitude.as_integer_ratio())
        object.__setattr__(self, "_exponent", self.exponent.as_integer_ratio())

    def evaluate(self, coords, mode: str, dim_out: int, den: int = 1,
                 mirror: bool = False):
        return noise_mod.sample(self.seed, coords, self._amplitude,
                                self._exponent, dim_out, mode, den, mirror)


Atom = Union[Linear, CubicHomogeneous, Even, BoundedNoise, PowerNoise]
NOISE_ATOMS = (BoundedNoise, PowerNoise)


def _add_floats(a, b):
    return [t + v for t, v in zip(a, b)]


def _mirrored(atom, coords, mode: str, dim_out: int, den: int):
    """(atom(y), atom(-y)).  An odd atom's float sum starts at 0.0, so it is
    never -0.0, and 0.0 - v is its value at -y bit for bit, zeros included.
    """
    if isinstance(atom, NOISE_ATOMS):
        return atom.evaluate(coords, mode, dim_out, den, mirror=True)
    value = atom.evaluate(coords, mode, dim_out, den)
    if isinstance(atom, Even):
        return value, value
    if mode == EXACT:
        return value, ([-n for n in value[0]], value[1])
    return value, [0.0 - v for v in value]


# ---------------------------------------------------------------------------
# Function models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FuncModel:
    """A function R^d -> R^m given as a sum of atoms; callable on points."""

    dim_in: int
    dim_out: int
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        for atom in self.atoms:
            d = getattr(atom, "dim_in", self.dim_in)
            m = getattr(atom, "dim_out", self.dim_out)
            if (d, m) != (self.dim_in, self.dim_out):
                raise DimensionMismatchError(
                    f"atom {type(atom).__name__} is {d}->{m}, "
                    f"model is {self.dim_in}->{self.dim_out}")

    def evaluate_coords(self, coords, mode: str, *, den: int | None = None,
                        mirror: bool = False):
        """Atom-sum evaluation on raw coordinates; see :func:`evaluate`.

        Exact mode sums the atoms' integer numerators.  With ``den`` the
        coordinates are integer numerators over ``den`` and the result is
        (integer numerators, denominator), unreduced; without it they are
        rationals and one normalized ``Fraction`` is returned per output
        coordinate.  With ``mirror`` it is (f(y), f(-y)) from one atom pass.
        """
        if len(coords) != self.dim_in:
            raise DimensionMismatchError(
                f"got {len(coords)} coordinates, model domain is {self.dim_in}")
        exact, ints_den = mode == EXACT, den or 1
        if exact and den is None:
            coords, ints_den = integer_ratio(coords)
        add = add_ratios if exact else _add_floats
        total = minus = None
        for atom in self.atoms:
            if mirror:
                value, value_minus = _mirrored(atom, coords, mode,
                                               self.dim_out, ints_den)
                minus = value_minus if minus is None \
                    else add(minus, value_minus)
            else:
                value = atom.evaluate(coords, mode, self.dim_out, ints_den)
            total = value if total is None else add(total, value)
        if total is None:
            total = minus = ([0] * self.dim_out, ints_den) if exact \
                else [0.0] * self.dim_out
        if exact and den is None:
            total = [Fraction(n, total[1]) for n in total[0]]
            if mirror:
                minus = [Fraction(n, minus[1]) for n in minus[0]]
        return (total, minus) if mirror else total

    def __call__(self, x: Point) -> Point:
        if x.dim != self.dim_in:
            raise DimensionMismatchError(
                f"point has dimension {x.dim}, model domain is {self.dim_in}")
        return Point(tuple(self.evaluate_coords(x.coords, x.mode)), x.norm_kind)

    @property
    def has_noise(self) -> bool:
        return any(isinstance(a, NOISE_ATOMS) for a in self.atoms)

    @property
    def has_even(self) -> bool:
        return any(isinstance(a, Even) for a in self.atoms)

    @property
    def is_additive_exact(self) -> bool:
        """True when every atom is exactly additive (Linear only)."""
        return all(isinstance(a, Linear) for a in self.atoms)

    @property
    def is_cubic_exact(self) -> bool:
        return all(isinstance(a, CubicHomogeneous) for a in self.atoms)

    @property
    def is_solution_exact(self) -> bool:
        """True when the model solves the mixed rule exactly (Linear + cubic)."""
        return all(isinstance(a, (Linear, CubicHomogeneous)) for a in self.atoms)


def evaluate(f: Callable[[Point], Point], coords, mode: str, norm_kind: str,
             den: int | None = None, mirror: bool = False):
    """f at ``coords``: the one place that knows how to evaluate a function.

    A :class:`FuncModel` sums its atoms on the raw coordinates; any other
    callable gets a :class:`Point`.  With ``den`` the coordinates are
    integer numerators over ``den`` and the result is (integer numerators,
    denominator); without it the result is one value per output coordinate.
    With ``mirror`` it is the pair of values at ``coords`` and ``-coords``.
    """
    if isinstance(f, FuncModel):
        return f.evaluate_coords(coords, mode, den=den, mirror=mirror)
    if mirror:
        return tuple(evaluate(f, c, mode, norm_kind, den)
                     for c in (coords, tuple(-c for c in coords)))
    if den is not None:
        coords = [Fraction(c, den) for c in coords]
    values = f(Point(tuple(coords), norm_kind)).coords
    return values if den is None else integer_ratio(values)


# Convenience constructors for the 1-D catalogue used throughout the tests.

def linear_1d(slope) -> Linear:
    return Linear(((Fraction(slope),),))


def cubic_1d(coefficient) -> CubicHomogeneous:
    return CubicHomogeneous(((((0, 0, 0), Fraction(coefficient)),),), dims=(1, 1))


def even_1d(coefficient) -> Even:
    return Even((((Fraction(coefficient),),),))


def model_1d(*atoms: Atom) -> FuncModel:
    return FuncModel(1, 1, tuple(atoms))


def solution_1d(slope, cubic_coefficient) -> FuncModel:
    """The model a*x + c*x^3, an exact solution of the mixed rule."""
    return model_1d(linear_1d(slope), cubic_1d(cubic_coefficient))


# ---------------------------------------------------------------------------
# Control functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    """phi(x, y) = c."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value < 0:
            raise ValueError("control functions are nonnegative")


@dataclass(frozen=True)
class SumOfPowers:
    """phi(x, y) = theta * (||x||^p + ||y||^p)."""

    theta: Fraction
    power: Fraction

    def __post_init__(self):
        object.__setattr__(self, "theta", Fraction(self.theta))
        object.__setattr__(self, "power", Fraction(self.power))
        if self.theta < 0 or self.power < 0:
            raise ValueError("theta and p must be nonnegative")


@dataclass(frozen=True)
class ProductOfPowers:
    """phi(x, y) = theta * ||x||^r * ||y||^s."""

    theta: Fraction
    r: Fraction
    s: Fraction

    def __post_init__(self):
        object.__setattr__(self, "theta", Fraction(self.theta))
        object.__setattr__(self, "r", Fraction(self.r))
        object.__setattr__(self, "s", Fraction(self.s))
        if self.theta < 0 or self.r < 0 or self.s < 0:
            raise ValueError("theta, r, s must be nonnegative")


ControlFunction = Union[Constant, SumOfPowers, ProductOfPowers]


def phi_value(phi: ControlFunction, x: Point, y: Point) -> float:
    """phi(x, y) as a float."""
    if isinstance(phi, Constant):
        return float(phi.value)
    if isinstance(phi, SumOfPowers):
        p = float(phi.power)
        return float(phi.theta) * (norm(x) ** p + norm(y) ** p)
    if isinstance(phi, ProductOfPowers):
        return float(phi.theta) * norm(x) ** float(phi.r) * norm(y) ** float(phi.s)
    raise TypeError(f"not a control function: {phi!r}")


def phi_diagonal(phi: ControlFunction, x: Point) -> float:
    """phi(x, x), the quantity the stability series sums over."""
    return phi_value(phi, x, x)


def phi_degree(phi: ControlFunction) -> Fraction:
    """Homogeneity degree of phi on the diagonal: phi(tx, tx) = t^deg phi(x, x)."""
    if isinstance(phi, Constant):
        return Fraction(0)
    if isinstance(phi, SumOfPowers):
        return phi.power
    if isinstance(phi, ProductOfPowers):
        return phi.r + phi.s
    raise TypeError(f"not a control function: {phi!r}")


# ---------------------------------------------------------------------------
# Seeded generators (portable: Mersenne Twister via random.Random, integer
# draws only, so the stream is stable across platforms and Python versions)
# ---------------------------------------------------------------------------

def random_rational(rng: random.Random, max_numerator: int = 16,
                    denominators: Sequence[int] = (1, 2, 4)) -> Fraction:
    num = rng.randint(-max_numerator, max_numerator)
    den = denominators[rng.randint(0, len(denominators) - 1)]
    return Fraction(num, den)


def random_point(rng: random.Random, dim: int, mode: str = EXACT,
                 norm_kind: str = EUCLIDEAN, low: int = -8, high: int = 8,
                 max_denominator: int = 1024) -> Point:
    """Coordinates n/q with q = max_denominator and n uniform in [low*q, high*q]."""
    coords = [Fraction(rng.randint(low * max_denominator, high * max_denominator),
                       max_denominator) for _ in range(dim)]
    return point(coords, mode, norm_kind)


def random_linear(rng: random.Random, dim_in: int, dim_out: int,
                  max_numerator: int = 9,
                  denominators: Sequence[int] = (1, 2, 4)) -> Linear:
    rows = tuple(tuple(random_rational(rng, max_numerator, denominators)
                       for _ in range(dim_in)) for _ in range(dim_out))
    return Linear(rows)


def random_cubic(rng: random.Random, dim_in: int, dim_out: int,
                 max_numerator: int = 9,
                 denominators: Sequence[int] = (1, 2, 4)) -> CubicHomogeneous:
    monomials = [(i, j, k) for i in range(dim_in) for j in range(i, dim_in)
                 for k in range(j, dim_in)]
    tables = []
    for _ in range(dim_out):
        rows = tuple((mono, random_rational(rng, max_numerator, denominators))
                     for mono in monomials)
        tables.append(rows)
    return CubicHomogeneous(tuple(tables), dims=(dim_in, dim_out))
