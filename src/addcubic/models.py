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
kernel: a model folds its polynomial atoms into one integer table, reads
it at integer numerators over one denominator and adds the noise atoms'
numerators.  The odd part (f(y) - f(-y)) / 2 that the direct method reads
comes from the same pass.  Callers holding integers pass ``den`` and get
integers back; others get one ``Fraction`` per output coordinate.  Every
value is immutable and evaluation is pure, so it is thread-safe.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property, reduce
from typing import Callable, Sequence, Union

from . import noise as noise_mod
from .scalars import (EXACT, FLOAT, ModeMismatchError, Number, add_ratios,
                      coerce, integer_ratio, require_mode)

EUCLIDEAN = "euclidean"
MAX = "max"
NORM_KINDS = (EUCLIDEAN, MAX)


class DimensionMismatchError(ValueError):
    """Raised when points or models of incompatible dimensions meet."""


class _Value:
    """Immutable value compared, hashed and shown by its ``_fields``;
    ``__init__`` writes ``__dict__``, and a later assignment raises."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = zip(self._fields, self._values())
        return (f"{type(self).__name__}("
                f"{', '.join(f'{name}={value!r}' for name, value in fields)})")


# ---------------------------------------------------------------------------
# Points and norms
# ---------------------------------------------------------------------------

def _coord_mode(coords) -> str:
    modes = {FLOAT if isinstance(c, float) else EXACT for c in coords}
    if len(modes) != 1:
        raise ModeMismatchError("point mixes exact and float coordinates")
    return modes.pop()


class Point(_Value):
    """An element of R^d: ordered coordinates plus the active norm kind.

    The scalar mode is derived from the coordinates and is not compared.
    """

    _fields = ("coords", "norm_kind")

    def __init__(self, coords: tuple[Number, ...], norm_kind: str = EUCLIDEAN):
        self.__dict__.update(coords=coords, norm_kind=norm_kind)
        self.__post_init__()

    def __post_init__(self):
        """Validation, a method of its own so that a construction can be
        counted by wrapping it (the benchmark tracer does)."""
        if len(self.coords) < 1:
            raise DimensionMismatchError("points need at least one coordinate")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.norm_kind!r}")
        self.__dict__["mode"] = _coord_mode(self.coords)

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
# Model atoms.  A polynomial atom's ``evaluate(coords)`` returns floats; a
# model reads exact values from its folded table.  Noise atoms take
# ``(coords, mode, dim_out, den=1)``, in exact mode integers over ``den``.
# ---------------------------------------------------------------------------

def _rational_rows(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


class Linear(_Value):
    """f(x) = M x for an m-by-d rational matrix M; exactly additive."""

    _fields = ("matrix",)

    def __init__(self, matrix: tuple[tuple[Fraction, ...], ...]):
        self.__dict__["matrix"] = _rational_rows(matrix)
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
    def _floats(self):
        return tuple(tuple(map(float, row)) for row in self.matrix)

    def evaluate(self, coords):
        out = []
        for row in self._floats:
            acc = 0.0
            for m, c in zip(row, coords):
                if m:
                    acc += m * c
            out.append(acc)
        return out


Monomial = tuple[int, int, int]  # sorted coordinate indices i <= j <= k


class CubicHomogeneous(_Value):
    """Per-output homogeneous cubic polynomials: f_j(x) = sum c * x_i x_j x_k.

    Each output coordinate carries a tuple of (monomial, coefficient) rows
    with sorted index triples, i.e. the diagonal of a symmetric trilinear
    form.  Any such map satisfies f(2x) = 8 f(x) and f(-x) = -f(x) exactly.
    ``dims`` is (d, m); d is not implied by sparse terms.
    """

    _fields = ("terms", "dims")

    def __init__(self,
                 terms: tuple[tuple[tuple[Monomial, Fraction], ...], ...],
                 dims: tuple[int, int]):
        d, m = dims
        normalized = []
        for out_terms in terms:
            rows = []
            for mono, coeff in out_terms:
                i, j, k = sorted(mono)
                if not 0 <= i <= j <= k < d:
                    raise DimensionMismatchError(f"monomial {mono} out of range")
                rows.append(((i, j, k), Fraction(coeff)))
            normalized.append(tuple(rows))
        if len(normalized) != m:
            raise DimensionMismatchError("one term table per output coordinate")
        self.__dict__.update(terms=tuple(normalized), dims=dims)

    @property
    def dim_in(self) -> int:
        return self.dims[0]

    @property
    def dim_out(self) -> int:
        return self.dims[1]

    @cached_property
    def _floats(self):
        return tuple(tuple((mono, float(c)) for mono, c in rows)
                     for rows in self.terms)

    def evaluate(self, coords):
        out = []
        for rows in self._floats:
            acc = 0.0
            for (i, j, k), c in rows:
                acc += c * (coords[i] * coords[j] * coords[k])
            out.append(acc)
        return out


class Even(_Value):
    """Quadratic forms f_j(x) = x^T Q_j x; even, hence never a solution."""

    _fields = ("matrices",)

    def __init__(self, matrices: tuple[tuple[tuple[Fraction, ...], ...], ...]):
        self.__dict__["matrices"] = tuple(_rational_rows(q) for q in matrices)
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
    def _floats(self):
        return tuple(tuple(tuple(map(float, row)) for row in q)
                     for q in self.matrices)

    def evaluate(self, coords):
        out = []
        for q in self._floats:
            acc = 0.0
            for row, ci in zip(q, coords):
                for v, cj in zip(row, coords):
                    if v:
                        acc += v * ci * cj
            out.append(acc)
        return out


class BoundedNoise(_Value):
    """Deterministic seeded perturbation with ||f(x)|| <= amplitude."""

    _fields = ("seed", "amplitude")

    def __init__(self, seed: int, amplitude: Fraction):
        amplitude = Fraction(amplitude)
        if amplitude < 0:
            raise ValueError("noise amplitude must be nonnegative")
        self.__dict__.update(seed=seed, amplitude=amplitude,
                             _amplitude=amplitude.as_integer_ratio())

    def evaluate(self, coords, mode: str, dim_out: int, den: int = 1,
                 odd: bool = False):
        return noise_mod.sample(self.seed, coords, self._amplitude, (0, 1),
                                dim_out, mode, den, odd)


class PowerNoise(_Value):
    """Deterministic seeded perturbation with ||f(x)|| <= amplitude * ||x||^p."""

    _fields = ("seed", "amplitude", "exponent")

    def __init__(self, seed: int, amplitude: Fraction, exponent: Fraction):
        amplitude, exponent = Fraction(amplitude), Fraction(exponent)
        if amplitude < 0:
            raise ValueError("noise amplitude must be nonnegative")
        if exponent < 0:
            raise ValueError("noise exponent must be nonnegative")
        self.__dict__.update(seed=seed, amplitude=amplitude, exponent=exponent,
                             _amplitude=amplitude.as_integer_ratio(),
                             _exponent=exponent.as_integer_ratio())

    def evaluate(self, coords, mode: str, dim_out: int, den: int = 1,
                 odd: bool = False):
        return noise_mod.sample(self.seed, coords, self._amplitude,
                                self._exponent, dim_out, mode, den, odd)


Atom = Union[Linear, CubicHomogeneous, Even, BoundedNoise, PowerNoise]
NOISE_ATOMS = (BoundedNoise, PowerNoise)


def _add_floats(a, b):
    return [t + v for t, v in zip(a, b)]


def _float_values(atom, coords, dim_out: int, odd: bool):
    """atom(y), or with ``odd`` (atom(y), atom(-y)), in float mode.  An odd
    atom's float sum starts at 0.0, so 0.0 - v is its value at -y bit for
    bit, zeros included."""
    if isinstance(atom, NOISE_ATOMS):
        return atom.evaluate(coords, FLOAT, dim_out, odd=odd)
    value = atom.evaluate(coords)
    return (value, value if isinstance(atom, Even)
            else [0.0 - v for v in value]) if odd else value


def _fold(atoms, dim_in: int, dim_out: int):
    """Per output, the polynomial atoms' (odd-degree, even-degree) terms
    (c, (i, j, k)), c an integer over one L: at x = u / D a term adds
    c * v_i v_j v_k / (L D^t) with v = (*u, D, 1), t the top degree."""
    terms = []  # (output, input indices, coefficient)
    for atom in atoms:
        if isinstance(atom, Linear):
            terms += [(j, (i,), m) for j, row in enumerate(atom.matrix)
                      for i, m in enumerate(row)]
        elif isinstance(atom, CubicHomogeneous):
            terms += [(j, mono, c) for j, rows in enumerate(atom.terms)
                      for mono, c in rows]
        elif isinstance(atom, Even):
            terms += [(j, (i, k), v) for j, q in enumerate(atom.matrices)
                      for i, row in enumerate(q) for k, v in enumerate(row)]
    top = max((len(indices) for _, indices, _ in terms), default=1)
    ints, den = integer_ratio([c for _, _, c in terms])
    table = [([], []) for _ in range(dim_out)]
    for (j, indices, _), c in zip(terms, ints):
        if c:  # pad with D up to degree t, then with 1
            table[j][len(indices) % 2 == 0].append((c, (
                *indices, *(dim_in,) * (top - len(indices)),
                *(dim_in + 1,) * (3 - top))))
    return tuple(tuple(map(tuple, parts)) for parts in table), den, top


# ---------------------------------------------------------------------------
# Function models
# ---------------------------------------------------------------------------

class FuncModel(_Value):
    """A function R^d -> R^m given as a sum of atoms; callable on points."""

    _fields = ("dim_in", "dim_out", "atoms")

    def __init__(self, dim_in: int, dim_out: int, atoms: tuple[Atom, ...]):
        atoms = tuple(atoms)
        for atom in atoms:
            d = getattr(atom, "dim_in", dim_in)
            m = getattr(atom, "dim_out", dim_out)
            if (d, m) != (dim_in, dim_out):
                raise DimensionMismatchError(
                    f"atom {type(atom).__name__} is {d}->{m}, "
                    f"model is {dim_in}->{dim_out}")
        self.__dict__.update(
            dim_in=dim_in, dim_out=dim_out, atoms=atoms,
            _folded=_fold(atoms, dim_in, dim_out),
            _noise=tuple(a for a in atoms if isinstance(a, NOISE_ATOMS)))

    def evaluate_coords(self, coords, mode: str, *, den: int | None = None,
                        odd: bool = False):
        """Atom-sum evaluation on raw coordinates; see :func:`evaluate`.

        Exact mode sums the folded table and the noise atoms' integer
        numerators.  With ``den`` the coordinates are integer numerators
        over ``den`` and the result is (integer numerators, denominator),
        unreduced; without it they are rationals and one normalized
        ``Fraction`` is returned per output coordinate.  With ``odd`` it is
        (f(y), (f(y) - f(-y)) / 2), in float mode bit for bit as two calls.
        """
        if len(coords) != self.dim_in:
            raise DimensionMismatchError(
                f"got {len(coords)} coordinates, model domain is {self.dim_in}")
        if mode == EXACT:
            values = self._exact(*(integer_ratio(coords) if den is None
                                   else (coords, den)), odd)
            if den is None:
                values = [[Fraction(n, d) for n in nums] for nums, d in values]
            return tuple(values) if odd else values[0]
        zero = [0.0] * self.dim_out
        values = [_float_values(atom, coords, self.dim_out, odd)
                  for atom in self.atoms] or [(zero, zero) if odd else zero]
        if not odd:  # summed in atom order
            return reduce(_add_floats, values)
        total, minus = (reduce(_add_floats, column) for column in zip(*values))
        return total, [0.5 * (p - q) for p, q in zip(total, minus)]

    def _exact(self, u, den: int, odd: bool) -> list:
        """[f(y)], or [f(y), odd part], at y = u / den as integer ratios."""
        table, table_den, top = self._folded
        v = (*u, den, 1)
        f_nums, odd_nums = [], []
        for odd_terms, even_terms in table:
            acc = 0
            for c, (i, j, k) in odd_terms:
                acc += c * v[i] * v[j] * v[k]
            odd_nums.append(acc)
            for c, (i, j, k) in even_terms:
                acc += c * v[i] * v[j] * v[k]
            f_nums.append(acc)
        out_den = table_den * den ** top
        total, odd_part = (f_nums, out_den), (odd_nums, out_den)
        for atom in self._noise:
            value = atom.evaluate(u, EXACT, self.dim_out, den, odd)
            if odd:
                value, value_odd = value
                odd_part = add_ratios(odd_part, value_odd)
            total = add_ratios(total, value)
        return [total, odd_part] if odd else [total]

    def __call__(self, x: Point) -> Point:
        if x.dim != self.dim_in:
            raise DimensionMismatchError(
                f"point has dimension {x.dim}, model domain is {self.dim_in}")
        return Point(tuple(self.evaluate_coords(x.coords, x.mode)), x.norm_kind)

    @property
    def has_noise(self) -> bool:
        return bool(self._noise)

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
             den: int | None = None, odd: bool = False):
    """f at ``coords``: the one place that knows how to evaluate a function.

    A :class:`FuncModel` sums its atoms on the raw coordinates; any other
    callable gets a :class:`Point`.  With ``den`` the coordinates are
    integer numerators over ``den`` and the result is (integer numerators,
    denominator); without it the result is one value per output coordinate.
    With ``odd`` it is the pair f(y), (f(y) - f(-y)) / 2 at y = ``coords``;
    a callable that is not a model is called at y and at -y.
    """
    if isinstance(f, FuncModel):
        return f.evaluate_coords(coords, mode, den=den, odd=odd)
    if odd:
        plus, minus = (evaluate(f, c, mode, norm_kind, den)
                       for c in (coords, tuple(-c for c in coords)))
        if mode == EXACT and den is not None:
            nums, out_den = add_ratios(plus, minus, -1)
            return plus, (nums, out_den << 1)
        half = Fraction(1, 2) if mode == EXACT else 0.5
        return plus, [half * (p - q) for p, q in zip(plus, minus)]
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

class Constant(_Value):
    """phi(x, y) = c."""

    _fields = ("value",)

    def __init__(self, value: Fraction):
        self.__dict__["value"] = Fraction(value)
        if self.value < 0:
            raise ValueError("control functions are nonnegative")


class SumOfPowers(_Value):
    """phi(x, y) = theta * (||x||^p + ||y||^p)."""

    _fields = ("theta", "power")

    def __init__(self, theta: Fraction, power: Fraction):
        self.__dict__.update(theta=Fraction(theta), power=Fraction(power))
        if self.theta < 0 or self.power < 0:
            raise ValueError("theta and p must be nonnegative")


class ProductOfPowers(_Value):
    """phi(x, y) = theta * ||x||^r * ||y||^s."""

    _fields = ("theta", "r", "s")

    def __init__(self, theta: Fraction, r: Fraction, s: Fraction):
        self.__dict__.update(theta=Fraction(theta), r=Fraction(r),
                             s=Fraction(s))
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
