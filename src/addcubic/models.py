"""Points, norms, function models and control functions.

The domain and codomain are finite-dimensional real spaces R^d with either
the Euclidean or the max norm.  A function model is a sum of atoms:

* ``Linear``            -- f(x) = M x, exactly additive;
* ``CubicHomogeneous``  -- per-output homogeneous degree-3 polynomials,
                           satisfying f(2x) = 8 f(x) and f(-x) = -f(x);
* ``PowerNoise``        -- deterministic perturbation, ||f(x)|| <= eps ||x||^p;
* ``BoundedNoise``      -- power noise of exponent 0, ||f(x)|| <= eps;
* ``Even``              -- quadratic forms, a deliberate non-solution used in
                           negative tests.

Points hold exact rationals; in float mode :func:`point` and
:func:`random_point` round each input once to a double and keep the
double's exact value.  All coefficients are exact rationals too, and
evaluation is one integer kernel: a model folds its polynomial atoms into
one integer table, reads it at integer numerators over one denominator and
adds the noise atoms' numerators.  A model never sees a mode.  The direct
method sums the table once per point (:meth:`FuncModel.orbit`), and
residual tables expand a noise-free model's table in (a, b) at the
arguments (a u + b v) / den of each pair (:meth:`FuncModel.moments`).  Every
value is immutable and evaluation is pure, so it is thread-safe.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial, reduce
from itertools import compress
from operator import mul, truediv
from typing import Callable, Sequence, Union

from . import noise as noise_mod
from .scalars import (EXACT, FLOAT, MODES, add_ratios, integer_ratio,
                      over_lcm, parse_rational)

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

class Point(_Value):
    """An element of R^d: exact rational coordinates (ints or
    ``Fraction``s) plus the active norm kind."""

    _fields = ("coords", "norm_kind")

    def __init__(self, coords: tuple[Fraction, ...], norm_kind: str = EUCLIDEAN):
        self.__dict__.update(coords=coords, norm_kind=norm_kind)
        self.__post_init__()

    def __post_init__(self):
        """Validation, a method of its own so that a construction can be
        counted by wrapping it (the benchmark tracer does)."""
        if len(self.coords) < 1:
            raise DimensionMismatchError("points need at least one coordinate")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.norm_kind!r}")

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
        f = parse_rational(factor)
        return Point(tuple(f * c for c in self.coords), self.norm_kind)

    def __rmul__(self, factor) -> "Point":
        return self.scale(factor)


def point(values: Sequence, mode: str = EXACT, norm_kind: str = EUCLIDEAN) -> Point:
    """Parse a point (:func:`parse_rational` per value); float mode rounds
    each value once to a double and keeps that double's exact value."""
    coords = [parse_rational(v) for v in values]
    if mode == FLOAT:
        coords = [Fraction(float(c)) for c in coords]
    elif mode != EXACT:
        raise ValueError(f"unknown scalar mode {mode!r}; expected one of {MODES}")
    return Point(tuple(coords), norm_kind)


def norm(p: Point) -> float:
    """Norm of a point under its norm kind, computed as a float.

    Exactness-sensitive checks compare coordinates directly (``is_zero``);
    the norm is a diagnostic metric and float precision is sufficient.
    """
    return coords_norm(p.coords, p.norm_kind)


def coords_norm(coords: Sequence, norm_kind: str) -> float:
    """:func:`norm` of bare coordinates, each rounded to a float first.

    Raises ``OverflowError`` when the norm is beyond the float range.
    """
    if norm_kind == MAX:
        return max(abs(float(c)) for c in coords)
    if len(coords) == 1:
        return abs(float(coords[0]))
    return _euclidean([float(c) for c in coords])


def _euclidean(floats: list[float]) -> float:
    """The Euclidean norm of floats: sqrt of the exactly summed squares."""
    try:
        squares = math.fsum(map(mul, floats, floats))
    except OverflowError:  # a partial sum of the squares overflows
        squares = math.inf
    if 2.0 ** -510 <= squares < math.inf:
        return math.sqrt(squares)
    # The squares overflow, or may have lost bits below 2^-1022; hypot
    # scales first.
    total = math.hypot(*floats)
    if total == math.inf:
        raise OverflowError("norm is beyond the float range")
    return total


def max_ratio_norm(columns: Sequence[Sequence[int]], dens: Sequence[int],
                   norm_kind: str) -> tuple[float, int]:
    """(largest norm, nonzero count) over the vectors p with coordinates
    columns[j][p] / dens[p], dens positive: each norm is
    :func:`coords_norm` of those coordinates, bit for bit, as each
    n / den rounds as ``float(Fraction(n, den))`` does.

    Rounding is monotone and symmetric, so one coordinate or the max norm
    divides the largest |n| alone, and a Euclidean norm is the square
    root of the largest sum of squares while every nonzero vector's sum
    is in the range where :func:`coords_norm` takes that root; otherwise
    each vector is normed alone."""
    if norm_kind == MAX or len(columns) == 1:
        largest = list(map(max, *[map(abs, column) for column in columns])
                       if len(columns) > 1 else map(abs, columns[0]))
        return (max(map(truediv, largest, dens), default=0.0),
                len(largest) - largest.count(0))
    nonzero = list(map(any, zip(*columns)))
    floats = [list(map(truediv, column, dens)) for column in columns]
    try:
        squares = list(compress(map(math.fsum, zip(*[
            map(mul, column, column) for column in floats])), nonzero))
    except OverflowError:  # a partial sum of the squares overflows
        squares = [math.inf]
    if 2.0 ** -510 <= min(squares, default=1.0) \
            and max(squares, default=0.0) < math.inf:
        largest = math.sqrt(max(squares, default=0.0))
    else:
        largest = max(map(_euclidean, compress(map(list, zip(*floats)),
                                               nonzero)), default=0.0)
    return largest, sum(nonzero)


# ---------------------------------------------------------------------------
# Model atoms.  A model reads its polynomial atoms from its folded table; a
# polynomial atom's ``evaluate(coords)`` is the one-atom model's exact
# value.  Noise atoms take ``(coords, dim_out, den=1)``, integers over den.
# ---------------------------------------------------------------------------

def _rational_rows(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def _evaluate_alone(atom, coords):
    """The atom at ``coords``, read through a one-atom fold."""
    return FuncModel(atom.dim_in, atom.dim_out, (atom,)).evaluate_coords(coords)


class Linear(_Value):
    """f(x) = M x for an m-by-d rational matrix M; exactly additive."""

    _fields = ("matrix",)

    def __init__(self, matrix: tuple[tuple[Fraction, ...], ...]):
        self.__dict__["matrix"] = _rational_rows(matrix)
        widths = {len(row) for row in self.matrix}
        if len(widths) != 1:
            raise DimensionMismatchError("ragged matrix")
        self.__dict__.update(dim_in=widths.pop(), dim_out=len(self.matrix))

    evaluate = _evaluate_alone


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
        self.__dict__.update(terms=tuple(normalized), dims=dims, dim_in=d,
                             dim_out=m)

    evaluate = _evaluate_alone


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
        self.__dict__.update(dim_in=d, dim_out=len(self.matrices))

    evaluate = _evaluate_alone


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
                             _noise=(seed, amplitude.as_integer_ratio(),
                                     exponent.as_integer_ratio()))

    def evaluate(self, coords, dim_out: int, den: int = 1):
        seed, amplitude, exponent = self._noise
        return noise_mod.sample(seed, coords, amplitude, exponent, dim_out, den)


class BoundedNoise(PowerNoise):
    """Power noise of exponent 0, ||f(x)|| <= amplitude, shown and compared
    by (seed, amplitude) alone."""

    _fields = ("seed", "amplitude")

    def __init__(self, seed: int, amplitude: Fraction):
        super().__init__(seed, amplitude, 0)

    # Its own attribute: wrapping one class's evaluate leaves the other's.
    evaluate = PowerNoise.evaluate


Atom = Union[Linear, CubicHomogeneous, Even, PowerNoise]


def _fold(atoms, dim_in: int, dim_out: int):
    """Per output, the polynomial atoms' terms (c, (i, j, k)) of degree 1,
    2 and 3, c an integer over one L: at x = u / D a term adds
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
    table = [([], [], []) for _ in range(dim_out)]
    degrees = set()
    for (j, indices, _), c in zip(terms, ints):
        if c:  # pad with D up to degree t, then with 1
            degrees.add(len(indices))
            table[j][len(indices) - 1].append((c, (
                *indices, *(dim_in,) * (top - len(indices)),
                *(dim_in + 1,) * (3 - top))))
    return (tuple(tuple(map(tuple, parts)) for parts in table), den, top,
            tuple(sorted(degrees)))


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
        table, den, top, degrees = _fold(atoms, dim_in, dim_out)
        noise = tuple(a._noise for a in atoms if isinstance(a, PowerNoise))
        # ``moment_keys`` are the (r, q) of :meth:`moments`.
        self.__dict__.update(
            dim_in=dim_in, dim_out=dim_out, atoms=atoms,
            _folded=(table, den, top), _noise=noise,
            moment_keys=tuple((r, q) for r in degrees for q in range(r + 1)))

    def evaluate_coords(self, coords, *, den: int | None = None):
        """Atom-sum evaluation on raw coordinates, :meth:`orbit` at k = 0:
        integer numerators over ``den`` give (numerators, denominator),
        unreduced; otherwise each output is one exact ``Fraction``."""
        u, d = (coords, den) if den is not None else integer_ratio(coords)
        table_den, parts, read = self.orbit(u, d, odd=False)
        rest_den, columns, _ = read((0,)) if self._noise else (
            table_den, [[0]] * self.dim_out, None)
        value = reduce(add_ratios, [(c, table_den) for _, c in parts],
                       ([c for c, in columns], rest_den))
        return value if den else [Fraction(n, value[1]) for n in value[0]]

    def orbit(self, u, den: int, odd: bool = True):
        """f on the dyadic orbit y = x * 2^k of x = u / den, as (D, parts,
        read): (r, numerators over D) of the table's degree-r part at x,
        2^(k r) times that at y, and ``read(ks)``, the noise atoms g at each
        y as (D', per output a column over D', g(x) with ``odd`` if 0 is in
        ks, or None), with ``odd`` (g(y) - g(-y)) / 2."""
        if len(u) != self.dim_in:
            raise DimensionMismatchError(
                f"got {len(u)} coordinates, model domain is {self.dim_in}")
        table, table_den, top = self._folded
        v = (*u, den, 1)
        sums = [[sum([c * v[i] * v[j] * v[k] for c, (i, j, k) in terms])
                 for terms in parts] for parts in table]
        return table_den * den ** top, tuple(
            (r, column) for r, column in enumerate(zip(*sums), 1)
            if any(column)), partial(noise_mod.orbit, self._noise, u, den,
                                     self.dim_out, odd)

    def moments(self, pairs) -> tuple[list[list[tuple[int, ...]]], list[int]]:
        """The folded table at (a u + b v) / den for each (u, v, den) of
        ``pairs``, at least one, expanded in (a, b).

        Returns (columns, denominators): columns[j][n] holds, pair by pair,
        the integer A_{r,q} of output j at ``moment_keys[n]`` = (r, q), so
        that for every integer a and b the table's part of output j at a
        pair is sum a^q b^(r-q) A_{r,q} over that pair's denominator.  Each
        term is the product of its three slots, a u_i + b v_i per
        coordinate and den or 1 per pad.  The noise atoms are not in the
        table, so residual tables read a model with noise whole, argument
        by argument.
        """
        d = self.dim_in
        table, table_den, top = self._folded
        # A_{r,q} at index r (r + 1) / 2 + q, times den^(top - r)
        slots = [(r * (r + 1) // 2 + q, top - r) for r, q in self.moment_keys]
        values, dens = [], []
        for u, v, den in pairs:
            if len(u) != d or len(v) != d:
                raise DimensionMismatchError(
                    f"got {len(u)} and {len(v)} coordinates, model domain "
                    f"is {d}")
            for linear, quadratic, cubic in table:
                b1 = a1 = 0  # per degree, the coefficient of each a^q b^(r-q)
                for c, (i, _, _) in linear:
                    b1 += c * v[i]
                    a1 += c * u[i]
                bb = ab = aa = 0
                for c, (i, j, _) in quadratic:
                    ui, vi = c * u[i], c * v[i]
                    bb += vi * v[j]
                    ab += ui * v[j] + vi * u[j]
                    aa += ui * u[j]
                bbb = abb = aab = aaa = 0
                for c, (i, j, k) in cubic:
                    ui, vi = c * u[i], c * v[i]
                    uu, vv = ui * u[j], vi * v[j]
                    uv = ui * v[j] + vi * u[j]
                    uk, vk = u[k], v[k]
                    bbb += vv * vk
                    abb += vv * uk + uv * vk
                    aab += uv * uk + uu * vk
                    aaa += uu * uk
                acc = (0, b1, a1, bb, ab, aa, bbb, abb, aab, aaa)
                values.append([acc[n] * den ** t for n, t in slots])
            dens.append(table_den * den ** top)
        m = self.dim_out
        return [list(zip(*values[j::m])) for j in range(m)], dens

    def __call__(self, x: Point) -> Point:
        if x.dim != self.dim_in:
            raise DimensionMismatchError(
                f"point has dimension {x.dim}, model domain is {self.dim_in}")
        return Point(tuple(self.evaluate_coords(x.coords)), x.norm_kind)

    @property
    def has_noise(self) -> bool:
        return bool(self._noise)


def evaluate(f: Callable[[Point], Point], coords, norm_kind: str, den: int):
    """f at integer numerators ``coords`` over ``den``, as (integer
    numerators, denominator): the one place that knows how to evaluate a
    function.  A :class:`FuncModel` sums its atoms on the raw coordinates;
    any other callable gets a :class:`Point`.
    """
    if isinstance(f, FuncModel):
        return f.evaluate_coords(coords, den=den)
    return integer_ratio(f(Point(tuple(Fraction(c, den) for c in coords),
                                 norm_kind)).coords)


def orbit(f: Callable[[Point], Point], u, den: int, norm_kind: str,
          odd: bool = True):
    """:meth:`FuncModel.orbit`, or for any other callable no parts and a
    ``read`` that calls it at each y, and with ``odd`` at -y too, over the
    values' least common denominator."""
    if isinstance(f, FuncModel):
        return f.orbit(u, den, odd)

    def read(ks):
        ys = [([c << max(k, 0) for c in u], den << max(-k, 0)) for k in ks]
        values = [evaluate(f, y, norm_kind, d) for y, d in ys]
        at_x = [values[ks.index(0)]] if odd and 0 in ks else []  # f(x)
        if odd:  # (f(y) - f(-y)) / 2
            values = [(nums, d << 1) for nums, d in [add_ratios(
                value, evaluate(f, [-c for c in y], norm_kind, d), -1)
                for value, (y, d) in zip(values, ys)]]
        out_den, rows = over_lcm(values + at_x)  # f(x), last
        return out_den, list(zip(*rows[:len(ks)])), rows[-1] if at_x else None
    return 1, (), read


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

class ControlFunction(_Value):
    """phi(x, y) = theta * sum ||x||^r ||y||^s over ``monomials``, pairs
    (r, s) that share one diagonal degree r + s, so that phi(tx, tx) =
    t^degree phi(x, x)."""

    _fields = ("theta", "monomials")

    def __init__(self, theta: Fraction, monomials):
        theta = Fraction(theta)
        monomials = tuple((Fraction(r), Fraction(s)) for r, s in monomials)
        if theta < 0 or any(r < 0 or s < 0 for r, s in monomials):
            raise ValueError("theta and the exponents must be nonnegative")
        degrees = {r + s for r, s in monomials}
        if len(degrees) != 1:
            raise ValueError("control-function monomials need one diagonal "
                             f"degree, got {sorted(degrees)}")
        self.__dict__.update(theta=theta, monomials=monomials,
                             degree=degrees.pop(),
                             _floats=(float(theta), tuple(
                                 (float(r), float(s)) for r, s in monomials)))


def Constant(value: Fraction) -> ControlFunction:
    """phi(x, y) = c."""
    return ControlFunction(value, ((0, 0),))


def SumOfPowers(theta: Fraction, power: Fraction) -> ControlFunction:
    """phi(x, y) = theta * (||x||^p + ||y||^p)."""
    return ControlFunction(theta, ((power, 0), (0, power)))


def ProductOfPowers(theta: Fraction, r: Fraction,
                    s: Fraction) -> ControlFunction:
    """phi(x, y) = theta * ||x||^r * ||y||^s."""
    return ControlFunction(theta, ((r, s),))


def phi_value(phi: ControlFunction, x: Point, y: Point,
              scale: float = 1.0) -> float:
    """phi(x, y) as a float, times ``scale``, a power of two; x and y are
    points, or their norms.  Each monomial is scale theta * x^r * y^s,
    left to right, added in order; a degree-0 phi reads no norm."""
    x, y = [v if isinstance(v, float) else norm(v) if phi.degree else 1.0
            for v in (x, y)]
    theta, powers = phi._floats
    value = 0.0
    for r, s in powers:
        value += scale * theta * x ** r * y ** s
    return value


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
    """Coordinates n/q with q = max_denominator and n uniform in [low*q,
    high*q], read by :func:`point` in ``mode``."""
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
