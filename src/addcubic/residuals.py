"""Residuals of the mixed additive-cubic rule and its derivation chain.

The central object is the difference operator

    D(f)(x, y) = 3 f(x+3y) - f(3x+y) - 12[f(x+y) + f(x-y)]
                 + 16[f(x) + f(y)] - 12 f(2y) + 4 f(2x),

which vanishes identically exactly on the solutions (sums of additive and
cubic maps).  Two companion characterizations single out the pure families:

    additive rule:  3 f(x+3y) - f(3x+y) = 12[f(x+y) + f(x-y)] - 24 f(x) + 8 f(y)
    cubic rule:     3 f(x+3y) - f(3x+y) = 12[f(x+y) + f(x-y)] - 48 f(x) + 80 f(y)

All residuals follow the convention LHS - RHS with the rules written as
above, so sign errors are detectable.  The derivation chain behind the
additive rule is stored as data (coefficient/argument tables keyed by
catalogue labels "2.5" ... "2.27"), making it auditable row by row and
replayable as exact identities.

Every residual is a table of terms c * f(a x + b y).  For a polynomial
model, f(a u + b v) = sum a^q b^(r-q) A_{r,q}(u, v) over degrees r <= 3,
so a table's sum is sum M_{r,q} A_{r,q} with the table's integer moments
M_{r,q} = sum c a^q b^(r-q).  :class:`TermTables` sums only the tables
asked for, over a list of pairs (x, y) at once: it reads a model's
folded table once per pair, as its expansion A_{r,q}
(:meth:`~addcubic.models.FuncModel.moments`), and multiplies the
expansions by the integer matrix of those tables' moments; a model
without noise atoms is never evaluated at a point, and one with no table
to sum is not expanded.  A model with noise atoms, or a plain callable,
is evaluated whole once per pair at each distinct argument of the
tables: the three rules share 8 arguments, and with the 21 chain
identities the union is 19.
Every sum is exact: the pair is numerators over one denominator, and each
sum an integer combination over one denominator, so no float
cancellation can pass for a zero.  A vector a caller asks for holds
``Fraction``s built from those sums; a float report rounds each once when
it prints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, mul
from typing import Callable, NamedTuple, Sequence

from .models import DimensionMismatchError, FuncModel, Point, evaluate, norm
from .scalars import integer_ratio, over_lcm

# One term of a rule: coefficient * f(a*x + b*y).
Term = tuple[Fraction, int, int]


def _terms(rows) -> tuple[Term, ...]:
    return tuple((Fraction(c), a, b) for c, a, b in rows)


# Difference operator, as coefficient/argument rows (c, a, b).
MIXED_RULE: tuple[Term, ...] = _terms((
    (3, 1, 3),    # +3 f(x + 3y)
    (-1, 3, 1),   # -  f(3x + y)
    (-12, 1, 1),  # -12 f(x + y)
    (-12, 1, -1), # -12 f(x - y)
    (16, 1, 0),   # +16 f(x)
    (16, 0, 1),   # +16 f(y)
    (-12, 0, 2),  # -12 f(2y)
    (4, 2, 0),    # + 4 f(2x)
))

ADDITIVE_RULE: tuple[Term, ...] = _terms((
    (3, 1, 3), (-1, 3, 1), (-12, 1, 1), (-12, 1, -1), (24, 1, 0), (-8, 0, 1),
))

CUBIC_RULE: tuple[Term, ...] = _terms((
    (3, 1, 3), (-1, 3, 1), (-12, 1, 1), (-12, 1, -1), (48, 1, 0), (-80, 0, 1),
))

# f(4x) - 10 f(2x) + 16 f(x); for odd f with ||D(f)(x,x)|| <= phi(x,x) the
# norm of this residual is at most phi(x,x)/2.
DOUBLE_ARG_RULE: tuple[Term, ...] = _terms(((1, 4, 0), (-10, 2, 0), (16, 1, 0)))

# Sum of absolute coefficients of the difference operator; the envelope
# certification of perturbed models rests on this constant.
ABS_COEFFICIENT_SUM = int(sum(abs(c) for c, _, _ in MIXED_RULE))


class ResidualVector(NamedTuple):
    """A codomain vector with its norm; exactness checks use the coordinates."""

    value: Point

    @property
    def magnitude(self) -> float:
        return norm(self.value)

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero


def _pair(x: Point, y: Point) -> tuple[list[int], list[int], int]:
    """(u, v, L) with x = u / L and y = v / L, L their least common
    denominator."""
    if x.dim != y.dim:
        raise DimensionMismatchError(f"x has dimension {x.dim}, y has {y.dim}")
    ints, den = integer_ratio(x.coords + y.coords)
    return ints[:x.dim], ints[x.dim:], den


def _combination(row, column, size: int) -> list[int]:
    """sum k * column[n] over the nonzero entries k = row[n], elementwise
    over ``size`` pairs."""
    total = None
    for n, k in enumerate(row):
        if k:
            term = map(mul, column[n], repeat(k))
            total = term if total is None else map(add, total, term)
    return [0] * size if total is None else list(total)


class TermTables:
    """Term tables sharing one list of distinct lattice arguments (a, b).

    Each table is a sum of c * f(a x + b y), with integer coefficients k
    over one denominator shared by all the tables.  :meth:`sums` sums only
    the tables it is asked for, over a list of pairs at once.  A
    noise-free :class:`FuncModel` enters through its expansion in (a, b)
    (:meth:`FuncModel.moments`): the tables' sums are then one integer
    matrix, the tables' moments M_{r,q} = sum k a^q b^(r-q), computed once
    per set of model degrees, times the expansion's columns.  A model
    with noise atoms, or a plain callable, is evaluated once per pair at
    each distinct argument and summed by integer dot products.  :meth:`live` names the tables that can sum to nonzero;
    :meth:`residuals` builds one ``Fraction`` per output coordinate.
    """

    def __init__(self, tables: Sequence[tuple[Term, ...]]):
        index: dict[tuple[int, int], int] = {}
        for terms in tables:
            for _, a, b in terms:
                index.setdefault((a, b), len(index))
        self.arguments: tuple[tuple[int, int], ...] = tuple(index)
        # Per table, the integer coefficient of f at each argument.
        nums, self._den = integer_ratio([c for terms in tables
                                         for c, _, _ in terms])
        numbers = iter(nums)
        rows = [[0] * len(index) for _ in tables]
        for row, terms in zip(rows, tables):
            for _, a, b in terms:
                row[index[a, b]] += next(numbers)
        self._rows = tuple(map(tuple, rows))
        self._moments: dict[tuple, tuple] = {}

    def _moment_rows(self, keys: tuple[tuple[int, int], ...]) -> tuple:
        """Each table's integer moments M_{r,q} at ``keys`` = ((r, q), ...),
        over the tables' one denominator."""
        rows = self._moments.get(keys)
        if rows is None:
            powers = list(zip(*[[a ** q * b ** (r - q) for r, q in keys]
                                for a, b in self.arguments]))
            rows = self._moments[keys] = tuple(
                tuple([sum(map(mul, row, column)) for column in powers])
                for row in self._rows)
        return rows

    def live(self, f) -> tuple[int, ...]:
        """Indexes of the tables that can sum to nonzero at some pair."""
        if isinstance(f, FuncModel) and not f.has_noise:
            return tuple(i for i, row in enumerate(
                self._moment_rows(f.moment_keys)) if any(row))
        return tuple(range(len(self._rows)))

    def sums(self, f: Callable[[Point], Point], indexes: Sequence[int] = None
             ) -> Callable[[Sequence[tuple[Point, Point]]],
                           tuple[list[list[list[int]]], list[int]]]:
        """The exact sums of the tables at ``indexes`` (default: all), as a
        function of a nonempty list of pairs (x, y): (sums, dens), where
        sums[t][j] lists, pair by pair, the integer numerator of output j
        of table ``indexes[t]``, over that pair's denominator in ``dens``,
        unreduced."""
        if indexes is None:
            indexes = range(len(self._rows))
        den = self._den
        if isinstance(f, FuncModel) and not f.has_noise:
            moments, rows = f.moments, self._moment_rows(f.moment_keys)
            matrix = [rows[i] for i in indexes]

            def at(pairs):
                columns, dens = moments([_pair(x, y) for x, y in pairs])
                sums = [[_combination(row, column, len(dens))
                         for column in columns] for row in matrix]
                return sums, [den * d for d in dens]
            return at

        rows, arguments = [self._rows[i] for i in indexes], self.arguments

        def at(pairs):
            sums, dens = [], []
            for x, y in pairs:
                u, v, pair_den = _pair(x, y)
                common, values = over_lcm([evaluate(
                    f, [a * ui + b * vi for ui, vi in zip(u, v)],
                    x.norm_kind, pair_den) for a, b in arguments])
                columns = list(zip(*values))
                sums.append([[sum(map(mul, row, column))
                              for column in columns] for row in rows])
                dens.append(common * den)
            # per table and output, the numerators pair by pair
            return [list(zip(*table)) for table in zip(*sums)], dens
        return at

    def residuals(self, f: Callable[[Point], Point], x: Point,
                  y: Point) -> list[ResidualVector]:
        """Every table's sum at (x, y), in table order."""
        sums, (den,) = self.sums(f)([(x, y)])
        return [ResidualVector(Point(tuple([Fraction(n, den)
                                            for n, in table]), x.norm_kind))
                for table in sums]


@lru_cache(maxsize=64)
def _compiled(tables: tuple[tuple[Term, ...], ...]) -> TermTables:
    """One shared :class:`TermTables` per distinct tuple of term tables."""
    return TermTables(tables)


def combine(f: Callable[[Point], Point], x: Point, y: Point,
            terms: tuple[Term, ...]) -> ResidualVector:
    """Evaluate sum of c * f(a x + b y) over the given terms."""
    return _compiled((terms,)).residuals(f, x, y)[0]


def mixed_residual(f, x: Point, y: Point) -> ResidualVector:
    """Residual of the mixed rule: D(f)(x, y).  Zero on exact solutions."""
    return combine(f, x, y, MIXED_RULE)


def additive_residual(f, x: Point, y: Point) -> ResidualVector:
    """Residual of the additive characterization; zero iff f is additive."""
    return combine(f, x, y, ADDITIVE_RULE)


def cubic_residual(f, x: Point, y: Point) -> ResidualVector:
    """Residual of the cubic characterization; zero on cubic maps."""
    return combine(f, x, y, CUBIC_RULE)


def double_arg_residual(f, x: Point) -> ResidualVector:
    """f(4x) - 10 f(2x) + 16 f(x), the diagonal collapse of the mixed rule."""
    return combine(f, x, x, DOUBLE_ARG_RULE)


# ---------------------------------------------------------------------------
# Derivation-chain catalogue
# ---------------------------------------------------------------------------

class ChainIdentity(NamedTuple):
    """One catalogued identity, stored as LHS and RHS term tables.

    The residual is the single expression LHS - RHS, evaluable at any
    (x, y).  ``lhs_printed``/``rhs_printed`` preserve the coefficients in
    their unreduced source form (e.g. "6/28"), so the serialized table can
    be audited against the derivation line by line.
    """

    label: str
    lhs: tuple[Term, ...]
    rhs: tuple[Term, ...]
    lhs_printed: tuple[tuple[str, int, int], ...]
    rhs_printed: tuple[tuple[str, int, int], ...]

    @property
    def moved_terms(self) -> tuple[Term, ...]:
        """LHS - RHS folded into one term table."""
        return self.lhs + tuple((-c, a, b) for c, a, b in self.rhs)


# Rows: (label, LHS terms, RHS terms); each term is (coefficient, a, b)
# for coefficient * f(a x + b y).  Coefficients are given as printed in the
# source derivation, including the unreduced 28ths of identity 2.19.
_CATALOGUE_ROWS = (
    ("2.5", ((24, 1, 0),), ((12, 1, 1), (12, 1, -1))),
    ("2.8", ((3, 1, 3), (-1, 3, 1)), ((8, 0, 1),)),
    ("2.9", ((1, 3, 0),), ((3, 1, 0),)),
    ("2.10", ((1, -1, 0),), ((-1, 1, 0),)),
    ("2.11", ((1, 2, 0),), ((2, 1, 0),)),
    ("2.12", ((3, 4, 2), (-1, 4, -2)),
     ((24, 1, 0), (-24, 0, 1), (-24, 1, -1), (8, 1, 1))),
    ("2.13", ((1, 2, 1), (1, 2, -1)), ((12, 1, 0), (-4, 1, 1), (-4, 1, -1))),
    ("2.14", ((1, 1, -1), (1, 1, 1)), ((6, 1, 0), (-2, 1, -2), (-2, 1, 2))),
    ("2.15", ((-1, 1, -1), (1, 1, 1)), ((6, 0, 1), (2, 2, -1), (-2, 2, 1))),
    ("2.16", ((2, 2, -1),), ((2, 2, 1), (-6, 0, 1), (-1, 1, -1), (1, 1, 1))),
    ("2.17", ((4, 2, 1),), ((-9, 1, 1), (-7, 1, -1), (24, 1, 0), (6, 0, 1))),
    ("2.18", ((7, 2, -1),), ((-4, 1, 1), (-6, 1, -1), (-9, 0, 1), (24, 1, 0))),
    ("2.19", ((1, 2, 1), (1, 2, -1)),
     (("-79/28", 1, 1), ("-73/28", 1, -1), ("6/28", 0, 1), ("264/28", 1, 0))),
    ("2.20", ((-11, 1, 1), (-13, 1, -1)), ((2, 0, 1), (-24, 1, 0))),
    ("2.21", ((1, 4, 1), (1, 4, -1)), ((-24, 1, 0), (16, 1, 1), (16, 1, -1))),
    ("2.22", ((1, 4, 1), (-1, 0, 1)), ((12, 1, 0), (-4, 3, 1), (4, 1, 1))),
    ("2.23", ((1, 4, 1), (1, 4, -1)),
     ((24, 1, 0), (-4, 3, 1), (-4, 3, -1), (4, 1, 1), (4, 1, -1))),
    ("2.24", ((1, 3, 1), (1, 1, -1)), ((12, 1, 0), (-4, 2, 1), (4, 0, 1))),
    ("2.25", ((1, 3, 1), (1, 3, -1)), ((-24, 1, 0), (15, 1, 1), (15, 1, -1))),
    ("2.26", ((1, 4, 1), (1, 4, -1)), ((120, 1, 0), (-56, 1, 1), (-56, 1, -1))),
    ("2.27", ((1, 1, -1),), ((2, 1, 0), (-1, 1, 1))),
)

def _printed(rows) -> tuple[tuple[str, int, int], ...]:
    return tuple((str(c), a, b) for c, a, b in rows)


CHAIN_CATALOGUE: tuple[ChainIdentity, ...] = tuple(
    ChainIdentity(label, _terms(lhs), _terms(rhs), _printed(lhs), _printed(rhs))
    for label, lhs, rhs in _CATALOGUE_ROWS)

CATALOGUE_SCHEMA_VERSION = 1


def catalogue_as_json_dict(catalogue=CHAIN_CATALOGUE) -> dict:
    """Versioned JSON form of the chain table: label -> coefficient rows.

    Coefficients appear exactly as catalogued (unreduced where the source
    writes them unreduced), which makes the table diffable for review.
    """
    return {
        "schema_version": CATALOGUE_SCHEMA_VERSION,
        "identities": [
            {"id": ident.label,
             "lhs": [[c, a, b] for c, a, b in ident.lhs_printed],
             "rhs": [[c, a, b] for c, a, b in ident.rhs_printed]}
            for ident in catalogue
        ],
    }


def catalogue_from_json_dict(doc: dict) -> tuple[ChainIdentity, ...]:
    if doc.get("schema_version") != CATALOGUE_SCHEMA_VERSION:
        raise ValueError("unsupported catalogue schema version")
    out = []
    for entry in doc["identities"]:
        lhs = tuple((Fraction(c), a, b) for c, a, b in entry["lhs"])
        rhs = tuple((Fraction(c), a, b) for c, a, b in entry["rhs"])
        out.append(ChainIdentity(
            entry["id"], lhs, rhs,
            tuple((str(c), a, b) for c, a, b in entry["lhs"]),
            tuple((str(c), a, b) for c, a, b in entry["rhs"])))
    return tuple(out)


def chain_replay(f, x: Point, y: Point,
                 catalogue=CHAIN_CATALOGUE) -> dict[str, ResidualVector]:
    """Residual of every catalogued identity at (x, y), exact.  f must be
    evaluable on all integer combinations of x and y appearing in the table
    (coefficients reach 4 on x and 3 on y).
    """
    vectors = chain_tables(catalogue).residuals(f, x, y)
    return {ident.label: vector for ident, vector in zip(catalogue, vectors)}


def chain_tables(catalogue=CHAIN_CATALOGUE) -> TermTables:
    """The catalogue's LHS - RHS tables over their shared arguments."""
    return _compiled(tuple(ident.moved_terms for ident in catalogue))
