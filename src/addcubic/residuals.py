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

Every residual is a table of terms c * f(a x + b y).  :class:`TermTables`
evaluates f once per pair (x, y) at each distinct argument of the tables
it holds and forms every table from those values.  The three rules share
8 arguments; with the 21 chain identities the union is 19, so
``check-lemmas`` evaluates each model 19 times per pair with the chain on
and 8 times with it off.  Exact mode runs in integers: every argument is
numerators over the pair's one denominator, the model's integer entry
returns numerators over one denominator, and each table's sum is an integer
dot product; ``Fraction``s are built only for vectors a caller asks for.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, Sequence

from .models import DimensionMismatchError, Point, evaluate, norm
from .scalars import EXACT, ModeMismatchError, integer_ratio

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


def _lattice_coords(u: Sequence, v: Sequence,
                    arguments: Sequence[tuple[int, int]]) -> list[tuple]:
    """Coordinates of a u + b v for each (a, b) in ``arguments``."""
    out = []
    for a, b in arguments:
        if (a, b) == (1, 0):
            out.append(u)
        elif (a, b) == (0, 1):
            out.append(v)
        elif b == 0:
            out.append(tuple(a * ui for ui in u))
        elif a == 0:
            out.append(tuple(b * vi for vi in v))
        else:
            out.append(tuple(a * ui + b * vi for ui, vi in zip(u, v)))
    return out


def _integer_row(terms: tuple[Term, ...],
                 index: Mapping[tuple[int, int], int]
                 ) -> tuple[tuple[tuple[int, int], ...], int]:
    """(integer coefficient, argument index) rows and their denominator."""
    nums, den = integer_ratio([c for c, _, _ in terms])
    return tuple(zip(nums, (index[a, b] for _, a, b in terms))), den


class TermTables:
    """Term tables sharing one list of distinct lattice arguments (a, b).

    Each table is a sum of c * f(a x + b y).  :meth:`evaluate` computes f
    once at each distinct argument of a pair (x, y), whatever the number of
    tables that use it; :meth:`sums` then forms every table from those
    values.  Exact sums are integer dot products: the values' numerators
    over one common denominator (an lcm only where they differ) times each
    table's integer coefficients over one table denominator.
    :meth:`integer_sums` returns them; :meth:`sums` builds one ``Fraction``
    per output coordinate.  Float sums keep the term order and the
    products c * v, so they equal a term-by-term float sum bit for bit.
    """

    def __init__(self, tables: Sequence[tuple[Term, ...]]):
        index: dict[tuple[int, int], int] = {}
        for terms in tables:
            for _, a, b in terms:
                index.setdefault((a, b), len(index))
        self.arguments: tuple[tuple[int, int], ...] = tuple(index)
        self._float_rows = tuple(
            tuple((float(c), index[a, b]) for c, a, b in terms)
            for terms in tables)
        self._integer_rows = tuple(_integer_row(terms, index)
                                   for terms in tables)

    def evaluate(self, f: Callable[[Point], Point], x: Point, y: Point) -> list:
        """f(a x + b y) at each distinct argument, in ``arguments`` order;
        exact values are (integer numerators, denominator) pairs."""
        if x.dim != y.dim:
            raise DimensionMismatchError(
                f"x has dimension {x.dim}, y has {y.dim}")
        if x.mode != y.mode:
            raise ModeMismatchError("x and y carry different scalar modes")
        u, v, den = x.coords, y.coords, None
        if x.mode == EXACT:
            ints, den = integer_ratio(u + v)
            u, v = tuple(ints[:x.dim]), tuple(ints[x.dim:])
        return [evaluate(f, coords, x.mode, x.norm_kind, den)
                for coords in _lattice_coords(u, v, self.arguments)]

    def integer_sums(self, values) -> list[tuple[list[int], int]]:
        """Each table's exact sum from exact :meth:`evaluate` values, as
        (integer numerators, denominator), unreduced, in table order."""
        common = math.lcm(*{d for _, d in values})
        columns = list(zip(*(nums if d == common
                             else [n * (common // d) for n in nums]
                             for nums, d in values)))
        return [([sum(k * column[i] for k, i in row) for column in columns],
                 common * den) for row, den in self._integer_rows]

    def sums(self, values, x: Point) -> list[ResidualVector]:
        """Each table's sum from :meth:`evaluate` values, in table order."""
        if x.mode == EXACT:
            totals = [tuple(Fraction(n, den) for n in nums)
                      for nums, den in self.integer_sums(values)]
        else:
            totals = []
            for (c, i), *rest in self._float_rows:
                total = [c * v for v in values[i]]
                for c, i in rest:
                    total = [t + c * v for t, v in zip(total, values[i])]
                totals.append(tuple(total))
        return [ResidualVector(Point(total, x.norm_kind)) for total in totals]

    def term_norms(self, values: Sequence[Sequence[float]],
                   x: Point) -> list[float]:
        """Per table, the float sum of |c| * ||f(a x + b y)|| in term order."""
        norms = [norm(Point(tuple(v), x.norm_kind)) for v in values]
        out = []
        for row in self._float_rows:
            total = 0.0
            for c, i in row:
                total += abs(c) * norms[i]
            out.append(total)
        return out

    def residuals(self, f: Callable[[Point], Point], x: Point,
                  y: Point) -> list[ResidualVector]:
        """Every table's sum at (x, y); f is evaluated once per argument."""
        return self.sums(self.evaluate(f, x, y), x)


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

    def residual(self, f, x: Point, y: Point) -> ResidualVector:
        return combine(f, x, y, self.moved_terms)


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
    """Exact residual of every catalogued identity at (x, y).

    Replay is an exactness tool: float-mode points are rejected.  f must be
    evaluable on all integer combinations of x and y appearing in the table
    (coefficients reach 4 on x and 3 on y).
    """
    if x.mode != EXACT or y.mode != EXACT:
        raise ModeMismatchError("chain replay requires exact-mode points")
    vectors = chain_tables(catalogue).residuals(f, x, y)
    return {ident.label: vector for ident, vector in zip(catalogue, vectors)}


def chain_tables(catalogue=CHAIN_CATALOGUE) -> TermTables:
    """The catalogue's LHS - RHS tables over their shared arguments."""
    return _compiled(tuple(ident.moved_terms for ident in catalogue))
