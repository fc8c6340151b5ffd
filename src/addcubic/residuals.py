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
and 8 times with it off.  Exact sums are taken in integers, with one
``Fraction`` built per output coordinate of each table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .models import DimensionMismatchError, FuncModel, Point, norm
from .scalars import EXACT, ModeMismatchError, Number

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


@dataclass(frozen=True)
class ResidualVector:
    """A codomain vector with its norm; exactness checks use the coordinates."""

    value: Point

    @property
    def magnitude(self) -> float:
        return norm(self.value)

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero


def _lattice_coords(x: Point, y: Point, mode: str,
                    arguments: Sequence[tuple[int, int]]) -> list[tuple]:
    """Coordinates of a x + b y for each (a, b) in ``arguments``.

    Exact coordinates are formed in integers over the common denominator
    of x and y, with one ``Fraction`` per coordinate.
    """
    exact = mode == EXACT
    if exact:
        den = math.lcm(*(c.denominator for c in x.coords + y.coords))
        u = [c.numerator * (den // c.denominator) for c in x.coords]
        v = [c.numerator * (den // c.denominator) for c in y.coords]
    out = []
    for a, b in arguments:
        if (a, b) == (1, 0):
            out.append(x.coords)
        elif (a, b) == (0, 1):
            out.append(y.coords)
        elif exact:
            out.append(tuple(Fraction(a * ui + b * vi, den)
                             for ui, vi in zip(u, v)))
        elif b == 0:
            out.append(tuple(a * xi for xi in x.coords))
        elif a == 0:
            out.append(tuple(b * yi for yi in y.coords))
        else:
            out.append(tuple(a * xi + b * yi
                             for xi, yi in zip(x.coords, y.coords)))
    return out


def _integer_row(terms: tuple[Term, ...],
                 index: Mapping[tuple[int, int], int]
                 ) -> tuple[tuple[tuple[int, int], ...], int]:
    """(integer coefficient, argument index) rows and their denominator."""
    den = math.lcm(*(c.denominator for c, _, _ in terms))
    return (tuple((c.numerator * (den // c.denominator), index[a, b])
                  for c, a, b in terms), den)


class TermTables:
    """Term tables sharing one list of distinct lattice arguments (a, b).

    Each table is a sum of c * f(a x + b y).  :meth:`evaluate` computes f
    once at each distinct argument of a pair (x, y), whatever the number of
    tables that use it; :meth:`sums` then forms every table from those
    values.  Exact sums are taken in integers: each output coordinate's
    value denominators are cleared once with their lcm, each table keeps
    integer coefficients over one table denominator, and one ``Fraction``
    is built per output coordinate.  Float sums keep the term order and the
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

    def evaluate(self, f: Callable[[Point], Point], x: Point,
                 y: Point) -> list[Sequence[Number]]:
        """f(a x + b y) at each distinct argument, in ``arguments`` order."""
        if x.dim != y.dim:
            raise DimensionMismatchError(
                f"x has dimension {x.dim}, y has {y.dim}")
        if x.mode != y.mode:
            raise ModeMismatchError("x and y carry different scalar modes")
        mode = x.mode
        arguments = _lattice_coords(x, y, mode, self.arguments)
        if isinstance(f, FuncModel):
            return [f.evaluate_coords(coords, mode) for coords in arguments]
        return [f(Point(coords, x.norm_kind)).coords for coords in arguments]

    def sums(self, values: Sequence[Sequence[Number]],
             x: Point) -> list[ResidualVector]:
        """Each table's sum from :meth:`evaluate` values, in table order."""
        if x.mode == EXACT:
            columns = []  # per output coordinate: numerators over one lcm
            for column in zip(*values):
                lcm = math.lcm(*(v.denominator for v in column))
                columns.append(([v.numerator * (lcm // v.denominator)
                                 for v in column], lcm))
            totals = [tuple(Fraction(sum(k * nums[i] for k, i in row),
                                     common * den)
                            for nums, common in columns)
                      for row, den in self._integer_rows]
        else:
            totals = []
            for (c, i), *rest in self._float_rows:
                total = [c * v for v in values[i]]
                for c, i in rest:
                    total = [t + c * v for t, v in zip(total, values[i])]
                totals.append(tuple(total))
        return [ResidualVector(Point(total, x.norm_kind)) for total in totals]

    def term_norms(self, values: Sequence[Sequence[Number]],
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


def combine(f: Callable[[Point], Point], x: Point, y: Point,
            terms: tuple[Term, ...]) -> ResidualVector:
    """Evaluate sum of c * f(a x + b y) over the given terms."""
    return TermTables((terms,)).residuals(f, x, y)[0]


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


@dataclass(frozen=True)
class _Combination:
    """alpha*f + beta*g as a pointwise evaluable function."""

    f: Callable[[Point], Point]
    g: Callable[[Point], Point]
    alpha: Fraction
    beta: Fraction

    def __call__(self, x: Point) -> Point:
        return self.f(x).scale(self.alpha) + self.g(x).scale(self.beta)


def linearity_residual(f, g, alpha, beta, x: Point, y: Point) -> ResidualVector:
    """D(alpha f + beta g) - alpha D(f) - beta D(g); exactly zero always.

    The difference operator is linear in the function argument, so this is
    an internal consistency check rather than a property of f or g.
    """
    a, b = Fraction(alpha), Fraction(beta)
    combined = mixed_residual(_Combination(f, g, a, b), x, y).value
    separate = mixed_residual(f, x, y).value.scale(a) \
        + mixed_residual(g, x, y).value.scale(b)
    return ResidualVector(combined - separate)


# ---------------------------------------------------------------------------
# Derivation-chain catalogue
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainIdentity:
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


def catalogue_by_label() -> Mapping[str, ChainIdentity]:
    return {ident.label: ident for ident in CHAIN_CATALOGUE}


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
    return TermTables([ident.moved_terms for ident in catalogue])
