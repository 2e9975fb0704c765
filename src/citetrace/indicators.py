"""The scoring kernel: summary counts in, a column per indicator out.

Each publication class mass Pi maps to a normalized score Pi^2/P (its
own share of the set times its size), and each citation class mass Ci
to Ci^2/C.  The three publication scores form the vector X, the three
citation scores the vector Y, and Z = Y - X.  Stacking X, Y, Z gives a
3x3 performance matrix whose trace T = X1 + Y2 + Z3 condenses core
papers, tail citations, excess citations, and the uncited penalty into
one scalar; I3X and I3Y are the row sums of X and Y.  Class counts stay
integral until the final divisions, so all squares are exact before
rounding, and the sign of T is decided in exact integer arithmetic.
There is one kernel, over integer columns of valid rows.  ``add_rows``
scores such columns into a table and is the one place that names a row
whose class scores pass the float range; ``score_table`` adds the records
a chunk at a time, and ``score`` takes row 0 of a one-record table.
"""

from __future__ import annotations

from array import array
from typing import Iterable, NamedTuple

from .errors import ValidationError
from .partition import SummaryRecord, column_chunks

__all__ = ["INDICATOR_KEYS", "Scores", "ScoreTable", "score", "score_table"]


class Scores(NamedTuple):
    """One entity's indicators, fields in report column order.

    ``sign`` is "positive" exactly when the exact (rational) trace
    exceeds zero, whatever the rounding of the float ``T``.
    """

    name: str
    h: int
    X1: float
    X2: float
    X3: float
    Y1: float
    Y2: float
    Y3: float
    Z1: float
    Z2: float
    Z3: float
    I3X: float
    I3Y: float
    T: float
    sign: str


# The indicator columns, in the order used everywhere an entity's numbers are listed.
INDICATOR_KEYS = Scores._fields[1:-1]


class ScoreTable(NamedTuple):
    """A set of scored entities as columns, one per ``Scores`` field and in
    the same order, so that ``table[i][k]`` is ``Scores`` field i of row k.
    The float indicators are ``array('d')``; names, h and sign are lists."""

    name: list[str]
    h: list[int]
    X1: array
    X2: array
    X3: array
    Y1: array
    Y2: array
    Y3: array
    Z1: array
    Z2: array
    Z3: array
    I3X: array
    I3Y: array
    T: array
    sign: list[str]


def _columns(names: list[str], ps: list[int], hs: list[int], pzs: list[int], cs: list[int],
             chs: list[int]) -> ScoreTable:
    """The kernel: the score table of valid rows given as integer columns.
    Raises OverflowError when a class score exceeds the float range."""
    pts = [p - h - pz for p, h, pz in zip(ps, hs, pzs)]
    cts = [c - ch for c, ch in zip(cs, chs)]
    ces = [ch - h * h for ch, h in zip(chs, hs)]
    x1 = [h ** 2 / p for h, p in zip(hs, ps)]
    x2 = [pt ** 2 / p for pt, p in zip(pts, ps)]
    x3 = [pz ** 2 / p for pz, p in zip(pzs, ps)]
    # Uncited set (C = 0): Ci^2/C -> 0 as all Ci -> 0.
    y1 = [(h * h) ** 2 / c if c > 0 else 0.0 for h, c in zip(hs, cs)]
    y2 = [ct ** 2 / c if c > 0 else 0.0 for ct, c in zip(cts, cs)]
    y3 = [ce ** 2 / c if c > 0 else 0.0 for ce, c in zip(ces, cs)]
    z1 = [y - x for y, x in zip(y1, x1)]
    z2 = [y - x for y, x in zip(y2, x2)]
    z3 = [y - x for y, x in zip(y3, x3)]
    # T * P * C, exactly; with C = 0 every citation term is 0 and T = -Pz^2/P <= 0.
    sign = ["positive" if (h ** 2 * c + (ct ** 2 + ce ** 2) * p) - pz ** 2 * c > 0
            else "nonpositive" for h, c, ct, ce, p, pz in zip(hs, cs, cts, ces, ps, pzs)]
    floats = (x1, x2, x3, y1, y2, y3, z1, z2, z3,
              [a + b + c for a, b, c in zip(x1, x2, x3)],
              [a + b + c for a, b, c in zip(y1, y2, y3)],
              [a + b + c for a, b, c in zip(x1, y2, z3)])
    return ScoreTable(names, hs, *(array("d", f) for f in floats), sign)


def empty_table() -> ScoreTable:
    """A table of no rows."""
    return ScoreTable([], [], *(array("d") for _ in INDICATOR_KEYS[1:]), [])


def add_rows(table: ScoreTable, names: list[str], ps: list[int], hs: list[int],
             pzs: list[int], cs: list[int], chs: list[int]) -> None:
    """Score valid rows given as integer columns (names, P, h, Pz, C, Ch) and
    append them to table.  A class score past the float range is a
    ValidationError naming the first such row, and nothing is appended."""
    columns = (names, ps, hs, pzs, cs, chs)
    try:
        scored = _columns(*columns)
    except OverflowError:
        for row in zip(*columns):
            try:
                _columns(*([value] for value in row))
            except OverflowError:
                raise ValidationError(f"{row[0]}: class scores exceed the float range") from None
        raise
    for stored, column in zip(table, scored):
        stored.extend(column)


def score_table(records: Iterable[SummaryRecord]) -> ScoreTable:
    """All indicators of every record, in input order.

    A class score past the float range is a ValidationError naming the
    first entity, in input order, whose scores exceed it."""
    table = empty_table()
    for columns in column_chunks(records):
        add_rows(table, *columns)
    return table


def score(record: SummaryRecord) -> Scores:
    """All indicators of one entity, named after its record: row 0 of its
    one-record table."""
    return Scores._make(column[0] for column in score_table([record]))
