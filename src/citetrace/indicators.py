"""The scoring kernel: one summary record in, one row of 13 indicators out.

Each publication class mass Pi maps to a normalized score Pi^2/P (its
own share of the set times its size), and each citation class mass Ci
to Ci^2/C.  The three publication scores form the vector X, the three
citation scores the vector Y, and Z = Y - X.  Stacking X, Y, Z gives a
3x3 performance matrix whose trace T = X1 + Y2 + Z3 condenses core
papers, tail citations, excess citations, and the uncited penalty into
one scalar; I3X and I3Y are the row sums of X and Y.  Class counts stay
integral until the final divisions, so all squares are exact before
rounding, and the sign of T is decided in exact integer arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ValidationError
from .partition import SummaryRecord

__all__ = ["INDICATOR_KEYS", "Scores", "score"]


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


def score(record: SummaryRecord) -> Scores:
    """All indicators of one entity, named after its record."""
    p = record.papers
    c = record.citations
    h = record.h
    pz = record.uncited
    ct = record.tail_citations
    ce = record.excess_citations
    try:
        x1 = h ** 2 / p
        x2 = record.tail_papers ** 2 / p
        x3 = pz ** 2 / p
        if c > 0:
            y1 = (h * h) ** 2 / c
            y2 = ct ** 2 / c
            y3 = ce ** 2 / c
        else:
            # Uncited set: Ci^2/C -> 0 as all Ci -> 0.
            y1 = y2 = y3 = 0.0
    except OverflowError:
        raise ValidationError(f"{record.name}: class scores exceed the float range") from None
    z1 = y1 - x1
    z2 = y2 - x2
    z3 = y3 - x3
    # T * P * C, exactly; with C = 0 every citation term is 0 and T = -Pz^2/P <= 0.
    exact = (h ** 2 * c + (ct ** 2 + ce ** 2) * p) - pz ** 2 * c
    return Scores(record.name, h, x1, x2, x3, y1, y2, y3, z1, z2, z3,
                  x1 + x2 + x3, y1 + y2 + y3, x1 + y2 + z3,
                  "positive" if exact > 0 else "nonpositive")
