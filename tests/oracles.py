"""Test-side oracles: the class-share weights, the weighted I3 sum, the
trace written directly from class counts, midranks as a plain loop, the
correctly rounded Pearson coefficient from rational arithmetic, the
t-test p-value by quadrature, and the report renderers cell by cell.

They restate the library's results in another form, so the tests can
check the library against them rather than against itself.
"""

import csv
import io
import json
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import mpmath
import numpy as np


class Weights(NamedTuple):
    """Each class's share of its own total (0 for the citation side of an uncited set)."""

    pub_core: float
    pub_tail: float
    pub_uncited: float
    cite_core: float
    cite_tail: float
    cite_excess: float


def class_weights(record) -> Weights:
    """The six shares of a ``SummaryRecord``."""
    p = record.papers
    c = record.citations
    if c > 0:
        cites = (record.h ** 2 / c, record.tail_citations / c, record.excess_citations / c)
    else:
        cites = (0.0, 0.0, 0.0)
    return Weights(record.h / p, record.tail_papers / p, record.uncited / p, *cites)


def i3_aggregate(values: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted sum of class masses: I3X and I3Y in share-weighted form."""
    return float(sum(w * v for v, w in zip(values, weights)))


def trace_from_counts(core_papers: int, tail_citations: int, excess_citations: int,
                      uncited_papers: int, papers: int, citations: int) -> float:
    """Pc^2/P + Ct^2/C + (Ce^2/C - Pz^2/P); no citation terms when C = 0.

    Any counts with P >= 1 are accepted, including ones that no
    summary record has, so monotonicity can be probed one count at a time.
    """
    core = core_papers ** 2 / papers
    penalty = uncited_papers ** 2 / papers
    if citations > 0:
        tail = tail_citations ** 2 / citations
        excess = excess_citations ** 2 / citations
    else:
        tail = excess = 0.0
    return core + tail + (excess - penalty)


def midranks_loop(values: Sequence[float]) -> np.ndarray:
    """Midranks by walking each run of tied values in sorted order."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="mergesort")
    ranks = np.empty(v.size, dtype=float)
    i = 0
    while i < v.size:
        j = i
        while j < v.size and v[order[j]] == v[order[i]]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j + 1)  # average of ranks i+1 .. j
        i = j
    return ranks


def pearson_exact(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson r of the float inputs, correctly rounded: the moments in
    ``Fraction``, then the square root of r^2 rounded once, from an integer
    square root with at least 60 bits and a sticky bit for any remainder."""
    fx = [Fraction(float(v)) for v in x]
    fy = [Fraction(float(v)) for v in y]
    mx, my = sum(fx) / len(fx), sum(fy) / len(fy)
    sxy = sum((a - mx) * (b - my) for a, b in zip(fx, fy))
    square = sxy * sxy / (sum((a - mx) ** 2 for a in fx) * sum((b - my) ** 2 for b in fy))
    p, q = square.numerator, square.denominator
    k = max(0, (q.bit_length() - p.bit_length()) // 2 + 60)
    root = math.isqrt((p << 2 * k) // q)  # floor of sqrt(r^2) * 2^k
    sticky = root * root * q != p << 2 * k
    r = (2 * root + sticky) / (1 << (k + 1))  # int / int rounds correctly
    return -r if sxy < 0 else r


def within_one_ulp(value: float, exact: float) -> bool:
    """value is exact or one of its two float neighbours."""
    return value in (math.nextafter(exact, -math.inf), exact, math.nextafter(exact, math.inf))


def t_pvalue_quad(r: float, n: int) -> float:
    """Two-tailed p of a correlation r from n pairs: numerical quadrature
    of the Student-t density with n - 2 degrees of freedom."""
    mpmath.mp.dps = 30
    df = n - 2
    t = mpmath.mpf(r) * mpmath.sqrt(df / (1 - mpmath.mpf(r) ** 2))

    def density(x):
        return (mpmath.gamma((df + 1) / 2)
                / (mpmath.sqrt(df * mpmath.pi) * mpmath.gamma(df / 2))
                * (1 + x * x / df) ** (-(df + 1) / 2))

    return float(2 * mpmath.quad(density, [abs(t), mpmath.inf]))


# The report renderers as they were before the CLI encoded whole columns:
# every cell through one isinstance chain, JSON through ``json.dumps``.
# ``format_sig`` raises OverflowError where the rounded value passes the
# float maximum.

def format_sig(value: float, figures: int) -> str:
    """Fixed-notation rounding to significant figures (tables only)."""
    if value == 0 or not math.isfinite(value):
        return str(value)
    digits = figures - 1 - math.floor(math.log10(abs(value)))
    rounded = round(value, digits)
    if digits <= 0:
        return f"{rounded:.0f}"
    return f"{rounded:.{digits}f}"


def cell(value, figures: int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if figures is None:
        return repr(float(value))
    return format_sig(value, figures)


def write_table(headers: Sequence[str], rows: Sequence[Sequence], figures: int) -> str:
    cells = [[cell(v, figures) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) if i == 0 else h.rjust(w)
                       for i, (h, w) in enumerate(zip(headers, widths)))]
    for row in cells:
        lines.append("  ".join(v.ljust(w) if i == 0 else v.rjust(w)
                               for i, (v, w) in enumerate(zip(row, widths))))
    return "\n".join(line.rstrip() for line in lines) + "\n"


def write_csv(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([cell(v, None) for v in row])
    return out.getvalue()


def write_json(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    return json.dumps([dict(zip(headers, row)) for row in rows], indent=2) + "\n"
