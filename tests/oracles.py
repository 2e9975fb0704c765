"""Test-side oracles: the class-share weights, the weighted I3 sum, the
trace written directly from class counts, midranks as a plain loop, the
correctly rounded Pearson coefficient from rational arithmetic, the
t-test p-value by quadrature, and the report renderers cell by cell.

They restate the library's results in another form, so the tests can
check the library against them rather than against itself.
"""

import csv
import io
import itertools
import json
import math
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from typing import NamedTuple, Sequence

import mpmath


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


def scores_row(record) -> tuple:
    """One record's ``Scores`` fields, one record at a time: the expressions
    of the column kernel in the same order, so every float must be
    bit-identical.  OverflowError when a class score exceeds the float range."""
    p, h, pz, c = record.papers, record.h, record.uncited, record.citations
    pt, ct, ce = record.tail_papers, record.tail_citations, record.excess_citations
    x1, x2, x3 = h ** 2 / p, pt ** 2 / p, pz ** 2 / p
    if c > 0:
        y1, y2, y3 = (h * h) ** 2 / c, ct ** 2 / c, ce ** 2 / c
    else:
        y1 = y2 = y3 = 0.0
    z1, z2, z3 = y1 - x1, y2 - x2, y3 - x3
    exact = Fraction(h * h, p) + Fraction(ct * ct + ce * ce, max(c, 1)) - Fraction(pz * pz, p)
    return (record.name, h, x1, x2, x3, y1, y2, y3, z1, z2, z3, x1 + x2 + x3, y1 + y2 + y3,
            x1 + y2 + z3, "positive" if exact > 0 else "nonpositive")


def midranks_loop(values: Sequence[float]) -> "np.ndarray":
    """Midranks by walking each run of tied values in sorted order."""
    import numpy as np  # here: no other oracle needs it
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

FIXED_WIDTH = 128  # the widest fixed-notation table value, in characters


def format_sig(value: float, figures: int) -> str:
    """Rounding to significant figures (tables only): fixed notation, or
    exponent notation where the fixed text would be wider than FIXED_WIDTH."""
    if value == 0 or not math.isfinite(value):
        return str(value)
    exponent = math.floor(math.log10(abs(value)))
    if exponent < FIXED_WIDTH:
        digits = figures - 1 - exponent
        rounded = Decimal(value).quantize(Decimal(1).scaleb(-digits), ROUND_HALF_EVEN)
        text = f"{rounded:f}"
        if len(text) <= FIXED_WIDTH:
            return text
    return f"{value:.{figures - 1}e}"


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


def one_line(text: str) -> str:
    """text with every character that ``str.splitlines`` splits at written
    as its escape, one character at a time."""
    return "".join(c.encode("unicode_escape").decode("ascii") if len(f"a{c}b".splitlines()) > 1
                   else c for c in text)


def write_table(headers: Sequence[str], rows: Sequence[Sequence], figures: int) -> str:
    """The table: each cell on its row's line, line breaks escaped."""
    cells = [[one_line(cell(v, figures)) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) if i == 0 else h.rjust(w)
                       for i, (h, w) in enumerate(zip(headers, widths)))]
    for row in cells:
        lines.append("  ".join(v.ljust(w) if i == 0 else v.rjust(w)
                               for i, (v, w) in enumerate(zip(row, widths))))
    return "\n".join(line.rstrip() for line in lines) + "\n"


def write_csv(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """The rows as ``csv.writer`` writes them, one row at a time, with "\\n"
    line ends, the same on every Python version.  Each row is written with
    the line end "\\r\\n", under which every version quotes a cell holding
    CR or LF (under "\\n", 3.10 to 3.12 leave a bare CR unquoted).  NUL,
    which needs no quotes and which 3.10's writer rejects, is written as a
    stand-in character that the row does not hold, then put back."""
    lines = []
    for row in [headers, *([cell(v, None) for v in row] for row in rows)]:
        text = "".join(row)
        stand_in = next(c for c in map(chr, itertools.count(0xE000)) if c not in text)
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow([c.replace("\0", stand_in) for c in row])
        lines.append(out.getvalue()[:-2].replace(stand_in, "\0") + "\n")
    return "".join(lines)


def write_json(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    return json.dumps([dict(zip(headers, row)) for row in rows], indent=2) + "\n"
