"""Pearson and Spearman correlation with midrank ties and t-based p-values.

Coefficients are exact until one final rounding.  A finite float is a
dyadic rational, so a column times a large enough power of two is a list
of integers, and num = n*Sxy - Sx*Sy, dx = n*Sxx - Sx^2 and dy = n*Syy -
Sy^2 are exact integers that cannot overflow.  r^2 = num^2/(dx*dy) is one
correctly rounded division, taken at a power-of-four scale that keeps it
a normal float even for |r| < 2^-511, and |r| is its square root.  So
pearson r and spearman rho are within one unit in the last place of the
exact coefficient of their input floats, for finite input of any
magnitude; only an |r| below 2^-1022, itself subnormal, is rounded a
second time.  A column is constant exactly when its dx is 0; such
columns are rejected as floats, before any sum is taken.

r does not depend on the power of two: a column times 2^k has num times
2^k and dx times 4^k, so num^2 and dx*dy are both 4^k times larger, their
bit lengths pick the same power-of-four scale, and the quotient rounds to
the same float.  So each float column gets its power, 2^shift, from one
pass over it in C: 2^shift times its smallest nonzero magnitude has 53
bits before the point, and so has 2^shift times any larger magnitude, at
least.  Doubled midranks are integers as they are.

The rows are walked in blocks of ``partition._CHUNK_ROWS``, the block size
of the readers and writers.  Exact integers are made for one block at a
time, by ldexp while 2^shift times the column's largest magnitude stays
a finite float and from ``as_integer_ratio`` past that, and Sx and every
Sxx and Sxy add up over the blocks.  Every Sxx and Sxy comes from one Gram
kernel (Kronecker substitution): with |x| < 2^L over n rows, each sum fits
a signed field of B = 2L + bits(n) + 2 bits, so summing x_c * (x_c +
x_(c+1)*2^B + ...) over the rows gives Sxy for every later y, exactly,
from one multiply per row.  Packs are capped at 4096 bits, past which the
doubled digit work outweighs the per-integer overhead saved, so columns
wider than about 2000 bits are multiplied pairwise.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from array import array
from typing import Callable, Iterable, NamedTuple, Sequence

from . import partition
from .errors import DegenerateInput, LengthMismatch

__all__ = [
    "pearson",
    "spearman",
    "midranks",
    "significance",
    "stars",
    "PairCorrelation",
    "CorrelationReport",
    "correlation_report",
]


def _require_finite(values: Sequence[float]) -> None:
    if not all(map(math.isfinite, values)):
        raise DegenerateInput("values must be finite (no NaN or infinity)")


def _require_columns(*columns: Sequence[float]) -> None:
    """Every column finite, then every (non-empty) column not constant."""
    for values in columns:
        _require_finite(values)
    for values in columns:
        if values.count(values[0]) == len(values):
            raise DegenerateInput("constant sequence has no defined correlation")


def _require_pair(x: Sequence[float], y: Sequence[float]) -> None:
    if len(x) != len(y):
        raise LengthMismatch(f"paired sequences must match: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise DegenerateInput(f"need at least 2 pairs, got {len(x)}")
    _require_columns(x, y)


def _floats(values: Sequence[float]) -> array:
    """The values as an array of doubles; such an array as it is."""
    if isinstance(values, array) and values.typecode == "d":
        return values
    return array("d", map(float, values))


def _paired(x: Sequence[float], y: Sequence[float]) -> tuple[array, array]:
    fx, fy = _floats(x), _floats(y)
    _require_pair(fx, fy)
    return fx, fy


_PACK_BITS = 4096  # widest row pack (see the module docstring)


def _block_sums(blocks: Iterable[Sequence[Sequence[int]]], count: int, n: int,
                width: int) -> tuple[list[int], dict[tuple[int, int], int]]:
    """sum(x_i) of each of count integer columns of n rows, below 2^width in
    magnitude, and sum(x_i * x_j) of every i <= j, given a block of rows at a
    time as one slice of each column."""
    field = 2 * width + n.bit_length() + 2  # holds any sum of n products, with its sign
    size = max(1, min(count, _PACK_BITS // field))
    groups = [range(a, min(a + size, count)) for a in range(0, count, size)]
    packed = {(c, g): 0 for g in groups for c in range(g.stop)}
    sums = [0] * count
    for rows in blocks:
        sums = list(map(operator.add, sums, map(sum, rows)))
        for g in groups:
            pack = rows[g[-1]]
            for c in reversed(range(g.stop)):
                if c in g[:-1]:  # pack = x_c + (pack << field), from the group's last column down
                    pack = list(map(operator.add, rows[c],
                                    map(operator.lshift, pack, itertools.repeat(field))))
                packed[c, g] += sum(map(operator.mul, rows[c], pack))
    half, mask, gram = 1 << field - 1, (1 << field) - 1, {}
    for (c, g), t in packed.items():
        for d in range(max(c, g.start), g.stop):  # the lowest field left is sum(x_c * x_d)
            gram[c, d] = f = ((t + half) & mask) - half
            t = (t - f) >> field
    return sums, gram


def _coefficient(n: int, sx: int, sxx: int, sy: int, syy: int, sxy: int) -> float:
    """Pearson r of two non-constant columns of n integers, from exact sums."""
    dx, dy = n * sxx - sx * sx, n * syy - sy * sy
    num = n * sxy - sx * sy
    square, bound = num * num, dx * dy  # square <= bound: Cauchy-Schwarz
    k = (bound.bit_length() - square.bit_length()) // 2  # |r| is about 2^-k
    r = math.ldexp(math.sqrt((square << 2 * k) / bound), -k)
    return -r if num < 0 else r


def _correlations(columns: Sequence[Sequence], width: int,
                  exact: Callable[[Sequence, int], Sequence[int]]) -> dict[tuple[int, int], float]:
    """Pearson r of every pair i < j of non-constant columns whose exact
    integers, below 2^width in magnitude, are exact(block, i) for a block of
    column i, walking the rows a block of ``partition._CHUNK_ROWS`` at a time."""
    count, n, rows = len(columns), len(columns[0]), partition._CHUNK_ROWS
    blocks = ([exact(xs[start:start + rows], i) for i, xs in enumerate(columns)]
              for start in range(0, n, rows))
    sums, gram = _block_sums(blocks, count, n, width)
    return {(i, j): _coefficient(n, sums[i], gram[i, i], sums[j], gram[j, j], gram[i, j])
            for i, j in itertools.combinations(range(count), 2)}


def _value_correlations(columns: Sequence[array]) -> dict[tuple[int, int], float]:
    """Pearson r of every pair i < j of finite, non-constant float columns,
    each times 2^shift (see the module docstring)."""
    shifts = [53 - math.frexp(min(filter(None, map(abs, xs))))[1] for xs in columns]
    widths = [math.frexp(max(map(abs, xs)))[1] + shift for xs, shift in zip(columns, shifts)]

    def exact(block: array, i: int) -> list[int]:  # through a float while that stays finite
        shift = shifts[i]
        if widths[i] <= 1024:
            return list(map(int, map(math.ldexp, block, itertools.repeat(shift))))
        return [m << shift + 1 - d.bit_length() for m, d in map(float.as_integer_ratio, block)]

    return _correlations(columns, max(widths), exact)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient, rounded from its exact value."""
    return _value_correlations(_paired(x, y))[0, 1]


def _doubled_ranks(values: array) -> array:
    """Twice the midranks of finite values, as exact integers: a run of ties
    at sorted positions start .. end-1 shares the midrank (start+end+1)/2.
    NaN would break the sort's order, so every caller checks first."""
    ranks = {x: i + 1 for i, x in enumerate(sorted(values))}  # ascending, one past each tie run
    start = 0
    for x, end in ranks.items():  # x fills sorted positions start .. end-1
        ranks[x], start = start + end + 1, end  # a new value for a key: the dict keeps its size
    return array("q", map(ranks.__getitem__, values))


def _rank_correlations(columns: Sequence[array]) -> dict[tuple[int, int], float]:
    """Pearson r of every pair i < j of non-constant columns of doubled ranks."""
    return _correlations(columns, max(map(max, columns)).bit_length(), lambda block, i: block)


def midranks(values: Sequence[float]) -> list[float]:
    """Ranks 1..n with tied values sharing the average of their positions."""
    floats = _floats(values)
    _require_finite(floats)
    return [0.5 * r for r in _doubled_ranks(floats)]


# rho comes from the doubled ranks: the exact column of the midranks is either
# them or half of them, and _coefficient gives the same float for a column
# scaled by a power of two.
def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rho: the Pearson correlation of the midranks."""
    return _rank_correlations(list(map(_doubled_ranks, _paired(x, y))))[0, 1]


def significance(r: float, n: int) -> float:
    """Two-tailed p-value for a correlation coefficient from n pairs.

    Uses the statistic t = r * sqrt((n - 2) / (1 - r^2)) against a
    Student-t distribution with n - 2 degrees of freedom; |r| = 1 maps
    to p = 0 by convention.
    """
    if n < 3:
        raise DegenerateInput(f"need n >= 3 for a p-value, got {n}")
    if not -1.0 <= r <= 1.0:
        raise DegenerateInput(f"coefficient out of [-1, 1]: {r!r}")
    if abs(r) == 1.0:
        return 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    df = n - 2
    # two-tailed Student-t tail: p = I_x(df/2, 1/2) with x = df/(df+t^2)
    return _betainc(df / 2.0, 0.5, df / (df + t * t), t * t / (df + t * t))


_CF_EPS = sys.float_info.epsilon
_CF_TINY = 1e-300
# With b = 1/2 the fraction converges in at most about 90 terms for every
# n from 3 to 10^10; the cap only bounds the loop.
_CF_MAX_TERMS = 1000


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0.

    y must be 1 - x, computed by the caller without the subtraction, so
    that an x close to 1 keeps the relative accuracy of its complement.
    The continued fraction converges fast below x = (a+1)/(a+b+2); above
    it the symmetry I_x(a, b) = 1 - I_y(b, a) is used instead.
    """
    flip = x > (a + 1.0) / (a + b + 2.0)
    if flip:
        a, b, x, y = b, a, y, x
    if x == 0.0:
        value = 0.0
    else:
        log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
        value = math.exp(log_front) / (a * _betainc_fraction(a, b, x))
    return 1.0 - value if flip else value


def _betainc_fraction(a: float, b: float, x: float) -> float:
    """1 + d1/(1 + d2/(1 + ...)) by the modified Lentz method, where
    d(2m+1) = -(a+m)(a+b+m)x / ((a+2m)(a+2m+1)) and
    d(2m) = m(b-m)x / ((a+2m-1)(a+2m))."""
    f, c, d = 1.0, 1.0, 0.0
    for j in range(1, _CF_MAX_TERMS):
        m = j // 2
        if j % 2:
            coef = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        else:
            coef = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        d = 1.0 + coef * d
        d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
        c = 1.0 + coef / c
        c = c if abs(c) > _CF_TINY else _CF_TINY
        step = c * d
        f *= step
        if abs(step - 1.0) <= _CF_EPS:
            break
    return f


def stars(p: float) -> str:
    """Significance marker: '**' below .01, '*' below .05, else ''."""
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


class PairCorrelation(NamedTuple):
    """Pearson and Spearman results for one pair of metric columns."""

    a: str
    b: str
    n: int
    pearson_r: float
    pearson_p: float | None
    spearman_rho: float
    spearman_p: float | None

    @property
    def pearson_stars(self) -> str:
        return stars(self.pearson_p) if self.pearson_p is not None else ""

    @property
    def spearman_stars(self) -> str:
        return stars(self.spearman_p) if self.spearman_p is not None else ""


class CorrelationReport(NamedTuple):
    """All pairwise correlations for a set of named metric columns."""

    pairs: tuple[PairCorrelation, ...]


def correlation_report(columns: Sequence[tuple[str, Sequence[float]]]) -> CorrelationReport:
    """Correlate every pair of the given (name, values) columns.

    Columns must already be joined: the i-th element of every column
    belongs to the same entity.  p-values are reported only for n >= 3.
    """
    lengths = {len(values) for _, values in columns}
    if len(lengths) > 1:
        raise LengthMismatch(f"columns differ in length: {sorted(lengths)}")
    floats = [_floats(values) for _, values in columns]
    if len(floats) < 2:
        return CorrelationReport(pairs=())
    _require_pair(floats[0], floats[1])  # the checks of pair-by-pair calls, in their order
    for values in floats[2:]:
        _require_columns(values)
    n = len(floats[0])
    rs = _value_correlations(floats)
    rhos = _rank_correlations([_doubled_ranks(values) for values in floats])
    pairs = []
    for (i, j), r in rs.items():
        rho = rhos[i, j]
        p_r = significance(r, n) if n >= 3 else None
        p_rho = significance(rho, n) if n >= 3 else None
        pairs.append(PairCorrelation(a=columns[i][0], b=columns[j][0], n=n, pearson_r=r,
                                     pearson_p=p_r, spearman_rho=rho, spearman_p=p_rho))
    return CorrelationReport(pairs=tuple(pairs))
