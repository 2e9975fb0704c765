"""Pearson and Spearman correlation with midrank ties and t-based p-values.

Coefficients are exact until one final rounding.  A finite float is a
dyadic rational, so a column over its largest power-of-two denominator
is a list of integers, and num = n*Sxy - Sx*Sy, dx = n*Sxx - Sx^2 and
dy = n*Syy - Sy^2 are exact integers that cannot overflow.  r^2 =
num^2/(dx*dy) is one correctly rounded division, taken at a power-of-four
scale that keeps it a normal float even for |r| < 2^-511, and |r| is its
square root.  So pearson r and spearman rho are within one unit in the
last place of the exact coefficient of their input floats, for finite
input of any magnitude; only an |r| below 2^-1022, itself subnormal, is
rounded a second time.  A column is constant exactly when its dx is 0;
such columns are rejected as floats, before any sum is taken.

Every Sxx and Sxy comes from one Gram kernel (Kronecker substitution): with
|x| < 2^L over n rows, each sum fits a signed field of B = 2L + bits(n) + 2
bits, so summing x_c * (x_c + x_(c+1)*2^B + ...) over the rows gives Sxy for
every later y, exactly, from one multiply per row.  Packs are capped at 4096
bits, past which the doubled digit work outweighs the per-integer overhead
saved, so columns wider than about 2000 bits are multiplied pairwise.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from typing import NamedTuple, Sequence

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


def _require_finite(values: list[float]) -> None:
    if not all(map(math.isfinite, values)):
        raise DegenerateInput("values must be finite (no NaN or infinity)")


def _require_columns(*columns: list[float]) -> None:
    """Every column finite, then every (non-empty) column not constant."""
    for values in columns:
        _require_finite(values)
    for values in columns:
        if values.count(values[0]) == len(values):
            raise DegenerateInput("constant sequence has no defined correlation")


def _require_pair(x: list[float], y: list[float]) -> None:
    if len(x) != len(y):
        raise LengthMismatch(f"paired sequences must match: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise DegenerateInput(f"need at least 2 pairs, got {len(x)}")
    _require_columns(x, y)


def _paired(x: Sequence[float], y: Sequence[float]) -> tuple[list[float], list[float]]:
    fx, fy = list(map(float, x)), list(map(float, y))
    _require_pair(fx, fy)
    return fx, fy


def _exact(column: list[float]) -> list[int]:
    """The finite column times its largest power-of-two denominator."""
    ratios = [v.as_integer_ratio() for v in column]
    bits = max(d for _, d in ratios).bit_length()
    return [m << (bits - d.bit_length()) for m, d in ratios]


_PACK_BITS = 4096  # widest row pack (see the module docstring)
_PACK_ROWS = 256  # rows packed at a time, which bounds the packs' memory


def _gram(columns: list[list[int]]) -> dict[tuple[int, int], int]:
    """sum(x_i * x_j) for every i <= j of equal-length integer columns."""
    n = len(columns[0])
    width = max(v.bit_length() for xs in columns for v in (min(xs), max(xs)))
    field = 2 * width + n.bit_length() + 2  # holds any sum of n products, with its sign
    size = max(1, min(len(columns), _PACK_BITS // field))
    groups = [range(a, min(a + size, len(columns))) for a in range(0, len(columns), size)]
    packed = {(c, g): 0 for g in groups for c in range(g.stop)}
    for start in range(0, n, _PACK_ROWS):
        rows = [xs[start:start + _PACK_ROWS] for xs in columns]
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
    return gram


def _coefficient(n: int, sx: int, sxx: int, sy: int, syy: int, sxy: int) -> float:
    """Pearson r of two non-constant columns of n integers, from exact sums."""
    dx, dy = n * sxx - sx * sx, n * syy - sy * sy
    num = n * sxy - sx * sy
    square, bound = num * num, dx * dy  # square <= bound: Cauchy-Schwarz
    k = (bound.bit_length() - square.bit_length()) // 2  # |r| is about 2^-k
    r = math.ldexp(math.sqrt((square << 2 * k) / bound), -k)
    return -r if num < 0 else r


def _coefficients(columns: list[list[int]]) -> dict[tuple[int, int], float]:
    """Pearson r of every pair i < j of non-constant integer columns."""
    n, sums, gram = len(columns[0]), list(map(sum, columns)), _gram(columns)
    return {(i, j): _coefficient(n, sums[i], gram[i, i], sums[j], gram[j, j], gram[i, j])
            for i, j in itertools.combinations(range(len(columns)), 2)}


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient, rounded from its exact value."""
    fx, fy = _paired(x, y)
    return _coefficients([_exact(fx), _exact(fy)])[0, 1]


def _doubled_ranks(values: list[float]) -> list[int]:
    """Twice the midranks of finite values, as exact integers: a run of ties
    at sorted positions start .. end-1 shares the midrank (start+end+1)/2.
    NaN would break the sort's order, so every caller checks first."""
    ends = {x: i + 1 for i, x in enumerate(sorted(values))}  # ascending, one past each tie run
    rank, start = {}, 0
    for x, end in ends.items():  # x fills sorted positions start .. end-1
        rank[x], start = start + end + 1, end
    return [rank[x] for x in values]


def midranks(values: Sequence[float]) -> list[float]:
    """Ranks 1..n with tied values sharing the average of their positions."""
    floats = list(map(float, values))
    _require_finite(floats)
    return [0.5 * r for r in _doubled_ranks(floats)]


# rho comes from the doubled ranks: the exact column of the midranks is either
# them or half of them, and _coefficient gives the same float for a column
# scaled by a power of two.
def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rho: the Pearson correlation of the midranks."""
    fx, fy = _paired(x, y)
    return _coefficients([_doubled_ranks(fx), _doubled_ranks(fy)])[0, 1]


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
    floats = [list(map(float, values)) for _, values in columns]
    if len(floats) < 2:
        return CorrelationReport(pairs=())
    _require_pair(floats[0], floats[1])  # the checks of pair-by-pair calls, in their order
    for values in floats[2:]:
        _require_columns(values)
    n = len(floats[0])
    rs = _coefficients(list(map(_exact, floats)))
    rhos = _coefficients(list(map(_doubled_ranks, floats)))
    pairs = []
    for (i, j), r in rs.items():
        rho = rhos[i, j]
        p_r = significance(r, n) if n >= 3 else None
        p_rho = significance(rho, n) if n >= 3 else None
        pairs.append(PairCorrelation(a=columns[i][0], b=columns[j][0], n=n, pearson_r=r,
                                     pearson_p=p_r, spearman_rho=rho, spearman_p=p_rho))
    return CorrelationReport(pairs=tuple(pairs))
