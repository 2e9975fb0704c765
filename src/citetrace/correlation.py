"""Pearson and Spearman correlation with midrank ties and t-based p-values."""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import DegenerateInput, LengthMismatch

# numpy is imported inside the functions that use it, so that commands
# which do not correlate start without it.
if TYPE_CHECKING:
    import numpy as np

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


def _require_finite(values: np.ndarray) -> None:
    import numpy as np

    if not np.isfinite(values).all():
        raise DegenerateInput("values must be finite (no NaN or infinity)")


def _require_pair(ax: np.ndarray, ay: np.ndarray) -> None:
    if ax.shape != ay.shape or ax.ndim != 1:
        raise LengthMismatch(f"paired sequences must match: {ax.shape} vs {ay.shape}")
    if ax.size < 2:
        raise DegenerateInput(f"need at least 2 pairs, got {ax.size}")


def _paired_arrays(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    _require_pair(ax, ay)
    _require_finite(ax)
    _require_finite(ay)
    return ax, ay


def _unit_scaled(values: np.ndarray) -> np.ndarray:
    """values times the power of two that brings the largest magnitude into
    [0.5, 1).  The scaling is exact, so it changes no coefficient whose
    sums neither overflow nor underflow, and keeps the others finite."""
    import numpy as np

    return np.ldexp(values, -math.frexp(float(np.abs(values).max()))[1])


def _centred(values: np.ndarray) -> tuple[np.ndarray, float]:
    """The unit-scaled column minus its mean, d, and its sum of squares d @ d."""
    scaled = _unit_scaled(values)
    d = scaled - scaled.mean()
    return d, float(d @ d)


def _coefficient(x: tuple[np.ndarray, float], y: tuple[np.ndarray, float]) -> float:
    """Pearson r of two ``_centred`` columns, clamped into [-1, 1]."""
    (dx, sx), (dy, sy) = x, y
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInput("constant sequence has no defined correlation")
    r = float(dx @ dy) / math.sqrt(sx * sy)
    return max(-1.0, min(1.0, r))


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient, clamped into [-1, 1]."""
    ax, ay = _paired_arrays(x, y)
    return _coefficient(_centred(ax), _centred(ay))


def midranks(values: Sequence[float]) -> np.ndarray:
    """Ranks 1..n with tied values sharing the average of their positions."""
    import numpy as np

    v = np.asarray(values, dtype=float)
    _require_finite(v)
    order = np.argsort(v, kind="mergesort")
    ordered = v[order]
    # each run of tied values fills sorted positions start .. end-1 and
    # shares the average of ranks start+1 .. end
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], v.size]
    ranks = np.empty(v.size, dtype=float)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rho: the Pearson correlation of the midranks."""
    ax, ay = _paired_arrays(x, y)
    return _coefficient(_centred(midranks(ax)), _centred(midranks(ay)))


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


@dataclass(frozen=True)
class PairCorrelation:
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


@dataclass(frozen=True)
class CorrelationReport:
    """All pairwise correlations for a set of named metric columns."""

    pairs: tuple[PairCorrelation, ...]


def correlation_report(columns: Sequence[tuple[str, Sequence[float]]]) -> CorrelationReport:
    """Correlate every pair of the given (name, values) columns.

    Columns must already be joined: the i-th element of every column
    belongs to the same entity.  p-values are reported only for n >= 3.
    """
    import numpy as np

    lengths = {len(values) for _, values in columns}
    if len(lengths) > 1:
        raise LengthMismatch(f"columns differ in length: {sorted(lengths)}")
    arrays = [np.asarray(values, dtype=float) for _, values in columns]

    @functools.cache
    def prepared(i: int) -> tuple[tuple[np.ndarray, float], tuple[np.ndarray, float]]:
        # once per column, on the first pair that needs it, so that errors come
        # in the order per-pair pearson and spearman calls would raise them
        ranks = midranks(arrays[i])  # rejects NaN and infinity
        return _centred(arrays[i]), _centred(ranks)

    pairs = []
    for i, j in itertools.combinations(range(len(columns)), 2):
        _require_pair(arrays[i], arrays[j])
        (values_a, ranks_a), (values_b, ranks_b) = prepared(i), prepared(j)
        n = len(arrays[i])
        r = _coefficient(values_a, values_b)
        rho = _coefficient(ranks_a, ranks_b)
        p_r = significance(r, n) if n >= 3 else None
        p_rho = significance(rho, n) if n >= 3 else None
        pairs.append(PairCorrelation(a=columns[i][0], b=columns[j][0], n=n, pearson_r=r,
                                     pearson_p=p_r, spearman_rho=rho, spearman_p=p_rho))
    return CorrelationReport(pairs=tuple(pairs))
