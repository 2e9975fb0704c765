"""Pearson and Spearman correlation with midrank ties and t-based p-values."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import stdtr

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


def _require_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise DegenerateInput("values must be finite (no NaN or infinity)")


def _paired_arrays(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if ax.shape != ay.shape or ax.ndim != 1:
        raise LengthMismatch(f"paired sequences must match: {ax.shape} vs {ay.shape}")
    if ax.size < 2:
        raise DegenerateInput(f"need at least 2 pairs, got {ax.size}")
    _require_finite(ax)
    _require_finite(ay)
    return ax, ay


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient, clamped into [-1, 1]."""
    ax, ay = _paired_arrays(x, y)
    dx = ax - ax.mean()
    dy = ay - ay.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInput("constant sequence has no defined correlation")
    r = float(dx @ dy) / math.sqrt(sx * sy)
    return max(-1.0, min(1.0, r))


def midranks(values: Sequence[float]) -> np.ndarray:
    """Ranks 1..n with tied values sharing the average of their positions."""
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
    return pearson(midranks(ax), midranks(ay))


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
    return float(2.0 * stdtr(n - 2, -abs(t)))


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
    lengths = {len(values) for _, values in columns}
    if len(lengths) > 1:
        raise LengthMismatch(f"columns differ in length: {sorted(lengths)}")
    pairs = []
    for (name_a, col_a), (name_b, col_b) in itertools.combinations(columns, 2):
        n = len(col_a)
        r = pearson(col_a, col_b)
        rho = spearman(col_a, col_b)
        p_r = significance(r, n) if n >= 3 else None
        p_rho = significance(rho, n) if n >= 3 else None
        pairs.append(PairCorrelation(a=name_a, b=name_b, n=n, pearson_r=r,
                                     pearson_p=p_r, spearman_rho=rho, spearman_p=p_rho))
    return CorrelationReport(pairs=tuple(pairs))
