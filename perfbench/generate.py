"""Seeded synthetic inputs for the citetrace benchmark.

Everything here is a pure function of the seed: the same seed gives the
same bytes.  Citation lists are drawn per document; summary rows are
derived from those lists by exact integer counting (not through
citetrace), and then a stated share of them is perturbed so that the
plausibility-warning path runs as it does on the bundled corpus.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

# Share of summary rows whose tail citations are pushed outside [Pt, h*Pt].
# The bundled corpus has 1 such row in 86; a naive independent draw of the
# five numbers would make almost every row warn instead.
PERTURBED_SHARE = 0.02

METRICS = ("IF", "usage", "age")

_NORMAL = NormalDist()


def _rng(seed: int, stream: int) -> np.random.Generator:
    """An independent generator per input kind; any integer seed is accepted."""
    return np.random.default_rng([seed % 2**64, stream])


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i:06d}" for i in range(n)]


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform draws, one from each of n equal-probability strata, shuffled.

    Heavy-tailed quantities drawn through these keep their tails, but
    their sums barely move with the seed, so input sizes (and run times)
    do not depend on the seed.
    """
    return (rng.permutation(n) + rng.random(n)) / n


def _lognormal(u: np.ndarray, median: float, sigma: float) -> np.ndarray:
    return median * np.exp(sigma * np.array([_NORMAL.inv_cdf(x) for x in u.tolist()]))


def citation_lists(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """Per-document citation counts for n entities, heavy-tailed on both axes.

    35 % of the entities are author-sized (P < 40); the rest draw P from
    a lognormal with a long tail, capped at 3000.  Per-document counts
    are Poisson around a lognormal rate scaled by an entity-level impact,
    with an entity-level share of documents left uncited.
    """
    small = np.zeros(n, dtype=bool)
    small[rng.permutation(n)[:round(0.35 * n)]] = True
    u = _stratified(rng, n)
    sizes = np.where(small, 1 + np.floor(39 * u),
                     np.minimum(3000, np.ceil(_lognormal(u, 60, 1.1)))).astype(np.int64)
    impact = _lognormal(_stratified(rng, n), 2.5, 1.0)
    uncited_share = rng.uniform(0.0, 0.4, n)
    owner = np.repeat(np.arange(n), sizes)
    counts = rng.poisson(impact[owner] * rng.lognormal(0.0, 1.3, owner.size))
    counts[rng.random(owner.size) < uncited_share[owner]] = 0
    return np.split(counts.astype(np.int64), np.cumsum(sizes)[:-1])


def summarize(lists: list[np.ndarray]) -> np.ndarray:
    """Exact (P, h, Pz, C, Ch) per list as an int64 array of shape (n, 5)."""
    sizes = np.array([lst.size for lst in lists], dtype=np.int64)
    owner = np.repeat(np.arange(len(lists)), sizes)
    counts = np.concatenate(lists)
    ranked = counts[np.lexsort((-counts, owner))]  # by entity, then count descending
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    rank = np.arange(ranked.size) - np.repeat(starts, sizes) + 1
    in_core = ranked >= rank  # true on a prefix of each entity's sorted list
    per_entity = lambda values: np.add.reduceat(values.astype(np.int64), starts)  # noqa: E731
    return np.stack([sizes, per_entity(in_core), per_entity(ranked == 0), per_entity(ranked),
                     per_entity(np.where(in_core, ranked, 0))], axis=1)


def perturb(rng: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    """Move PERTURBED_SHARE of the rows' tail citations outside [Pt, h*Pt].

    Only C changes, so every hard invariant (h <= P, Pz <= P - h,
    h^2 <= Ch <= C, h = 0 => C = Ch = 0) still holds.
    """
    rows = rows.copy()
    p, h, pz, c, ch = rows.T
    pt = p - h - pz
    eligible = np.flatnonzero((h >= 1) & (pt >= 2))
    picked = rng.choice(eligible, size=min(eligible.size, round(PERTURBED_SHARE * len(rows))),
                        replace=False)
    for i, row in enumerate(np.sort(picked)):
        if i % 2:  # above the h*Pt ceiling
            tail = h[row] * pt[row] + 1 + rng.integers(0, h[row] * pt[row] + 1)
        else:  # below the Pt floor
            tail = rng.integers(0, pt[row])
        rows[row, 3] = ch[row] + tail
    return rows


def metric_values(rng: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    """Three external metrics per entity, loosely tied to its size and impact."""
    p, h, _, c, _ = rows.T.astype(float)
    n = len(rows)
    return np.stack([
        (c + 1.0) / p * rng.lognormal(0.0, 0.3, n),
        (h + 1.0) * rng.lognormal(0.0, 0.8, n),
        rng.uniform(1.0, 40.0, n),
    ], axis=1)


def summary_csv(names: list[str], rows: np.ndarray) -> bytes:
    lines = ["name,P,h,Pz,C,Ch"]
    lines += [f"{name},{p},{h},{pz},{c},{ch}" for name, (p, h, pz, c, ch) in zip(names, rows.tolist())]
    return ("\n".join(lines) + "\n").encode()


def citations_csv(names: list[str], lists: list[np.ndarray]) -> bytes:
    lines = ["name,citations"]
    lines += [f"{name},{';'.join(map(str, lst.tolist()))}" for name, lst in zip(names, lists)]
    return ("\n".join(lines) + "\n").encode()


def metric_csv(names: list[str], values: np.ndarray) -> bytes:
    lines = ["name," + ",".join(METRICS)]
    lines += [name + "," + ",".join(repr(v) for v in row) for name, row in zip(names, values.tolist())]
    return ("\n".join(lines) + "\n").encode()


def summary_dataset(seed: int, n: int):
    """(names, rows, summary CSV bytes, metric CSV bytes); rows are the exact inputs."""
    rng = _rng(seed, 1)
    names = _names("s", n)
    rows = perturb(rng, summarize(citation_lists(rng, n)))
    return names, rows, summary_csv(names, rows), metric_csv(names, metric_values(rng, rows))


def citations_dataset(seed: int, n: int):
    """(names, rows, citations CSV bytes, metric CSV bytes); rows are exact summaries."""
    rng = _rng(seed, 2)
    names = _names("c", n)
    lists = citation_lists(rng, n)
    rows = summarize(lists)
    return names, rows, citations_csv(names, lists), metric_csv(names, metric_values(rng, rows))


def corpus_metrics(seed: int, names: list[str], rows) -> bytes:
    """A metric file keyed by the bundled corpus's entity names."""
    return metric_csv(names, metric_values(_rng(seed, 3), np.asarray(rows)))
