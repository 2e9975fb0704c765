"""Test-side oracles: the class-share weights, the weighted I3 sum and the
trace written directly from class counts.

They restate identities of the scoring kernel in another form, so the
tests can check the kernel against them rather than against itself.
"""

from typing import NamedTuple, Sequence


class Weights(NamedTuple):
    """Each class's share of its own total (0 for the citation side of an uncited set)."""

    pub_core: float
    pub_tail: float
    pub_uncited: float
    cite_core: float
    cite_tail: float
    cite_excess: float


def class_weights(part) -> Weights:
    p = part.papers
    c = part.citations
    if c > 0:
        cites = (part.core_base_citations / c, part.tail_citations / c,
                 part.excess_citations / c)
    else:
        cites = (0.0, 0.0, 0.0)
    return Weights(part.core_papers / p, part.tail_papers / p, part.uncited_papers / p, *cites)


def i3_aggregate(values: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted sum of class masses: I3X and I3Y in share-weighted form."""
    return float(sum(w * v for v, w in zip(values, weights)))


def trace_from_counts(core_papers: int, tail_citations: int, excess_citations: int,
                      uncited_papers: int, papers: int, citations: int) -> float:
    """Pc^2/P + Ct^2/C + (Ce^2/C - Pz^2/P); no citation terms when C = 0.

    Any counts with P >= 1 are accepted, including ones that no
    partition has, so monotonicity can be probed one count at a time.
    """
    core = core_papers ** 2 / papers
    penalty = uncited_papers ** 2 / papers
    if citations > 0:
        tail = tail_citations ** 2 / citations
        excess = excess_citations ** 2 / citations
    else:
        tail = excess = 0.0
    return core + tail + (excess - penalty)
