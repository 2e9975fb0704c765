"""Core/tail/uncited decomposition of citation records around the h-index.

Sorting a document set by citations (highest first) splits it into three
publication classes: the h-core (the h most-cited documents), the h-tail
(cited documents below the core), and the uncited documents.  Citations
split accordingly into the h^2 core baseline, the excess citations that
core documents collect beyond that baseline, and the tail citations.
Five integers (P, h, Pz, C, Ch) determine every class mass; a
``SummaryRecord`` holds them and derives the rest.  Everything here is
exact integer arithmetic on immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ValidationError

__all__ = [
    "SummaryRecord",
    "h_index",
    "summarize",
    "plausibility_warnings",
]


def _require_count(value: int, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{label} must be an integer, got {value!r}")
    if value < 0:
        raise ValidationError(f"{label} must be >= 0, got {value}")
    return value


@dataclass(frozen=True, slots=True)
class SummaryRecord:
    """The five independent numbers that determine the whole decomposition.

    P (total papers), h, Pz (uncited papers), C (total citations) and
    Ch (citations of the h-core) are all that summary exports carry;
    every other class mass is a linear combination of them, so the
    identities P = h + Pt + Pz and C = h^2 + Ce + Ct hold by
    construction.  ``group`` is optional metadata used to scope
    rankings (e.g. a JCR category).
    """

    name: str
    papers: int
    h: int
    uncited: int
    citations: int
    core_citations: int
    group: str | None = None

    def __post_init__(self) -> None:
        """Raise ValidationError naming the first violated invariant."""
        name, p, h, pz, c, ch = (self.name, self.papers, self.h, self.uncited,
                                 self.citations, self.core_citations)
        if not name:
            raise ValidationError("entity name must be non-empty")
        _require_count(p, f"{name}: P")
        _require_count(h, f"{name}: h")
        _require_count(pz, f"{name}: Pz")
        _require_count(c, f"{name}: C")
        _require_count(ch, f"{name}: Ch")
        if p < 1:
            raise ValidationError(f"{name}: P must be >= 1, got {p}")
        if h > p:
            raise ValidationError(f"{name}: h > P ({h} > {p})")
        if pz > p - h:
            raise ValidationError(f"{name}: Pz > P - h ({pz} > {p - h}); cited papers must number at least h")
        if ch < h * h:
            raise ValidationError(f"{name}: Ch < h^2 ({ch} < {h * h}); each core paper has >= h citations")
        if ch > c:
            raise ValidationError(f"{name}: Ch > C ({ch} > {c})")
        if h == 0 and (c != 0 or ch != 0):
            raise ValidationError(f"{name}: h = 0 requires C = 0 and Ch = 0 (got C={c}, Ch={ch})")

    @property
    def tail_papers(self) -> int:
        """Pt = P - h - Pz: cited papers below the core."""
        return self.papers - self.h - self.uncited

    @property
    def excess_citations(self) -> int:
        """Ce = Ch - h^2: core citations beyond the h^2 baseline."""
        return self.core_citations - self.h * self.h

    @property
    def tail_citations(self) -> int:
        """Ct = C - Ch: citations of the tail papers."""
        return self.citations - self.core_citations


def h_index(counts: Iterable[int]) -> int:
    """Largest h such that at least h documents have at least h citations."""
    return summarize(counts).h


def summarize(counts: Iterable[int], name: str = "anonymous") -> SummaryRecord:
    """Collapse one entity's per-document citation counts to its summary record.

    The counts must be non-empty integers >= 0, in any order; the first
    bad count in input order is the one reported.  Documents tied at the
    boundary value h may sit in core or tail; the core is taken as any h
    largest counts, which leaves every derived quantity unchanged because
    tied values are equal.
    """
    if not name:
        raise ValidationError("entity name must be non-empty")
    ranked = list(counts)
    if not ranked:
        raise ValidationError(f"{name}: citation list must contain at least one document")
    if not (set(map(type, ranked)) <= {int} and min(ranked) >= 0):
        for c in ranked:
            _require_count(c, f"{name}: citation count")
    ranked.sort(reverse=True)
    h = 0
    for rank, cites in enumerate(ranked, start=1):
        if cites >= rank:
            h = rank
        else:
            break
    return SummaryRecord(name=name, papers=len(ranked), h=h, uncited=ranked.count(0),
                         citations=sum(ranked), core_citations=sum(ranked[:h]))


def plausibility_warnings(record: SummaryRecord) -> list[str]:
    """Soft screen for tail shapes a real document set cannot produce.

    Every cited tail paper carries between 1 and h citations, so the tail
    citation mass must lie in [Pt, h*Pt].  Summary exports that fail this
    are suspicious but not mathematically impossible, hence warnings.
    """
    warnings = []
    h, pt, ct = record.h, record.tail_papers, record.tail_citations
    if ct < pt:
        warnings.append(
            f"tail citations below tail paper count "
            f"(Ct={ct} < Pt={pt}); "
            f"every cited tail paper carries at least one citation"
        )
    if ct > h * pt:
        warnings.append(
            f"tail citations exceed the h*Pt ceiling "
            f"(Ct={ct} > {h}*{pt}={h * pt}); "
            f"no tail paper can carry more than h citations"
        )
    return warnings
