"""Core/tail/uncited decomposition of citation records around the h-index.

Sorting a document set by citations (highest first) splits it into three
publication classes: the h-core (the h most-cited documents), the h-tail
(cited documents below the core), and the uncited documents.  Citations
split accordingly into the h^2 core baseline, the excess citations that
core documents collect beyond that baseline, and the tail citations.
Everything here is exact integer arithmetic on immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import ValidationError

__all__ = [
    "CitationList",
    "SummaryRecord",
    "Partition",
    "h_index",
    "partition_from_list",
    "partition_from_summary",
    "summarize",
    "plausibility_warnings",
]


def _require_count(value: int, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{label} must be an integer, got {value!r}")
    if value < 0:
        raise ValidationError(f"{label} must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class CitationList:
    """Per-document citation counts for one entity, in any order."""

    name: str
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("entity name must be non-empty")
        counts = tuple(self.counts)
        if not counts:
            raise ValidationError(f"{self.name}: citation list must contain at least one document")
        for c in counts:
            _require_count(c, f"{self.name}: citation count")
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class SummaryRecord:
    """The five independent numbers that determine the whole decomposition.

    P (total papers), h, Pz (uncited papers), C (total citations) and
    Ch (citations of the h-core) are all that summary exports carry;
    every other class mass is a linear combination of them.  ``group``
    is optional metadata used to scope rankings (e.g. a JCR category).
    """

    name: str
    papers: int
    h: int
    uncited: int
    citations: int
    core_citations: int
    group: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("entity name must be non-empty")
        _validate_summary(self.name, self.papers, self.h, self.uncited,
                          self.citations, self.core_citations)


def _validate_summary(name: str, p: int, h: int, pz: int, c: int, ch: int) -> None:
    """Raise ValidationError naming the first violated invariant."""
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


@dataclass(frozen=True)
class Partition:
    """The six class masses plus totals (P >= 1); all identities hold exactly.

    papers = core_papers + tail_papers + uncited_papers,
    citations = core_base_citations + tail_citations + excess_citations,
    core_base_citations = core_papers^2, and
    core_citations = core_base_citations + excess_citations.
    """

    papers: int
    citations: int
    core_papers: int
    tail_papers: int
    uncited_papers: int
    core_base_citations: int
    excess_citations: int
    tail_citations: int
    core_citations: int

    def __post_init__(self) -> None:
        for label in ("papers", "citations", "core_papers", "tail_papers",
                      "uncited_papers", "core_base_citations", "excess_citations",
                      "tail_citations", "core_citations"):
            _require_count(getattr(self, label), label)
        if self.papers < 1:
            raise ValidationError(f"P must be >= 1, got {self.papers}")
        if self.papers != self.core_papers + self.tail_papers + self.uncited_papers:
            raise ValidationError("P != Pc + Pt + Pz")
        if self.citations != self.core_base_citations + self.tail_citations + self.excess_citations:
            raise ValidationError("C != Cc + Ct + Ce")
        if self.core_base_citations != self.core_papers ** 2:
            raise ValidationError("Cc != Pc^2")
        if self.core_citations != self.core_base_citations + self.excess_citations:
            raise ValidationError("Ch != Cc + Ce")

    @property
    def h(self) -> int:
        """The h-index; identical to the core paper count."""
        return self.core_papers


def _counts_of(source: Union[CitationList, Sequence[int], Iterable[int]]) -> tuple[int, ...]:
    if isinstance(source, CitationList):
        return source.counts
    return CitationList("anonymous", tuple(source)).counts


def h_index(source: Union[CitationList, Sequence[int]]) -> int:
    """Largest h such that at least h documents have at least h citations."""
    return partition_from_list(source).h


def partition_from_list(source: Union[CitationList, Sequence[int]]) -> Partition:
    """Decompose a full citation list.

    Documents tied at the boundary value h may sit in core or tail; the
    core is taken as any h largest counts, which leaves every derived
    quantity unchanged because tied values are equal.
    """
    ranked = sorted(_counts_of(source), reverse=True)
    papers = len(ranked)
    h = 0
    for rank, cites in enumerate(ranked, start=1):
        if cites >= rank:
            h = rank
        else:
            break
    citations = sum(ranked)
    core_citations = sum(ranked[:h])
    uncited = sum(1 for c in ranked if c == 0)
    return Partition(
        papers=papers,
        citations=citations,
        core_papers=h,
        tail_papers=papers - h - uncited,
        uncited_papers=uncited,
        core_base_citations=h * h,
        excess_citations=core_citations - h * h,
        tail_citations=citations - core_citations,
        core_citations=core_citations,
    )


def summarize(source: Union[CitationList, Sequence[int]]) -> SummaryRecord:
    """Collapse a citation list to its five-number summary record."""
    cl = source if isinstance(source, CitationList) else CitationList("anonymous", tuple(source))
    part = partition_from_list(cl)
    return SummaryRecord(
        name=cl.name,
        papers=part.papers,
        h=part.h,
        uncited=part.uncited_papers,
        citations=part.citations,
        core_citations=part.core_citations,
    )


def partition_from_summary(record: SummaryRecord) -> Partition:
    """Derive the full partition from a summary record (validated when built)."""
    h = record.h
    return Partition(
        papers=record.papers,
        citations=record.citations,
        core_papers=h,
        tail_papers=record.papers - h - record.uncited,
        uncited_papers=record.uncited,
        core_base_citations=h * h,
        excess_citations=record.core_citations - h * h,
        tail_citations=record.citations - record.core_citations,
        core_citations=record.core_citations,
    )


def plausibility_warnings(part: Partition) -> list[str]:
    """Soft screen for tail shapes a real document set cannot produce.

    Every cited tail paper carries between 1 and h citations, so the tail
    citation mass must lie in [Pt, h*Pt].  Summary exports that fail this
    are suspicious but not mathematically impossible, hence warnings.
    """
    warnings = []
    if part.tail_citations < part.tail_papers:
        warnings.append(
            f"tail citations below tail paper count "
            f"(Ct={part.tail_citations} < Pt={part.tail_papers}); "
            f"every cited tail paper carries at least one citation"
        )
    if part.tail_citations > part.core_papers * part.tail_papers:
        warnings.append(
            f"tail citations exceed the h*Pt ceiling "
            f"(Ct={part.tail_citations} > {part.core_papers}*{part.tail_papers}"
            f"={part.core_papers * part.tail_papers}); "
            f"no tail paper can carry more than h citations"
        )
    return warnings
