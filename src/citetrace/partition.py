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

from itertools import islice
from operator import add, ge, le, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

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


class _Fields(NamedTuple):
    name: str
    papers: int
    h: int
    uncited: int
    citations: int
    core_citations: int
    group: str | None = None


class SummaryRecord(_Fields):
    """The five independent numbers that determine the whole decomposition.

    P (total papers), h, Pz (uncited papers), C (total citations) and
    Ch (citations of the h-core) are all that summary exports carry;
    every other class mass is a linear combination of them, so the
    identities P = h + Pt + Pz and C = h^2 + Ce + Ct hold by
    construction.  ``group`` is optional metadata used to scope
    rankings (e.g. a JCR category).  A record is a named tuple, checked
    however it is built: by a call, ``_make``, ``_replace``, copy or
    unpickling.
    """

    __slots__ = ()

    def __new__(cls, name: str, papers: int, h: int, uncited: int, citations: int,
                core_citations: int, group: str | None = None) -> SummaryRecord:
        """Raise ValidationError naming the first violated invariant."""
        p, pz, c, ch = papers, uncited, citations, core_citations
        if not name:
            raise ValidationError("entity name must be non-empty")
        if not isinstance(name, str):
            raise ValidationError(f"entity name must be a string, got {name!r}")
        # one test passes valid counts; only a failure builds labels to name the first bad one
        if not (type(p) is type(h) is type(pz) is type(c) is type(ch) is int
                and min(p, h, pz, c, ch) >= 0):
            for value, label in zip((p, h, pz, c, ch), ("P", "h", "Pz", "C", "Ch")):
                _require_count(value, f"{name}: {label}")
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
        return tuple.__new__(cls, (name, p, h, pz, c, ch, group))

    @classmethod
    def _make(cls, iterable: Iterable) -> SummaryRecord:
        """A record of the fields in iterable, checked; ``_replace`` builds through it."""
        return cls(*iterable)

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
    return SummaryRecord(name, *ranked_summary(ranked))


def ranked_summary(ranked: list[int]) -> tuple[int, int, int, int, int]:
    """(P, h, Pz, C, Ch) of a non-empty list of citation counts >= 0 sorted
    highest first."""
    h = 0
    for rank, cites in enumerate(ranked, start=1):
        if cites >= rank:
            h = rank
        else:
            break
    return len(ranked), h, ranked.count(0), sum(ranked), sum(ranked[:h])


def columns_valid(names: Sequence[str], ps: Sequence[int], hs: Sequence[int],
                  pzs: Sequence[int], cs: Sequence[int], chs: Sequence[int]) -> bool:
    """Whether ``SummaryRecord`` accepts every row of these columns of
    string names and integers: each invariant its ``__new__`` checks, tested
    over whole columns at once.  It names no row; the record checks name the
    first bad one."""
    return (all(names) and min(ps) >= 1 and min(hs) >= 0 and min(pzs) >= 0
            and min(cs) >= 0 and min(chs) >= 0
            and all(map(le, hs, ps))
            and all(map(le, map(add, hs, pzs), ps))
            and all(map(ge, chs, map(mul, hs, hs)))
            and all(map(le, chs, cs))
            # C <= h*C, given h, C >= 0, holds for h >= 1 and means C = 0 for
            # h = 0; Ch = 0 then follows from 0 <= Ch <= C
            and all(map(le, cs, map(mul, hs, cs))))


def record_columns(records: Sequence[SummaryRecord]) -> tuple[list, ...]:
    """The records as the columns (names, P, h, Pz, C, Ch)."""
    return ([r.name for r in records], [r.papers for r in records], [r.h for r in records],
            [r.uncited for r in records], [r.citations for r in records],
            [r.core_citations for r in records])


# Rows read, checked, scored, written and correlated at a time: a chunk's lists
# live that long only.
_CHUNK_ROWS = 256


def chunks(rows: Iterable) -> Iterator[list]:
    """The rows in lists of ``_CHUNK_ROWS``, in order; the last may be shorter."""
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        yield chunk


def column_chunks(records: Iterable[SummaryRecord]) -> Iterator[tuple[list, ...]]:
    """The records' ``chunks``, each as its columns (names, P, h, Pz, C, Ch)."""
    return map(record_columns, chunks(records))


# A number whose text would be longer than this many characters (digits,
# for an integer) is written in exponent notation.
_FIXED_WIDTH = 128


def _count_text(count: int) -> str:
    """A count >= 0 in full, or past ``_FIXED_WIDTH`` digits to 4 figures as
    ``"%.3e"`` writes a float, rounded half to even in integers: a count
    such as 10**400 is past the float range."""
    text = str(count)
    if len(text) <= _FIXED_WIDTH:
        return text
    text = str(round(count, 4 - len(text)))  # the rounding may carry into one more digit
    return f"{text[0]}.{text[1:4]}e+{len(text) - 1}"


def column_warnings(names: Sequence[str], ps: Sequence[int], hs: Sequence[int],
                    pzs: Sequence[int], cs: Sequence[int],
                    chs: Sequence[int]) -> list[tuple[str, str]]:
    """The plausibility warnings of valid rows given as columns, as (name,
    warning) pairs in row order; see ``plausibility_warnings``.  A count
    past ``_FIXED_WIDTH`` digits is written in exponent notation."""
    warnings = []
    for name, p, h, pz, c, ch in zip(names, ps, hs, pzs, cs, chs):
        pt, ct = p - h - pz, c - ch
        if ct < pt:
            warnings.append((name, f"tail citations below tail paper count "
                                   f"(Ct={_count_text(ct)} < Pt={_count_text(pt)}); "
                                   f"every cited tail paper carries at least one citation"))
        if ct > h * pt:
            warnings.append((name, f"tail citations exceed the h*Pt ceiling "
                                   f"(Ct={_count_text(ct)} > {_count_text(h)}*{_count_text(pt)}"
                                   f"={_count_text(h * pt)}); "
                                   f"no tail paper can carry more than h citations"))
    return warnings


def plausibility_warnings(record: SummaryRecord) -> list[str]:
    """Soft screen for tail shapes a real document set cannot produce.

    Every cited tail paper carries between 1 and h citations, so the tail
    citation mass must lie in [Pt, h*Pt].  Summary exports that fail this
    are suspicious but not mathematically impossible, hence warnings.
    """
    return [warning for _, warning in column_warnings(*record_columns([record]))]
