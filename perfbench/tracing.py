"""Spans around citetrace's module boundaries, recorded from outside the package.

The tracer replaces the public functions that one citetrace module calls
in another (the names ``citetrace.cli`` imported, such as
``score_entity``, plus the ``partition_from_summary`` that ``indicators``
and ``reference`` reach) with wrappers that record a span: name, start,
end, parent span and call id.  A span's layer is the module that
defines the wrapped function.  Nothing inside the package changes, and
names a future version no longer has are skipped.
"""

from __future__ import annotations

import gzip
import importlib
import time
from collections import Counter
from typing import NamedTuple

BOUNDARIES = {
    "citetrace.cli": (
        "parse_summary_csv", "parse_citations_csv", "parse_json", "parse_metric_csv",
        "partition_from_summary", "partition_from_list", "plausibility_warnings",
        "score_entity", "indicator_values", "rank_entities",
        "correlation_report", "validate_corpus",
    ),
    "citetrace.indicators": ("partition_from_summary", "partition_from_list"),
    "citetrace.reference": ("partition_from_summary", "performance_matrix",
                            "indicator_bundle", "indicator_values"),
    "citetrace.correlation": ("midranks",),
}


def _count_parse(counts: Counter, args, result) -> None:
    counts["datasets.bytes"] += len(args[0]) if args else 0
    counts["datasets.records"] += len(getattr(result, "records", ()))


def _count_warnings(counts: Counter, args, result) -> None:
    counts["partition.warnings"] += len(result)


def _count_pairs(counts: Counter, args, result) -> None:
    counts["correlation.pairs"] += len(getattr(result, "pairs", ()))
    counts["correlation.columns"] += len(args[0]) if args else 0


def _count_cells(counts: Counter, args, result) -> None:
    cells = getattr(result, "cells", ())
    counts["reference.cells_checked"] += len(cells)
    counts["reference.cells_passed"] += sum(1 for cell in cells if cell.passed)


HOOKS = {
    "parse_summary_csv": _count_parse, "parse_citations_csv": _count_parse,
    "parse_json": _count_parse, "parse_metric_csv": _count_parse,
    "plausibility_warnings": _count_warnings,
    "correlation_report": _count_pairs,
    "validate_corpus": _count_cells,
}


class Span(NamedTuple):  # a tuple, so the garbage collector stops tracking it
    name: str  # "<layer>.<function>"
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 for a root
    call: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Installs span-recording wrappers; spans and counts stay in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.call = 0
        self._originals: list[tuple[object, str, object]] = []
        self._wrapped: list[tuple[object, str, object]] = []
        for module_name, attrs in BOUNDARIES.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr, None)
                if not callable(fn) or not getattr(fn, "__module__", "").startswith("citetrace."):
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}"
                self._originals.append((module, attr, fn))
                self._wrapped.append((module, attr, self.wrap(name, fn, HOOKS.get(attr))))

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.call)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, fn in self._wrapped:
            setattr(module, attr, fn)

    def uninstall(self) -> None:
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)

    def take(self) -> tuple[list[Span], Counter]:
        """Spans and counts recorded since the last take; clears both."""
        spans = [Span._make(s) for s in self.spans]
        counts = self.counts.copy()
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_times(spans: list[Span]) -> tuple[Counter, Counter]:
    """(busy ns, self ns) per layer.

    Busy time sums the outermost spans of a layer, children of other
    layers included.  Self time is each span's duration minus the
    durations of its direct children.
    """
    busy, own = Counter(), Counter()
    for span in spans:
        own[span.layer] += span.ns
        if span.parent >= 0:
            own[spans[span.parent].layer] -= span.ns
        parent = span.parent
        while parent >= 0 and spans[parent].layer != span.layer:
            parent = spans[parent].parent
        if parent < 0:
            busy[span.layer] += span.ns
    return busy, own


def write_spans(path, spans: list[Span]) -> None:
    """One span per line: call,index,parent,name,start_ns,end_ns (gzip'd CSV)."""
    with gzip.open(path, "wt", compresslevel=1) as out:
        out.write("call,index,parent,name,start_ns,end_ns\n")
        for index, s in enumerate(spans):
            out.write(f"{s.call},{index},{s.parent},{s.name},{s.start_ns},{s.end_ns}\n")
