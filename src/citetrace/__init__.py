"""citetrace: h-index core/tail analytics for publication/citation records.

Summarizes a document set as five numbers (P, h, Pz, C, Ch), which
fix its h-core, h-tail and uncited classes, then scores that record in
one step: the academic vectors X, Y and Z (the rows of the 3x3
performance matrix), the academic trace T and the I3X/I3Y weighted
indicators, as one ``Scores`` row (or a whole set of records as the
columns of one ``ScoreTable``).
Includes deterministic ranking, Pearson/Spearman correlation with
significance levels, dataset parsing, and a bundled reference corpus
with golden expected values.
"""

from .datasets import (
    DatasetFile,
    MetricTable,
    dataset_to_csv,
    dataset_to_json,
    parse_citations_csv,
    parse_json,
    parse_metric_csv,
    parse_summary_csv,
)
from .errors import (
    CitetraceError,
    DegenerateInput,
    DuplicateEntity,
    JoinError,
    LengthMismatch,
    ParseError,
    UnknownIndicator,
    ValidationError,
)
from .indicators import INDICATOR_KEYS, Scores, ScoreTable, score, score_table
from .partition import (
    SummaryRecord,
    h_index,
    plausibility_warnings,
    summarize,
)
from .ranking import rank_entities

__version__ = "0.1.0"

# Loaded on first use (PEP 562): only the bundled corpus needs the
# reference module, and importing it costs more than any other module;
# only correlate needs the correlation module.
_CORRELATION_NAMES = {
    "CorrelationReport",
    "PairCorrelation",
    "correlation_report",
    "midranks",
    "pearson",
    "significance",
    "spearman",
    "stars",
}
_REFERENCE_NAMES = {
    "ReferenceCorpus",
    "ReferenceReport",
    "journals_dataset",
    "matches_displayed",
    "reference_corpus",
    "units_dataset",
    "validate_corpus",
}


def __getattr__(name: str):
    if name in _CORRELATION_NAMES:
        from . import correlation

        return getattr(correlation, name)
    if name in _REFERENCE_NAMES:
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SummaryRecord",
    "h_index",
    "summarize",
    "plausibility_warnings",
    "INDICATOR_KEYS",
    "Scores",
    "ScoreTable",
    "score",
    "score_table",
    "rank_entities",
    "pearson",
    "spearman",
    "midranks",
    "significance",
    "stars",
    "PairCorrelation",
    "CorrelationReport",
    "correlation_report",
    "DatasetFile",
    "MetricTable",
    "parse_summary_csv",
    "parse_citations_csv",
    "parse_json",
    "parse_metric_csv",
    "dataset_to_csv",
    "dataset_to_json",
    "ReferenceCorpus",
    "ReferenceReport",
    "reference_corpus",
    "journals_dataset",
    "units_dataset",
    "matches_displayed",
    "validate_corpus",
    "CitetraceError",
    "ValidationError",
    "ParseError",
    "DuplicateEntity",
    "LengthMismatch",
    "DegenerateInput",
    "UnknownIndicator",
    "JoinError",
]
