"""citetrace: h-index core/tail analytics for publication/citation records.

Summarizes a document set as five numbers (P, h, Pz, C, Ch), which
fix its h-core, h-tail and uncited classes, then scores that record in
one step: the academic vectors X, Y and Z (the rows of the 3x3
performance matrix), the academic trace T and the I3X/I3Y weighted
indicators, as one ``Scores`` row.
Includes deterministic ranking, Pearson/Spearman correlation with
significance levels, dataset parsing, and a bundled reference corpus
with golden expected values.
"""

from .correlation import (
    CorrelationReport,
    PairCorrelation,
    correlation_report,
    midranks,
    pearson,
    significance,
    spearman,
    stars,
)
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
from .indicators import INDICATOR_KEYS, Scores, score
from .partition import (
    SummaryRecord,
    h_index,
    plausibility_warnings,
    summarize,
)
from .ranking import rank_entities
from .reference import (
    ReferenceCorpus,
    ReferenceReport,
    journals_dataset,
    matches_displayed,
    reference_corpus,
    units_dataset,
    validate_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "SummaryRecord",
    "h_index",
    "summarize",
    "plausibility_warnings",
    "INDICATOR_KEYS",
    "Scores",
    "score",
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
