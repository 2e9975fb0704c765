"""Command-line interface: compute, rank, correlate, validate-reference, plot-data.

Output is fully deterministic: identical inputs and flags produce
byte-identical bytes (no timestamps, '.' as the decimal point).  Human
tables round to a configurable number of significant figures; csv and
json output never rounds.  Exit codes: 0 success, 1 validation or
comparison failure, 2 usage error.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import click

from .correlation import correlation_report
from .datasets import (
    DatasetFile,
    MetricTable,
    parse_citations_csv,
    parse_json,
    parse_metric_csv,
    parse_summary_csv,
)
from .errors import CitetraceError, JoinError, ParseError, ValidationError
from .indicators import INDICATOR_KEYS, Scores, score
from .partition import plausibility_warnings
from .ranking import rank_entities
from .reference import journals_dataset, units_dataset, validate_corpus

_FORMATS = ("summary", "citations", "json")
_OUTPUTS = ("table", "csv", "json")
_CORPUS_INPUTS = {
    "corpus": journals_dataset,
    "corpus:journals": journals_dataset,
    "corpus:units": units_dataset,
}


def _load_dataset(input_: str, format_: str | None) -> DatasetFile:
    if input_ in _CORPUS_INPUTS:
        return _CORPUS_INPUTS[input_]()
    path = Path(input_)
    if not path.is_file():
        raise click.UsageError(f"input file not found: {input_}")
    data = path.read_bytes()
    if format_ is None:
        format_ = "json" if path.suffix.lower() == ".json" else "summary"
    if format_ == "summary":
        return parse_summary_csv(data, source=str(path))
    if format_ == "citations":
        return parse_citations_csv(data, source=str(path))
    return parse_json(data, source=str(path))


def _load_metrics(path_str: str) -> MetricTable:
    path = Path(path_str)
    if not path.is_file():
        raise click.UsageError(f"metric file not found: {path_str}")
    metrics = parse_metric_csv(path.read_bytes(), source=str(path))
    for metric in metrics.metrics:
        if metric in INDICATOR_KEYS:
            # it would be shadowed by the indicator in correlate and plot-data
            raise ParseError(f"metric CSV column {metric!r} has the name of an indicator")
    return metrics


def _select_group(dataset: DatasetFile, group: str | None) -> tuple:
    if not dataset.records:
        raise ValidationError("no records in input")
    if group is None:
        return dataset.records
    wanted = group.lower()
    selected = tuple(r for r in dataset.records if r.group and r.group.lower() == wanted)
    if not selected:
        raise ValidationError(f"no records in group {group!r}")
    return selected


def _score_records(records, warn: bool = False) -> list[Scores]:
    """Score every record; with warn, also print each record's plausibility
    warnings."""
    scores = []
    for rec in records:
        if warn:
            for warning in plausibility_warnings(rec):
                click.echo(f"warning: {rec.name}: {warning}", err=True)
        scores.append(score(rec))
    return scores


def _format_sig(value: float, figures: int) -> str:
    """Fixed-notation rounding to significant figures (tables only)."""
    if value == 0 or not math.isfinite(value):
        return str(value)
    digits = figures - 1 - math.floor(math.log10(abs(value)))
    if digits > 0:
        # formatting rounds the exact binary value half to even, as round() would
        return f"{value:.{digits}f}"
    # Round to a multiple of 10**-digits, half to even, in integers: round()
    # raises OverflowError when the result passes the float maximum.
    scale = 10 ** -digits
    num, den = value.as_integer_ratio()
    quotient, rest = divmod(num, den * scale)
    if 2 * rest > den * scale or (2 * rest == den * scale and quotient % 2):
        quotient += 1
    rounded = quotient * scale
    try:
        return f"{float(rounded):.0f}"
    except OverflowError:
        return str(rounded)


def _encode(column: Sequence, encoders: dict, kinds: set | None = None) -> list[str]:
    """Each cell's text: one encoder call per column when the column holds one
    type; ``kinds`` is the set of its cells' types, if the caller has it."""
    if kinds is None:
        kinds = set(map(type, column))
    if len(kinds) == 1:
        return encoders[next(iter(kinds))](column)
    return [encoders[type(v)]((v,))[0] for v in column]


_BLOCK_ROWS = 1024  # report rows encoded and written per chunk


def _blocks(rows: Sequence, project: Callable | None = None) -> Iterator[Sequence]:
    """rows in slices of ``_BLOCK_ROWS``; ``project(block, start)`` turns each
    slice into its report rows, so a projection never exists for every row at once."""
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        yield block if project is None else project(block, start)


def _write_table(headers: Sequence[str], rows: Sequence[Sequence], figures: int,
                 project: Callable | None = None) -> Iterator[str]:
    """The table's text in chunks: every block's columns are formatted first,
    since the widths depend on every cell; then the lines are laid out a
    block at a time.  Until its layout a block keeps a column that holds
    strings as the list of the rows' own strings, and any other column as
    its texts joined by newlines, which no number's or ``None``'s text holds."""
    encoders = {
        str: list,
        int: lambda column: list(map(str, column)),
        float: lambda column: list(map(_format_sig, column, repeat(figures))),
        type(None): lambda column: [""] * len(column),
    }
    widths = list(map(len, headers))
    blocks: list[list] = []
    for block in _blocks(rows, project):
        stored = []
        for i, column in enumerate(zip(*block)):
            kinds = set(map(type, column))
            texts = _encode(column, encoders, kinds)
            widths[i] = max(widths[i], max(map(len, texts)))
            stored.append(texts if str in kinds else "\n".join(texts))
        blocks.append(stored)
    template = "  ".join(f"{{:{'<' if i == 0 else '>'}{w}}}" for i, w in enumerate(widths))
    yield template.format(*headers).rstrip() + "\n"
    blocks.reverse()
    while blocks:  # each block's text is freed once its lines are written
        columns = (c.split("\n") if isinstance(c, str) else c for c in blocks.pop())
        yield "\n".join(map(str.rstrip, map(template.format, *columns))) + "\n"


def _write_csv(headers: Sequence[str], rows: Sequence[Sequence],
               project: Callable | None = None) -> Iterator[str]:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    yield out.getvalue()
    for block in _blocks(rows, project):
        out.seek(0)
        out.truncate()
        writer.writerows(block)  # None as "", floats by repr
        yield out.getvalue()


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(column: Sequence[float]) -> list[str]:
    text = list(map(float.__repr__, column))
    return list(map(_JSON_NONFINITE.get, text, text))


_JSON_ENCODERS = {
    str: lambda column: list(map(encode_basestring_ascii, column)),
    int: lambda column: list(map(int.__repr__, column)),
    float: _json_floats,
    type(None): lambda column: ["null"] * len(column),
}


def _write_json(headers: Sequence[str], rows: Sequence[Sequence],
                project: Callable | None = None) -> Iterator[str]:
    """The bytes of ``json.dumps([dict(zip(headers, row)) ...], indent=2)``, in chunks."""
    if not rows:
        yield "[]\n"
        return
    keys = (encode_basestring_ascii(h).replace("{", "{{").replace("}", "}}") for h in headers)
    template = "  {{\n" + ",\n".join(f"    {key}: {{}}" for key in keys) + "\n  }}"
    separator = "[\n"
    for block in _blocks(rows, project):
        cells = [_encode(column, _JSON_ENCODERS) for column in zip(*block)]
        yield separator + ",\n".join(map(template.format, *cells))
        separator = ",\n"
    yield "\n]\n"


def _echo(chunks: Iterable[str]) -> None:
    """Write a report to stdout chunk by chunk.  Every chunk ends at a row
    boundary, so click's stripping of ANSI sequences on a non-tty stdout
    gives the bytes it would give for the whole report in one echo."""
    for chunk in chunks:
        click.echo(chunk, nl=False)


def _echo_report(output: str, headers: Sequence[str], rows: Sequence[Sequence], figures: int,
                 project: Callable | None = None) -> None:
    """Write a report of every row, block by block; callers pass rows that are
    already validated and scored, so an error never leaves partial output."""
    if output == "table":
        _echo(_write_table(headers, rows, figures, project))
    elif output == "csv":
        _echo(_write_csv(headers, rows, project))
    else:
        _echo(_write_json(headers, rows, project))


def _entity_headers(mask_x3: bool) -> list[str]:
    return [f for f in Scores._fields if not (mask_x3 and f == "X3")]


def _entity_rows(headers: Sequence[str]) -> Callable:
    """The projection of a block of ``Scores`` onto its cells under headers;
    a ``Scores`` already is its full row."""
    if len(headers) == len(Scores._fields):
        return lambda block, start: block
    cells = attrgetter(*headers)
    return lambda block, start: list(map(cells, block))


def _ranked_rows(headers: Sequence[str]) -> Callable:
    """As ``_entity_rows``, each row led by its 1-based position in the ranking."""
    entity_rows = _entity_rows(headers)
    return lambda block, start: [(i, *row) for i, row in
                                 enumerate(entity_rows(block, start), start + 1)]


class _Command(click.Command):
    """Maps domain errors to exit code 1 and usage errors to 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except CitetraceError as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(1)


@click.group()
def main() -> None:
    """h-index core/tail analytics: performance matrices and academic traces."""


_input_option = click.option("--input", "input_", required=True, metavar="PATH",
                             help="Dataset path, or corpus / corpus:units for the bundled data.")
_format_option = click.option("--format", "format_", type=click.Choice(_FORMATS), default=None,
                              help="Input format (default: by file extension; csv means summary).")
_output_option = click.option("--output", type=click.Choice(_OUTPUTS), default="table",
                              show_default=True, help="Report format.")
_group_option = click.option("--group", default=None, metavar="NAME",
                             help="Keep only records tagged with this group (e.g. LIS).")
_mask_option = click.option("--mask-x3", is_flag=True,
                            help="Drop the X3 column from the report (never from the trace).")
_precision_option = click.option("--precision", type=click.IntRange(1, 17), default=4,
                                 show_default=True, help="Significant figures in table output.")


@main.command(cls=_Command)
@_input_option
@_format_option
@_output_option
@_group_option
@_mask_option
@_precision_option
def compute(input_, format_, output, group, mask_x3, precision) -> None:
    """Per-entity matrix entries, trace, h, I3X, I3Y and the sign flag."""
    scores = _score_records(_select_group(_load_dataset(input_, format_), group), warn=True)
    headers = _entity_headers(mask_x3)
    _echo_report(output, headers, scores, precision, _entity_rows(headers))


@main.command(cls=_Command)
@_input_option
@_format_option
@_output_option
@_group_option
@click.option("--key", type=click.Choice(INDICATOR_KEYS), default="T", show_default=True,
              help="Indicator to sort by (descending).")
@click.option("--positive-only", is_flag=True, help="Keep only entities with T > 0.")
@_mask_option
@_precision_option
def rank(input_, format_, output, group, key, positive_only, mask_x3, precision) -> None:
    """Rank entities by an indicator; ties break by name."""
    ranked = rank_entities(_score_records(_select_group(_load_dataset(input_, format_), group)),
                           key=key)
    if positive_only:
        ranked = [s for s in ranked if s.sign == "positive"]
    headers = _entity_headers(mask_x3)
    _echo_report(output, ["rank"] + headers, ranked, precision, _ranked_rows(headers))


def _join_metrics(scores: list[Scores], metrics: MetricTable | None):
    """Inner-join scored entities with metric rows; warn on mismatches."""
    if metrics is None:
        return scores, {}
    matched = [s for s in scores if s.name in metrics.rows]
    matched_names = {s.name for s in matched}
    for s in scores:
        if s.name not in matched_names:
            click.echo(f"warning: no metric row for entity {s.name!r}", err=True)
    for name in metrics.rows:
        if name not in matched_names:
            click.echo(f"warning: metric row {name!r} matches no entity", err=True)
    if not matched:
        raise JoinError("no entity names in common between dataset and metric file")
    metric_columns = {
        metric: [metrics.rows[s.name][i] for s in matched]
        for i, metric in enumerate(metrics.metrics)
    }
    return matched, metric_columns


@main.command(cls=_Command)
@_input_option
@_format_option
@_output_option
@_group_option
@click.option("--metric-file", default=None, metavar="PATH",
              help="CSV of external per-entity metrics (header: name,<metric>...).")
@_precision_option
@click.argument("columns", nargs=-1)
def correlate(input_, format_, output, group, metric_file, precision, columns) -> None:
    """Pearson and Spearman correlations between indicator/metric columns.

    COLUMNS are indicator ids (T, h, I3X, ...) or metric-file column
    names; default is T plus every metric column, or T/h/I3X/I3Y when no
    metric file is given.
    """
    records = _select_group(_load_dataset(input_, format_), group)
    scores = _score_records(records)
    metrics = _load_metrics(metric_file) if metric_file else None
    joined, metric_columns = _join_metrics(scores, metrics)
    if not columns:
        columns = ("T", *metric_columns) if metric_columns else ("T", "h", "I3X", "I3Y")
    series = []
    for column in columns:
        if column in INDICATOR_KEYS:
            series.append((column, [getattr(s, column) for s in joined]))
        elif column in metric_columns:
            series.append((column, metric_columns[column]))
        else:
            raise click.UsageError(f"unknown column {column!r}")
    if len(series) < 2:
        raise click.UsageError("need at least two columns to correlate")
    report = correlation_report(series)
    headers = ["a", "b", "n", "pearson_r", "p_pearson", "pearson_stars",
               "spearman_rho", "p_spearman", "spearman_stars"]
    rows = [[p.a, p.b, p.n, p.pearson_r, p.pearson_p, p.pearson_stars,
             p.spearman_rho, p.spearman_p, p.spearman_stars]
            for p in report.pairs]
    _echo_report(output, headers, rows, precision)


def _golden_lines(cells: Sequence) -> str:
    return "".join(f"{'PASS' if cell.passed else 'FAIL'} {cell.table:<12} {cell.entity:<22} "
                   f"{cell.cell:<3} computed={cell.computed!r} displayed={cell.displayed}\n"
                   for cell in cells)


@main.command("validate-reference", cls=_Command)
def validate_reference() -> None:
    """Recompute the bundled corpus and check every golden cell."""
    report = validate_corpus()
    passed = sum(1 for cell in report.cells if cell.passed)
    summary = f"{passed}/{len(report.cells)} golden cells within displayed precision\n"
    _echo(chain(map(_golden_lines, _blocks(report.cells)), [summary]))
    if not report.ok:
        sys.exit(1)


@main.command("plot-data", cls=_Command)
@_input_option
@_format_option
@_group_option
@click.option("--metric-file", required=True, metavar="PATH",
              help="CSV of external per-entity metrics to pair with the trace.")
@click.option("--positive-only", is_flag=True, help="Keep only entities with T > 0.")
def plot_data(input_, format_, group, metric_file, positive_only) -> None:
    """Emit name,T,<metric> rows for external plotting."""
    records = _select_group(_load_dataset(input_, format_), group)
    scores = _score_records(records)
    metrics = _load_metrics(metric_file)
    joined, metric_columns = _join_metrics(scores, metrics)
    metric = metrics.metrics[0]
    rows = [(s.name, s.T, value) for s, value in zip(joined, metric_columns[metric])
            if not positive_only or s.sign == "positive"]
    _echo(_write_csv(["name", "T", metric], rows))


if __name__ == "__main__":
    main()
