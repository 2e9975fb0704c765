"""Reading and writing entity datasets: summary CSV, citations CSV, JSON.

A summary CSV has one record per row under the header ``name,P,h,Pz,C,Ch``;
a citations CSV has a semicolon-separated cell of per-document counts
under ``name,citations``, summarized as each row is read; JSON is an
array of objects with either header's fields.  Every record is validated.

The ``parse_*`` readers share one row loop, ``_parse_csv``: blank rows,
the column count, stripped unique names, and the row, or JSON item, that
an error names.  ``_json_rows`` feeds it JSON items as rows once they pass
JSON's own checks.  ``summary_columns``, ``citation_columns`` and
``parse_metric_csv`` read chunks of columns with no item per row, each
chunk checked as a whole by ``_columns``; one that fails goes through the
row loop, so the errors are the same.  ``_write_csv`` and ``_write_json``
write blocks of columns for the CLI's reports and for ``dataset_to_csv``
and ``dataset_to_json``, which write the summary form.
"""

from __future__ import annotations

import csv
import io
import math
import re
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import DuplicateEntity, ParseError, ValidationError
from .partition import (SummaryRecord, chunks, column_chunks, columns_valid, ranked_summary,
                        record_columns, summarize)

__all__ = [
    "DatasetFile",
    "MetricTable",
    "parse_summary_csv",
    "parse_citations_csv",
    "parse_json",
    "parse_metric_csv",
    "dataset_to_csv",
    "dataset_to_json",
]

SUMMARY_HEADER = ("name", "P", "h", "Pz", "C", "Ch")
CITATIONS_HEADER = ("name", "citations")


class DatasetFile(NamedTuple):
    """A parsed dataset: homogeneous records plus provenance metadata.

    The time window is free text applied upstream (e.g. "2009-2010");
    no date arithmetic happens here.
    """

    format: str  # "summary-csv" | "citations-csv" | "json"
    records: tuple[SummaryRecord, ...]
    source: str | None = None
    window: str | None = None


class MetricTable(NamedTuple):
    """External per-entity metric columns (e.g. impact factors) keyed by name."""

    metrics: tuple[str, ...]
    rows: dict[str, tuple[float, ...]]


def _text(data: Union[bytes, str]) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8-sig")  # one leading BOM off, as for text
        except UnicodeDecodeError:
            raise ParseError("input is not UTF-8 text") from None
    return data.removeprefix("\ufeff")


def _rows(data: Union[bytes, str]) -> Iterator[tuple[int, list[str]]]:
    """Each CSV row of data with the number of the line it ends on; a row the
    csv module rejects is a ParseError that names it.  Bytes are decoded a
    few kilobytes at a time as the rows are read, once the whole input is
    known to be UTF-8, so no decoded copy of the whole text is kept."""
    # No field is longer than the whole input, so this limit rejects none.  The
    # limit is global to the csv module: it only grows, so parses running at
    # the same time never lower each other's.
    if len(data) > csv.field_size_limit():
        csv.field_size_limit(len(data))
    if isinstance(data, bytes):
        _text(data)  # a ParseError unless the whole input is UTF-8
        lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    else:
        lines = io.StringIO(_text(data), newline="")
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as err:
        raise ParseError(f"row {reader.line_num}: {err}") from None


def _body(data: Union[bytes, str], kind: str,
          header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """The rows of a record CSV after its header, as ``_rows`` gives them; a
    ParseError unless the header is exactly header."""
    rows = _rows(data)
    _, first = next(rows, (0, None))
    if first is None or tuple(h.strip() for h in first) != header:
        raise ParseError(f"{kind} CSV header must be exactly {','.join(header)}")
    return rows


def _parse_csv(rows: Iterable[tuple[int, list]], header: Sequence[str],
               record: Callable[[str, list], object], seen: set[str], label: str = "row") -> list:
    """The row loop every reader shares: blank rows skipped, the column
    count, stripped names unique against seen, which gains each, and each
    item built by ``record(name, cells)``; an error names ``label`` and line."""
    records = []
    for line, row in rows:
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"{label} {line}: expected {len(header)} columns, got {len(row)}")
        name = row[0].strip()
        if name in seen:
            raise DuplicateEntity(f"{label} {line}: duplicate entity {name!r}")
        try:
            records.append(record(name, row[1:]))
        except (ParseError, ValidationError) as err:
            raise type(err)(f"{label} {line}: {err}") from None
        seen.add(name)
    return records


def _dataset(data: Union[bytes, str], kind: str, header: tuple[str, ...], record,
             source: str | None, window: str | None) -> DatasetFile:
    """The records of a whole record CSV, parsed row by row."""
    records = _parse_csv(_body(data, kind, header), header, record, set())
    return DatasetFile(format=f"{kind}-csv", records=tuple(records), source=source, window=window)


_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")  # the decimal literals int() accepts
_QUOTED = 40  # characters of a rejected cell that its error quotes


def _quote(cell: str) -> str:
    return repr(cell) if len(cell) <= _QUOTED else f"{cell[:_QUOTED]!r}..."


def _too_large(what: str, cell: str) -> ParseError | None:
    """For a cell that int() rejects: if it is a well-formed integer, int()
    refused it for having more digits than Python converts (4,300 by
    default), and this is the error that says so."""
    text = cell.strip()
    if not _INTEGER.fullmatch(text):
        return None
    digits = sum(map(str.isdecimal, text))
    return ParseError(f"{what} is too large: an integer of {digits} digits, {_quote(text)}")


def _integers(cells: list[str], labels: Iterable[str], message: str) -> list[int]:
    """The cells as integers, in one map(int) call as they stand.  int()
    strips the whitespace str.strip() does except "\\x1c" to "\\x1f", so a
    cell padded with those, or a bad cell, takes the per-cell loop, where the
    first bad cell is a ParseError under its label: too large, or message
    formatted with its label and its quoted text."""
    try:
        return list(map(int, cells))
    except ValueError:
        values = []
        for cell, label in zip(cells, labels):
            try:
                values.append(int(cell.strip()))
            except ValueError:
                raise (_too_large(label, cell)
                       or ParseError(message.format(label=label, cell=_quote(cell)))) from None
        return values


def _summary_row(name: str, cells: list[str]) -> SummaryRecord:
    return SummaryRecord(name, *_integers(cells, SUMMARY_HEADER[1:],  # in field order
                                          "{label} is not an integer: {cell}"))


def _parse_counts(cell: str) -> list[int]:
    if not cell.strip():
        raise ParseError("empty citation list")
    return _integers(cell.split(";"), repeat("citation count"), "malformed citation count {cell}")


def _citations_row(name: str, cells: list[str]) -> SummaryRecord:
    return summarize(_parse_counts(cells[0]), name)


def parse_summary_csv(data: Union[bytes, str], source: str | None = None,
                      window: str | None = None) -> DatasetFile:
    """Parse five-number summary records; strict validation per row."""
    return _dataset(data, "summary", SUMMARY_HEADER, _summary_row, source, window)


def parse_citations_csv(data: Union[bytes, str], source: str | None = None,
                        window: str | None = None) -> DatasetFile:
    """Parse per-document citation counts (semicolon-separated cell) and
    summarize each row's list as it is read."""
    return _dataset(data, "citations", CITATIONS_HEADER, _citations_row, source, window)


class _Rejected(Exception):
    """A bulk check of CSV rows failed; the row-by-row parse says why."""


def _summary_checked(names: list[str], cells: list[tuple[str, ...]]) -> list[list[int]]:
    """The columns (P, h, Pz, C, Ch) of a chunk's summary cells, converted
    and checked a column at a time; _Rejected when a row may be bad."""
    try:
        counts = [list(map(int, column)) for column in cells]
    except ValueError:
        raise _Rejected from None
    if not columns_valid(names, *counts):
        raise _Rejected
    return counts


class _Counts(dict):
    """Count texts and their integers: each text is converted once, and a
    text that int() rejects raises its ValueError and is not kept."""

    def __missing__(self, text: str) -> int:
        count = self[text] = int(text)
        return count


_MEMO_TEXTS = 4096  # texts a _Counts holds before it starts over: about 0.5 MB


def _citations_checked(names: list[str], cells: list[tuple[str, ...]]) -> list[list[int]]:
    """The columns (P, h, Pz, C, Ch) of a chunk's citation lists: each list
    converted through the chunk's count texts, each distinct text once, and
    summarized highest first; _Rejected when a row may be bad.  A list of
    counts >= 0 under a new, non-blank name always gives a valid summary, so
    nothing else is checked."""
    memo = _Counts()
    summaries = []
    for cell in cells[0]:
        if len(memo) > _MEMO_TEXTS:
            memo.clear()
        try:
            counts = sorted(map(memo.__getitem__, cell.split(";")), reverse=True)
        except ValueError:
            raise _Rejected from None
        if counts[-1] < 0:
            raise _Rejected
        summaries.append(ranked_summary(counts))
    return list(map(list, zip(*summaries)))


def _line_chunks(body: Callable[[], Iterator[tuple[int, list[str]]]], header: Sequence[str],
                 record) -> Iterator[list[tuple[int, list[str]]]]:
    """The ``chunks`` of the rows that ``body()`` gives.  A row that the csv
    module rejects leaves the rows before it in its chunk unchecked, so the
    whole body is then parsed row by row, which names the first error in
    input order."""
    try:
        yield from chunks(body())
    except ParseError:
        _parse_csv(body(), header, record, set())
        raise


def _columns(body: Callable[[], Iterator[tuple[int, list[str]]]], header: Sequence[str], record,
             checked, collect) -> Iterator[tuple[list, ...]]:
    """The rows that ``body()`` gives after a CSV's header, as chunks of
    columns (names, then the kind's value columns), in input order, with no
    item per row.

    A chunk's non-blank rows are checked as a whole before it is yielded:
    each has the header's column count, and the stripped names are
    non-blank, unique and new; then ``checked(names, cells)`` gives the
    value columns from the cell columns after the names.  These checks are
    only a guard: a chunk that fails them is parsed row by row on its own,
    with the names seen so far, which raises the chunk's first error with
    the text of the whole-file parse, or gives its items, which
    ``collect`` turns into columns; the next chunk is checked as a whole
    again."""
    seen: set[str] = set()
    for lines in _line_chunks(body, header, record):
        rows = [row for _, row in lines if row]
        if rows:
            try:
                if set(map(len, rows)) != {len(header)}:
                    raise _Rejected
                names, *columns = zip(*rows)
                names = list(map(str.strip, names))
                if not (all(names) and len(set(names)) == len(names) and seen.isdisjoint(names)):
                    raise _Rejected
                # the cell columns are let go here, not kept alive across the yield
                columns = (names, *checked(names, columns))
                seen.update(names)
            except _Rejected:
                columns = collect(_parse_csv(lines, header, record, seen))
            yield columns


def summary_columns(data: Union[bytes, str]) -> Iterator[tuple[list, ...]]:
    """The rows of a summary CSV as chunks of columns (names, P, h, Pz, C,
    Ch), with no record per row; the errors are those of
    ``parse_summary_csv``."""
    return _columns(lambda: _body(data, "summary", SUMMARY_HEADER), SUMMARY_HEADER,
                    _summary_row, _summary_checked, record_columns)


def citation_columns(data: Union[bytes, str]) -> Iterator[tuple[list, ...]]:
    """The summaries of a citations CSV as chunks of columns (names, P, h,
    Pz, C, Ch), with no record per row; the errors are those of
    ``parse_citations_csv``."""
    return _columns(lambda: _body(data, "citations", CITATIONS_HEADER), CITATIONS_HEADER,
                    _citations_row, _citations_checked, record_columns)


def _json_rows(payload: list, header: tuple[str, ...]) -> Iterator[tuple[int, list]]:
    """Each JSON item and its index as the row [name, *values], in the order
    of header, item 0's fields, once it is an object with exactly those
    fields and a name that is a string UTF-8 can encode."""
    fields, kinds = set(header), (set(SUMMARY_HEADER), set(CITATIONS_HEADER))
    for index, item in enumerate(payload):
        if not isinstance(item, dict):
            raise ParseError(f"item {index}: expected an object")
        if item.keys() != fields:
            if item.keys() not in kinds:
                raise ParseError(f"item {index}: fields must be exactly {SUMMARY_HEADER} "
                                 f"or {CITATIONS_HEADER}")
            raise ParseError(f"item {index}: mixed record types in one dataset")
        name = item["name"]
        if not isinstance(name, str):
            raise ParseError(f"item {index}: name must be a string")
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:  # only a JSON escape writes a lone surrogate
            raise ParseError(f"item {index}: name holds a lone surrogate, "
                             "which UTF-8 cannot encode") from None
        yield index, list(map(item.__getitem__, header))


def _json_row(name: str, cells: list) -> SummaryRecord:
    """The record of a JSON item's values: citations as a list of integers
    or the CSV's semicolon string, or the five summary integers."""
    if len(cells) == 1:
        counts = cells[0]
        if isinstance(counts, str):
            counts = _parse_counts(counts)
        elif not isinstance(counts, list):
            raise ParseError("citations must be a list of counts or a ';'-joined string")
        elif not counts:
            raise ParseError("empty citation list")
        elif not set(map(type, counts)) <= {int}:
            raise ParseError("citation counts must be integers")
        return summarize(counts, name)
    for field, value in zip(SUMMARY_HEADER[1:], cells):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(f"{field} must be an integer")
    return SummaryRecord(name, *cells)


def parse_json(data: Union[bytes, str], source: str | None = None,
               window: str | None = None) -> DatasetFile:
    """Parse a JSON array of objects mirroring either CSV record type.

    Summary objects carry exactly the summary CSV fields; citation
    objects carry ``name`` and ``citations`` (a list of counts, or the
    CSV's semicolon string) and are summarized as they are read.  One
    file holds one record type: that of its first item.
    """
    import json  # here, not at module level: only JSON input needs it

    try:
        payload = json.loads(_text(data))
    except (ValueError, RecursionError) as err:
        # a JSONDecodeError, an integer past Python's digit limit, or nesting
        # past the recursion limit
        raise ParseError(f"invalid JSON: {err}") from None
    if not isinstance(payload, list):
        raise ParseError("JSON dataset must be an array of objects")
    first = payload[0] if payload and isinstance(payload[0], dict) else {}
    header = SUMMARY_HEADER if first.keys() == set(SUMMARY_HEADER) else CITATIONS_HEADER
    records = _parse_csv(_json_rows(payload, header), header, _json_row, set(), "item")
    return DatasetFile(format="json", records=tuple(records), source=source, window=window)


def _metric_row(name: str, cells: list[str]) -> tuple[str, tuple[float, ...]]:
    try:
        values = tuple(map(float, cells))
    except ValueError:
        raise ParseError("metric values must be numeric") from None
    if not all(map(math.isfinite, values)):
        raise ParseError("metric values must be finite")
    if not name:
        raise ValidationError("entity name must be non-empty")
    return name, values


def _metric_checked(names: list[str], cells: list[tuple[str, ...]]) -> list[list[float]]:
    """The value columns of a chunk's metric cells, each converted in one
    map(float) call; _Rejected when a row may be bad.  A column of finite
    values can still sum past the float range, so such a column is also
    sent to the row parse, which accepts it."""
    try:
        columns = [list(map(float, column)) for column in cells]
    except ValueError:
        raise _Rejected from None
    if not all(map(math.isfinite, map(sum, columns))):
        raise _Rejected
    return columns


def _metric_columns(items: list[tuple[str, tuple[float, ...]]]) -> tuple[Sequence, ...]:
    """The (name, values) items of the row parse as columns (names, values...)."""
    names, values = zip(*items)
    return (names, *zip(*values))


def parse_metric_csv(data: Union[bytes, str]) -> MetricTable:
    """Parse an external metric file: header ``name,<metric>[,<metric>...]``."""
    _, header = next(_rows(data), (0, None))
    if header is None or len(header) < 2 or header[0].strip() != "name":
        raise ParseError("metric CSV header must be name,<metric>[,<metric>...]")
    metrics = tuple(h.strip() for h in header[1:])
    if any(not m for m in metrics):
        raise ParseError("metric CSV has an unnamed metric column")
    for i, metric in enumerate(metrics):
        if metric in metrics[:i]:
            raise ParseError(f"metric CSV has a duplicate metric column {metric!r}")
    rows: dict[str, tuple[float, ...]] = {}
    for names, *columns in _columns(lambda: islice(_rows(data), 1, None), header, _metric_row,
                                    _metric_checked, _metric_columns):
        rows.update(zip(names, zip(*columns)))
    return MetricTable(metrics=metrics, rows=rows)


_CSV_QUOTED = re.compile('[,"\r\n]')  # a CSV cell with one of these is written in quotes


def _csv_cells(column: Sequence[str]) -> list[str]:
    """A column of strings as CSV cells: a cell that holds a comma, a quote,
    CR or LF in quotes, with its quotes doubled; any other as it is.  This
    is the rule of Python 3.13's ``csv.writer``, whose older versions leave
    a bare CR unquoted, so that the row does not read back, and on 3.10
    reject NUL."""
    if not _CSV_QUOTED.search("".join(column)):
        return list(column)
    quoted = _CSV_QUOTED.search
    return ['"' + cell.replace('"', '""') + '"' if quoted(cell) else cell for cell in column]


class _ByType(dict):
    """Encoders by value type; a subclass, such as IntEnum, takes its base's."""

    def __missing__(self, kind: type) -> Callable[[Sequence], list[str]]:
        for base in kind.__mro__[1:]:
            if base in self:
                return self[base]
        raise TypeError(f"cannot write a value of type {kind.__name__}")


_CSV_ENCODERS = _ByType({
    str: _csv_cells,
    int: lambda column: list(map(int.__repr__, column)),
    float: lambda column: list(map(float.__repr__, column)),
    type(None): lambda column: [""] * len(column),
})


def _write_csv(headers: Sequence[str], blocks: Iterable[list[Sequence]]) -> Iterator[str]:
    """Blocks of columns as CSV, in chunks, led by the header row: each
    column's cells are encoded once, then joined row by row.  Strings are
    quoted by the rule of ``_csv_cells``, so the bytes are those of Python
    3.13's ``csv.writer(..., lineterminator="\\n")`` on every version."""
    for columns in chain([[[header] for header in headers]], blocks):
        cells = [_CSV_ENCODERS[type(column[0])](column) for column in columns]
        if len(cells) == 1:  # a row's only field, when empty, is quoted: a blank line is no row
            cells[0] = [cell or '""' for cell in cells[0]]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(column: Sequence[float]) -> list[str]:
    text = list(map(float.__repr__, column))
    if math.isfinite(sum(column)):  # an infinity or a NaN makes the sum one
        return text
    return list(map(_JSON_NONFINITE.get, text, text))


def _write_json(headers: Sequence[str], blocks: Iterable[list[Sequence]]) -> Iterator[str]:
    """The bytes of ``json.dumps([dict(zip(headers, row)) ...], indent=2)``, in chunks."""
    from json.encoder import encode_basestring_ascii  # here: only JSON output needs json

    encoders = _ByType({
        str: lambda column: list(map(encode_basestring_ascii, column)),
        int: lambda column: list(map(int.__repr__, column)),
        float: _json_floats,
        type(None): lambda column: ["null"] * len(column),
    })
    keys = (encode_basestring_ascii(h).replace("%", "%%") for h in headers)
    template = "  {\n" + ",\n".join(f"    {key}: %s" for key in keys) + "\n  }"
    separator = "[\n"
    for columns in blocks:
        cells = [encoders[type(column[0])](column) for column in columns]
        yield separator + ",\n".join([template % row for row in zip(*cells)])
        separator = ",\n"
    yield "[]\n" if separator == "[\n" else "\n]\n"


def dataset_to_csv(dataset: DatasetFile) -> str:
    """Serialize to the summary CSV, each name quoted by the rule of
    ``_csv_cells``; re-parsing yields equal records."""
    return "".join(_write_csv(SUMMARY_HEADER, column_chunks(dataset.records)))


def dataset_to_json(dataset: DatasetFile) -> str:
    """Serialize to the JSON mirror of the summary CSV fields."""
    return "".join(_write_json(SUMMARY_HEADER, column_chunks(dataset.records)))
