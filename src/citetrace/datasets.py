"""Parsing and serialization of entity datasets (summary CSV, citations CSV, JSON).

The summary CSV carries one five-number record per row under the exact
header ``name,P,h,Pz,C,Ch``.  The citations CSV carries per-document
counts as a semicolon-separated cell under ``name,citations``; each list
is summarized as it is read, so every parser yields ``SummaryRecord``s
only.  JSON mirrors either file format with the same field names.  The
serializers write the summary form.  Parsed datasets are immutable;
every record is validated before a dataset is accepted.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Union

from .errors import DuplicateEntity, ParseError, ValidationError
from .partition import SummaryRecord, summarize

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


@dataclass(frozen=True)
class DatasetFile:
    """A parsed dataset: homogeneous records plus provenance metadata.

    The time window is free text applied upstream (e.g. "2009-2010");
    no date arithmetic happens here.
    """

    format: str  # "summary-csv" | "citations-csv" | "json"
    records: tuple[SummaryRecord, ...]
    source: str | None = None
    window: str | None = None


@dataclass(frozen=True)
class MetricTable:
    """External per-entity metric columns (e.g. impact factors) keyed by name."""

    metrics: tuple[str, ...]
    rows: dict[str, tuple[float, ...]]


def _text(data: Union[bytes, str]) -> str:
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError:
            raise ParseError("input is not UTF-8 text") from None
    else:
        text = data.lstrip("﻿")
    return text


def _rows(data: Union[bytes, str]):
    return csv.reader(io.StringIO(_text(data), newline=""))


def _parse_csv(data: Union[bytes, str], kind: str, header: tuple[str, ...], record,
               source: str | None, window: str | None) -> DatasetFile:
    """The row loop both record CSVs share: header, column count, stripped
    and unique names; ``record(name, cells)`` builds each row's record, and
    its errors gain the row number."""
    reader = _rows(data)
    first = next(reader, None)
    if first is None or tuple(h.strip() for h in first) != header:
        raise ParseError(f"{kind} CSV header must be exactly {','.join(header)}")
    records: list[SummaryRecord] = []
    seen: set[str] = set()
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"row {line}: expected {len(header)} columns, got {len(row)}")
        name = row[0].strip()
        if name in seen:
            raise DuplicateEntity(f"row {line}: duplicate entity {name!r}")
        try:
            records.append(record(name, row[1:]))
        except (ParseError, ValidationError) as err:
            raise type(err)(f"row {line}: {err}") from None
        seen.add(name)
    return DatasetFile(format=f"{kind}-csv", records=tuple(records), source=source, window=window)


# Each cell converts as it stands in one map(int) call.  int() strips the
# whitespace str.strip() does except "\x1c" to "\x1f", so a cell padded with
# those, or a bad cell, takes the per-cell loop, which names the first bad cell.

def _summary_row(name: str, cells: list[str]) -> SummaryRecord:
    try:
        values = list(map(int, cells))
    except ValueError:
        values = []
        for cell, label in zip(cells, SUMMARY_HEADER[1:]):
            try:
                values.append(int(cell.strip()))
            except ValueError:
                raise ParseError(f"{label} is not an integer: {cell!r}") from None
    return SummaryRecord(name, *values)  # P, h, Pz, C, Ch in field order


def _parse_counts(cell: str) -> list[int]:
    if not cell.strip():
        raise ParseError("empty citation list")
    tokens = cell.split(";")
    try:
        return list(map(int, tokens))
    except ValueError:
        counts = []
        for token in tokens:
            try:
                counts.append(int(token.strip()))
            except ValueError:
                raise ParseError(f"malformed citation count {token!r}") from None
        return counts


def parse_summary_csv(data: Union[bytes, str], source: str | None = None,
                      window: str | None = None) -> DatasetFile:
    """Parse five-number summary records; strict validation per row."""
    return _parse_csv(data, "summary", SUMMARY_HEADER, _summary_row, source, window)


def parse_citations_csv(data: Union[bytes, str], source: str | None = None,
                        window: str | None = None) -> DatasetFile:
    """Parse per-document citation counts (semicolon-separated cell) and
    summarize each row's list as it is read."""
    return _parse_csv(data, "citations", CITATIONS_HEADER,
                      lambda name, cells: summarize(_parse_counts(cells[0]), name),
                      source, window)


def _json_counts(cell) -> list[int]:
    if isinstance(cell, str):
        return _parse_counts(cell)
    if not isinstance(cell, list):
        raise ParseError("citations must be a list of counts or a ';'-joined string")
    if not cell:
        raise ParseError("empty citation list")
    if not set(map(type, cell)) <= {int}:
        raise ParseError("citation counts must be integers")
    return cell


def parse_json(data: Union[bytes, str], source: str | None = None,
               window: str | None = None) -> DatasetFile:
    """Parse a JSON array of objects mirroring either CSV record type.

    Summary objects carry exactly the summary CSV fields; citation
    objects carry ``name`` and ``citations`` (a list of counts, or the
    CSV's semicolon string) and are summarized as they are read.  One
    file holds one record type.
    """
    try:
        payload = json.loads(_text(data))
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err}") from None
    if not isinstance(payload, list):
        raise ParseError("JSON dataset must be an array of objects")
    records: list[SummaryRecord] = []
    seen: set[str] = set()
    kind: str | None = None
    for index, item in enumerate(payload):
        where = f"item {index}"
        if not isinstance(item, dict):
            raise ParseError(f"{where}: expected an object")
        keys = set(item)
        if keys == set(SUMMARY_HEADER):
            item_kind = "summary"
        elif keys == set(CITATIONS_HEADER):
            item_kind = "citations"
        else:
            raise ParseError(f"{where}: fields must be exactly {SUMMARY_HEADER} or {CITATIONS_HEADER}")
        if kind is None:
            kind = item_kind
        elif kind != item_kind:
            raise ParseError(f"{where}: mixed record types in one dataset")
        name = item["name"]
        if not isinstance(name, str):
            raise ParseError(f"{where}: name must be a string")
        name = name.strip()
        if name in seen:
            raise DuplicateEntity(f"{where}: duplicate entity {name!r}")
        try:
            if item_kind == "summary":
                for field in SUMMARY_HEADER[1:]:
                    value = item[field]
                    if isinstance(value, bool) or not isinstance(value, int):
                        raise ParseError(f"{field} must be an integer")
                records.append(SummaryRecord(name=name, papers=item["P"], h=item["h"],
                                             uncited=item["Pz"], citations=item["C"],
                                             core_citations=item["Ch"]))
            else:
                records.append(summarize(_json_counts(item["citations"]), name))
        except (ParseError, ValidationError) as err:
            raise type(err)(f"{where}: {err}") from None
        seen.add(name)
    return DatasetFile(format="json", records=tuple(records), source=source, window=window)


def parse_metric_csv(data: Union[bytes, str], source: str | None = None) -> MetricTable:
    """Parse an external metric file: header ``name,<metric>[,<metric>...]``."""
    reader = _rows(data)
    header = next(reader, None)
    if header is None or len(header) < 2 or header[0].strip() != "name":
        raise ParseError("metric CSV header must be name,<metric>[,<metric>...]")
    metrics = tuple(h.strip() for h in header[1:])
    if any(not m for m in metrics):
        raise ParseError("metric CSV has an unnamed metric column")
    for i, metric in enumerate(metrics):
        if metric in metrics[:i]:
            raise ParseError(f"metric CSV has a duplicate metric column {metric!r}")
    rows: dict[str, tuple[float, ...]] = {}
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"row {line}: expected {len(header)} columns, got {len(row)}")
        name = row[0].strip()
        if name in rows:
            raise DuplicateEntity(f"row {line}: duplicate entity {name!r}")
        try:
            values = tuple(float(cell) for cell in row[1:])
        except ValueError:
            raise ParseError(f"row {line}: metric values must be numeric") from None
        if not all(math.isfinite(v) for v in values):
            raise ParseError(f"row {line}: metric values must be finite")
        rows[name] = values
    return MetricTable(metrics=metrics, rows=rows)


def dataset_to_csv(dataset: DatasetFile) -> str:
    """Serialize to the summary CSV; re-parsing yields equal records."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SUMMARY_HEADER)
    for rec in dataset.records:
        writer.writerow([rec.name, rec.papers, rec.h, rec.uncited,
                         rec.citations, rec.core_citations])
    return out.getvalue()


def dataset_to_json(dataset: DatasetFile) -> str:
    """Serialize to the JSON mirror of the summary CSV fields."""
    items = [{"name": rec.name, "P": rec.papers, "h": rec.h, "Pz": rec.uncited,
              "C": rec.citations, "Ch": rec.core_citations} for rec in dataset.records]
    return json.dumps(items, indent=2) + "\n"
