"""Parsing and serialization of entity datasets (summary CSV, citations CSV, JSON).

The summary CSV carries one five-number record per row under the exact
header ``name,P,h,Pz,C,Ch``.  The citations CSV carries full-resolution
counts as a semicolon-separated cell under ``name,citations``.  JSON
mirrors either record type with the same field names.  Parsed datasets
are immutable; every record is validated before a dataset is accepted.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import DuplicateEntity, ParseError, ValidationError
from .partition import CitationList, SummaryRecord

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

Record = Union[SummaryRecord, CitationList]


@dataclass(frozen=True)
class DatasetFile:
    """A parsed dataset: homogeneous records plus provenance metadata.

    The time window is free text applied upstream (e.g. "2009-2010");
    no date arithmetic happens here.
    """

    format: str  # "summary-csv" | "citations-csv" | "json"
    records: tuple[Record, ...]
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


def _parse_int(cell: str, label: str, line: int) -> int:
    try:
        return int(cell.strip())
    except ValueError:
        raise ParseError(f"row {line}: {label} is not an integer: {cell!r}") from None


def parse_summary_csv(data: Union[bytes, str], source: str | None = None,
                      window: str | None = None) -> DatasetFile:
    """Parse five-number summary records; strict validation per row."""
    reader = _rows(data)
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != SUMMARY_HEADER:
        raise ParseError(f"summary CSV header must be exactly {','.join(SUMMARY_HEADER)}")
    records: list[SummaryRecord] = []
    seen: set[str] = set()
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != len(SUMMARY_HEADER):
            raise ParseError(f"row {line}: expected {len(SUMMARY_HEADER)} columns, got {len(row)}")
        name = row[0].strip()
        if name in seen:
            raise DuplicateEntity(f"row {line}: duplicate entity {name!r}")
        p, h, pz, c, ch = (_parse_int(cell, label, line)
                           for cell, label in zip(row[1:], SUMMARY_HEADER[1:]))
        try:
            records.append(SummaryRecord(name=name, papers=p, h=h, uncited=pz,
                                         citations=c, core_citations=ch))
        except ValidationError as err:
            raise ValidationError(f"row {line}: {err}") from None
        seen.add(name)
    return DatasetFile(format="summary-csv", records=tuple(records),
                       source=source, window=window)


def _parse_counts(cell: str, where: str) -> tuple[int, ...]:
    if not cell.strip():
        raise ParseError(f"{where}: empty citation list")
    counts = []
    for token in cell.split(";"):
        try:
            counts.append(int(token.strip()))
        except ValueError:
            raise ParseError(f"{where}: malformed citation count {token!r}") from None
    return tuple(counts)


def parse_citations_csv(data: Union[bytes, str], source: str | None = None,
                        window: str | None = None) -> DatasetFile:
    """Parse per-document citation counts (semicolon-separated cell)."""
    reader = _rows(data)
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != CITATIONS_HEADER:
        raise ParseError(f"citations CSV header must be exactly {','.join(CITATIONS_HEADER)}")
    records: list[CitationList] = []
    seen: set[str] = set()
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != 2:
            raise ParseError(f"row {line}: expected 2 columns, got {len(row)}")
        name = row[0].strip()
        if name in seen:
            raise DuplicateEntity(f"row {line}: duplicate entity {name!r}")
        try:
            records.append(CitationList(name=name, counts=_parse_counts(row[1], f"row {line}")))
        except ValidationError as err:
            raise ValidationError(f"row {line}: {err}") from None
        seen.add(name)
    return DatasetFile(format="citations-csv", records=tuple(records),
                       source=source, window=window)


def parse_json(data: Union[bytes, str], source: str | None = None,
               window: str | None = None) -> DatasetFile:
    """Parse a JSON array of objects mirroring either CSV record type.

    Summary objects carry exactly the summary CSV fields; citation
    objects carry ``name`` and ``citations`` (a list of counts, or the
    CSV's semicolon string).  One file holds one record type.
    """
    try:
        payload = json.loads(_text(data))
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err}") from None
    if not isinstance(payload, list):
        raise ParseError("JSON dataset must be an array of objects")
    records: list[Record] = []
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
                values = {}
                for field in SUMMARY_HEADER[1:]:
                    value = item[field]
                    if isinstance(value, bool) or not isinstance(value, int):
                        raise ParseError(f"{where}: {field} must be an integer")
                    values[field] = value
                records.append(SummaryRecord(name=name, papers=values["P"], h=values["h"],
                                             uncited=values["Pz"], citations=values["C"],
                                             core_citations=values["Ch"]))
            else:
                cell = item["citations"]
                if isinstance(cell, str):
                    counts = _parse_counts(cell, where)
                elif isinstance(cell, list):
                    if not cell:
                        raise ParseError(f"{where}: empty citation list")
                    if any(isinstance(c, bool) or not isinstance(c, int) for c in cell):
                        raise ParseError(f"{where}: citation counts must be integers")
                    counts = tuple(cell)
                else:
                    raise ParseError(f"{where}: citations must be a list of counts or a ';'-joined string")
                records.append(CitationList(name=name, counts=counts))
        except ValidationError as err:
            raise ValidationError(f"{where}: {err}") from None
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
    """Serialize back to the canonical CSV; re-parsing yields equal records."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if all(isinstance(r, SummaryRecord) for r in dataset.records):
        writer.writerow(SUMMARY_HEADER)
        for rec in dataset.records:
            writer.writerow([rec.name, rec.papers, rec.h, rec.uncited,
                             rec.citations, rec.core_citations])
    elif all(isinstance(r, CitationList) for r in dataset.records):
        writer.writerow(CITATIONS_HEADER)
        for rec in dataset.records:
            writer.writerow([rec.name, ";".join(str(c) for c in rec.counts)])
    else:
        raise ValidationError("dataset mixes record types; cannot serialize")
    return out.getvalue()


def dataset_to_json(dataset: DatasetFile) -> str:
    """Serialize to the JSON mirror of the CSV fields."""
    items: list[dict] = []
    for rec in dataset.records:
        if isinstance(rec, SummaryRecord):
            items.append({"name": rec.name, "P": rec.papers, "h": rec.h,
                          "Pz": rec.uncited, "C": rec.citations, "Ch": rec.core_citations})
        else:
            items.append({"name": rec.name, "citations": list(rec.counts)})
    return json.dumps(items, indent=2) + "\n"
