"""Dataset parsing, validation wiring, and round-trip serialization."""

import csv
import enum
import functools
import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citetrace import (
    CitetraceError,
    DatasetFile,
    DuplicateEntity,
    ParseError,
    SummaryRecord,
    ValidationError,
    dataset_to_csv,
    dataset_to_json,
    parse_citations_csv,
    parse_json,
    parse_metric_csv,
    parse_summary_csv,
    summarize,
)
from citetrace import datasets, partition
from citetrace.datasets import citation_columns, summary_columns
from citetrace.partition import record_columns

from oracles import write_csv, write_json

SUMMARY = "name,P,h,Pz,C,Ch\nJ Informetr,105,18,5,1132,574\nYe FY,25,5,9,72,51\n"
CITATIONS = "name,citations\nA,10;8;5;4;3\nB,0;0;0\n"
CITATION_RECORDS = (summarize((10, 8, 5, 4, 3), "A"), summarize((0, 0, 0), "B"))


class TestParseSummaryCsv:
    def test_valid_rows(self):
        ds = parse_summary_csv(SUMMARY, source="mem", window="2009-2010")
        assert ds.format == "summary-csv"
        assert ds.window == "2009-2010"
        assert ds.records[0] == SummaryRecord("J Informetr", papers=105, h=18,
                                              uncited=5, citations=1132, core_citations=574)

    def test_crlf_and_bom_accepted(self):
        data = ("﻿" + SUMMARY.replace("\n", "\r\n")).encode("utf-8")
        ds = parse_summary_csv(data)
        assert len(ds.records) == 2

    def test_impossible_record_rejected_with_row(self):
        bad = "name,P,h,Pz,C,Ch\nX,10,4,0,20,15\n"
        with pytest.raises(ValidationError, match=r"row 2.*Ch < h\^2"):
            parse_summary_csv(bad)

    def test_missing_columns_in_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_summary_csv("name,P,h\nA,1,1\n")

    def test_short_row(self):
        with pytest.raises(ParseError, match="row 2"):
            parse_summary_csv("name,P,h,Pz,C,Ch\nA,1,1\n")

    def test_non_integer_cell(self):
        with pytest.raises(ParseError, match="row 2.*P"):
            parse_summary_csv("name,P,h,Pz,C,Ch\nA,x,1,0,3,2\n")

    def test_duplicate_names(self):
        dup = SUMMARY + "J Informetr,105,18,5,1132,574\n"
        with pytest.raises(DuplicateEntity, match="J Informetr"):
            parse_summary_csv(dup)

    def test_quoted_name_with_comma(self):
        data = 'name,P,h,Pz,C,Ch\n"Libr, J",10,2,3,9,5\n'
        ds = parse_summary_csv(data)
        assert ds.records[0].name == "Libr, J"


@st.composite
def summary_line(draw, i: int) -> str:
    """Summary CSV row i: most are valid, the rest break one rule or another
    (column count, name, cell text, an invariant) or are blank."""
    name = f"e{i}"
    if draw(st.integers(0, 7)) == 0:
        name = draw(st.sampled_from(["", " ", "e0", " e1 ", '"d,e"', '"d,e"']))
    p = draw(st.integers(1, 9))
    h = draw(st.integers(0, p))
    pz = draw(st.integers(0, p - h))
    ch = h * h + draw(st.integers(0, 3)) if h else 0
    c = ch + draw(st.integers(0, 4)) if h else 0
    cells = [str(v) for v in (p, h, pz, c, ch)]
    if draw(st.integers(0, 5)) == 0:
        i = draw(st.integers(0, 4))
        cells[i] = draw(st.sampled_from(["-1", "x", " 7 ", "\x1c3", "1_0", "+2", "", "20"]))
    if draw(st.integers(0, 11)) == 0:
        cells = cells[:draw(st.integers(0, 5))]
    return ",".join([name, *cells]) if cells or name else ""


summary_files = st.integers(0, 10).flatmap(
    lambda n: st.tuples(*(summary_line(i) for i in range(n))))


def _outcome(parse):
    try:
        return parse()
    except CitetraceError as err:
        return type(err), str(err)


def _joined(chunks):
    """The chunks of columns joined into one set of columns."""
    chunks = list(chunks)
    assert all(chunks) and all(len(set(map(len, chunk))) == 1 for chunk in chunks)
    return tuple([value for chunk in chunks for value in chunk[k]] for k in range(6))


class TestSummaryColumns:
    """summary_columns against the row-by-row parse: the same columns, or the
    same first error, for any chunk size."""

    @settings(max_examples=300, deadline=None)
    @given(summary_files, st.sampled_from([1, 2, 3, 1024]),
           st.sampled_from(["\n", "\r\n"]))
    def test_columns_or_error_equal_the_row_parse(self, lines, chunk_rows, newline):
        data = newline.join(["name,P,h,Pz,C,Ch", *lines]) + newline
        with mock.patch.object(partition, "_CHUNK_ROWS", chunk_rows):
            got = _outcome(lambda: _joined(summary_columns(data)))
        assert got == _outcome(lambda: record_columns(parse_summary_csv(data).records))

    @pytest.mark.parametrize("data", ["", "name,P,h\n", "name,P,h,Pz,C,Ch\n\n\n",
                                      b"name,P,h,Pz,C,Ch\nA\xff,2,1,0,3,2\n"])
    def test_header_text_and_empty_files(self, data):
        assert _outcome(lambda: list(summary_columns(data))) == _outcome(
            lambda: [] if not parse_summary_csv(data).records else None)


@st.composite
def citations_line(draw, i: int) -> str:
    """Citations CSV row i: most are valid, the rest break one rule or another
    (column count, name, a count's text, its sign, an empty list) or are blank."""
    name = f"e{i}"
    if draw(st.integers(0, 7)) == 0:
        name = draw(st.sampled_from(["", " ", "e0", " e1 ", '"d,e"', '"d,e"']))
    counts = [str(c) for c in draw(st.lists(st.integers(0, 9), min_size=1, max_size=6))]
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(counts) - 1))
        counts[i] = draw(st.sampled_from([" 7 ", "\x1c3\x1f", "+3", "3_0", "-1", "", "x",
                                          "9" * 4301, str(10 ** 400)]))
    cells = [";".join(counts)]
    if draw(st.integers(0, 7)) == 0:
        cells = [draw(st.sampled_from(["", " ", "0;0;0", "-2;-1", "4;4;4;4"]))]
    if draw(st.integers(0, 11)) == 0:
        cells = draw(st.sampled_from([[], [*cells, "2"]]))
    return ",".join([name, *cells]) if cells or name else ""


citations_files = st.integers(0, 10).flatmap(
    lambda n: st.tuples(*(citations_line(i) for i in range(n))))


class TestCitationColumns:
    """citation_columns against the row-by-row parse: the same columns, or the
    same first error, for any chunk size."""

    @settings(max_examples=300, deadline=None)
    @given(citations_files, st.sampled_from([1, 2, 3, 1024]),
           st.sampled_from(["\n", "\r\n"]))
    def test_columns_or_error_equal_the_row_parse(self, lines, chunk_rows, newline):
        data = newline.join(["name,citations", *lines]) + newline
        with mock.patch.object(partition, "_CHUNK_ROWS", chunk_rows):
            got = _outcome(lambda: _joined(citation_columns(data)))
        assert got == _outcome(lambda: record_columns(parse_citations_csv(data).records))

    @pytest.mark.parametrize("data", ["", "name,citations,x\n", "name,citations\n\n\n",
                                      b"name,citations\nA\xff,2;1\n"])
    def test_header_text_and_empty_files(self, data):
        assert _outcome(lambda: list(citation_columns(data))) == _outcome(
            lambda: [] if not parse_citations_csv(data).records else None)


class TestCountMemo:
    """citation_columns converts each distinct count text once per chunk; the
    columns, or the first error, stay those of parse_citations_csv."""

    @staticmethod
    def _same_as_the_row_parse(data):
        got = _outcome(lambda: _joined(citation_columns(data)))
        assert got == _outcome(lambda: record_columns(parse_citations_csv(data).records))
        return got

    def test_one_count_written_several_ways(self):
        data = "name,citations\na,7;70\nb, 7 ;7_0\nc,07;+7;70\nd,7;7;7_0\n"
        with mock.patch.object(datasets._Counts, "__missing__", autospec=True,
                               side_effect=datasets._Counts.__missing__) as convert:
            got = self._same_as_the_row_parse(data)
        assert got[4] == [77, 77, 84, 84]  # C: every text of 7 read as 7, "7_0" as 70
        assert sorted(call.args[1] for call in convert.call_args_list) == [
            " 7 ", "+7", "07", "7", "70", "7_0"]

    def test_a_count_past_the_digit_limit_is_never_kept(self):
        big = "9" * 4301
        memo = datasets._Counts()
        for _ in range(2):
            with pytest.raises(ValueError):
                memo[big]
        assert big not in memo
        got = self._same_as_the_row_parse(f"name,citations\na,1;{big}\nb,{big};2\n")
        assert got == (ParseError, "row 2: citation count is too large: an integer of 4301 "
                                   f"digits, {big[:40]!r}...")

    def test_more_distinct_texts_than_the_memo_holds(self, monkeypatch):
        cleared = []

        class Counts(datasets._Counts):
            def clear(self):
                cleared.append(len(self))
                super().clear()

        monkeypatch.setattr(datasets, "_Counts", Counts)
        monkeypatch.setattr(datasets, "_MEMO_TEXTS", 2)
        lines = [f"e{i},{i};{i + 1};{2 * i}" for i in range(9)]
        self._same_as_the_row_parse("\n".join(["name,citations", *lines]) + "\n")
        assert cleared and all(2 < size <= 5 for size in cleared)


class TestRejectedChunk:
    """A chunk that fails the bulk check is parsed row by row on its own;
    the chunks after it are checked in bulk again."""

    @pytest.mark.parametrize("read, header, row, padded", [
        (summary_columns, "name,P,h,Pz,C,Ch", "e{},3,1,0,2,1", "p,\x1c3,1,0,2,1"),
        (citation_columns, "name,citations", "e{},3;1;0", "p,\x1c3;1;0"),
    ], ids=["summary", "citations"])
    def test_only_the_rejected_chunk_is_parsed_row_by_row(self, read, header, row, padded):
        rows = [row.format(i) for i in range(9)]
        rows[4] = padded
        data = "\n".join([header, *rows]) + "\n"
        with mock.patch.object(partition, "_CHUNK_ROWS", 3), \
                mock.patch.object(datasets, "_parse_csv", wraps=datasets._parse_csv) as parse:
            columns = _joined(read(data))
        assert columns[0] == [f"e{i}" if i != 4 else "p" for i in range(9)]
        assert parse.call_count == 1
        assert [line for line, _ in parse.call_args.args[0]] == [5, 6, 7]

    @pytest.mark.parametrize("parse, read, data", [
        (parse_summary_csv, summary_columns,
         'name,P,h,Pz,C,Ch\na,3,1,0,2,1\nb,3,1,0,2,1\nc,0,0,0,0,0\nd,"2"3,1,0,2,1\n'),
        (parse_summary_csv, summary_columns,
         'name,P,h,Pz,C,Ch\na,3,1,0,2,1\nb,3,1,0,2,1\nc,"2"3,1,0,2,1\nd,0,0,0,0,0\n'),
        (parse_citations_csv, citation_columns,
         'name,citations\na,3;1\nb,3;1\nc,4;-1\nd,"2"3\n'),
        (parse_citations_csv, citation_columns,
         'name,citations\na,3;1\nb,3;1\nc,"2"3\nd,4;-1\n'),
    ], ids=["summary-bad-row-first", "summary-csv-error-first", "citations-bad-row-first",
            "citations-csv-error-first"])
    def test_a_row_the_csv_module_rejects_comes_in_input_order(self, monkeypatch, parse, read,
                                                               data):
        # a strict reader stands in for a reader error, as in TestParseCitationsCsv
        monkeypatch.setattr(csv, "reader", functools.partial(csv.reader, strict=True))
        monkeypatch.setattr(partition, "_CHUNK_ROWS", 2)  # rows 4 and 5 make the second chunk
        got = _outcome(lambda: _joined(read(data)))
        assert got == _outcome(lambda: parse(data)) and got[1].startswith("row 4: ")


@st.composite
def metric_line(draw, i: int) -> str:
    """Metric CSV row i under name,IF,IF5: most are valid, the rest break one
    rule or another (column count, name, a value's text, a strict reader's
    quoting) or are blank; 1e308 twice in a column sums past the float range."""
    name = f"e{i}"
    if draw(st.integers(0, 7)) == 0:
        name = draw(st.sampled_from(["", " ", "e0", " e1 ", '"d,e"', '"d,e"']))
    cells = [draw(st.sampled_from(["1.5", "0", "-2", " 3 ", "2.5e-3", "1e308"])) for _ in "ab"]
    if draw(st.integers(0, 4)) == 0:
        cells[draw(st.integers(0, 1))] = draw(st.sampled_from(["nan", "inf", "x", "", '"2"3']))
    if draw(st.integers(0, 11)) == 0:
        cells = draw(st.sampled_from([[], cells[:1], [*cells, "2"]]))
    return ",".join([name, *cells]) if cells or name else ""


metric_files = st.integers(0, 10).flatmap(
    lambda n: st.tuples(*(metric_line(i) for i in range(n))))


def _metric_rows(data):
    """The metric table as the row loop alone reads it: the reference."""
    rows = datasets._rows(data)
    _, header = next(rows)
    values = datasets._parse_csv(rows, header, datasets._metric_row, set())
    return tuple(h.strip() for h in header[1:]), dict(values)


class TestMetricColumns:
    """parse_metric_csv against the row loop: the same rows, or the same
    first error, for any chunk size, with or without a strict reader."""

    @settings(max_examples=300, deadline=None)
    @given(metric_files, st.sampled_from([1, 2, 3, 1024]), st.sampled_from(["\n", "\r\n"]),
           st.booleans())
    def test_rows_or_error_equal_the_row_loop(self, lines, chunk_rows, newline, strict):
        data = newline.join(["name,IF, IF5 ", *lines]) + newline
        reader = functools.partial(csv.reader, strict=True) if strict else csv.reader
        with mock.patch.object(partition, "_CHUNK_ROWS", chunk_rows), \
                mock.patch.object(csv, "reader", reader):
            got = _outcome(lambda: tuple(parse_metric_csv(data)))
            assert got == _outcome(lambda: _metric_rows(data))

    @pytest.mark.parametrize("chunk_rows", [1, 2, 1024])
    @pytest.mark.parametrize("data", [
        "name,IF,IF5\na,1e308,1e308\nb,1e308,1e308\n",
        "name,IF,IF5\na,1,2\nb,3,4\nc,\"2\"3,5\n",
    ], ids=["overflowing-sum", "strict-reader-error-later"])
    def test_chunks_the_bulk_check_sends_to_the_row_loop(self, monkeypatch, data, chunk_rows):
        monkeypatch.setattr(csv, "reader", functools.partial(csv.reader, strict=True))
        monkeypatch.setattr(partition, "_CHUNK_ROWS", chunk_rows)
        got = _outcome(lambda: tuple(parse_metric_csv(data)))
        assert got == _outcome(lambda: _metric_rows(data))
        assert got in [(("IF", "IF5"), {"a": (1e308, 1e308), "b": (1e308, 1e308)}),
                       (ParseError, "row 4: ',' expected after '\"'")]


class TestRowsOfBytes:
    """Bytes are decoded 8 KB at a time as rows are read: the rows and line
    numbers equal those of the text, where a line may end at \\n, \\r or
    \\r\\n and nowhere else, whatever straddles a decoding boundary.  Both
    lose one leading BOM, and only one."""

    @settings(max_examples=300)
    @given(st.integers(8150, 8200), st.integers(0, 2),
           st.lists(st.sampled_from(["a", ",", '"', "\r", "\n", "\r\n", "é", "😀",
                                     "\x85", "\u2028", "\x0b", "\x1c"]),
                    max_size=60).map("".join))
    def test_rows_equal_those_of_the_text(self, pad, boms, tail):
        text = "\ufeff" * boms + "x,y\n" + "z" * pad + tail
        assert list(datasets._rows(text.encode())) == list(datasets._rows(text))


class TestParseCitationsCsv:
    def test_counts_parsed(self):
        ds = parse_citations_csv(CITATIONS)
        assert ds.format == "citations-csv"
        assert ds.records == CITATION_RECORDS

    def test_empty_list_rejected(self):
        with pytest.raises(ParseError, match="empty citation list"):
            parse_citations_csv("name,citations\nC,\n")

    def test_malformed_count(self):
        with pytest.raises(ParseError, match="malformed"):
            parse_citations_csv("name,citations\nC,3;x;1\n")

    def test_negative_count(self):
        with pytest.raises(ValidationError, match="row 2"):
            parse_citations_csv("name,citations\nC,3;-1\n")

    def test_duplicate_names(self):
        with pytest.raises(DuplicateEntity):
            parse_citations_csv("name,citations\nA,1\nA,2\n")

    def test_wrong_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_citations_csv("entity,counts\nA,1\n")

    def test_list_longer_than_the_csv_default_field_limit(self):
        rng = random.Random(70_000)
        counts = [rng.randrange(40) for _ in range(70_000)]
        cell = ";".join(map(str, counts))
        assert len(cell) > 131_072  # the csv module's default field limit
        ds = parse_citations_csv(f"name,citations\nBig,{cell}\nSmall,3;2;1\n")
        assert ds.records == (summarize(counts, "Big"), summarize((3, 2, 1), "Small"))

    def test_csv_error_names_the_row(self, monkeypatch):
        # Python 3.10's reader rejects a NUL byte; later ones accept it, so a
        # strict reader stands in for a reader error here
        monkeypatch.setattr(csv, "reader", functools.partial(csv.reader, strict=True))
        with pytest.raises(ParseError, match="^row 3: ',' expected after '\"'$"):
            parse_citations_csv('name,citations\nA,1\nB,"2"3\n')


class TestParseJson:
    def test_summary_objects(self):
        payload = json.dumps([
            {"name": "A", "P": 10, "h": 2, "Pz": 3, "C": 9, "Ch": 5},
        ])
        ds = parse_json(payload)
        assert ds.records[0] == SummaryRecord("A", papers=10, h=2, uncited=3,
                                              citations=9, core_citations=5)

    def test_citation_objects_list_and_string(self):
        payload = json.dumps([
            {"name": "A", "citations": [10, 8, 5]},
            {"name": "B", "citations": "3;2;0"},
        ])
        ds = parse_json(payload)
        assert ds.records == (summarize((10, 8, 5), "A"), summarize((3, 2, 0), "B"))

    def test_mixed_record_types_rejected(self):
        payload = json.dumps([
            {"name": "A", "citations": [1]},
            {"name": "B", "P": 10, "h": 2, "Pz": 3, "C": 9, "Ch": 5},
        ])
        with pytest.raises(ParseError, match="mixed"):
            parse_json(payload)

    def test_unexpected_fields_rejected(self):
        with pytest.raises(ParseError, match="fields"):
            parse_json(json.dumps([{"name": "A", "P": 1}]))

    def test_not_an_array(self):
        with pytest.raises(ParseError, match="array"):
            parse_json(json.dumps({"name": "A"}))

    def test_lone_surrogate_in_a_name_rejected(self):
        # only a JSON escape can give one; UTF-8 cannot encode it, so no stream could write it
        payload = '[{"name": "A", "citations": [1]}, {"name": "A\\ud800", "citations": [3, 2, 1]}]'
        with pytest.raises(ParseError, match="^item 1: name holds a lone surrogate"):
            parse_json(payload)
        assert parse_json('[{"name": "A\\ud83d\\ude00", "citations": [1]}]').records[0].name == "A😀"

    def test_invalid_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_json("{nope")
        # text and bytes each lose one leading BOM, so a second one is invalid in both
        for data in ("\ufeff\ufeff[]", "\ufeff\ufeff[]".encode()):
            with pytest.raises(ParseError, match="^invalid JSON: Unexpected UTF-8 BOM"):
                parse_json(data)

    def test_boolean_count_rejected(self):
        with pytest.raises(ParseError):
            parse_json(json.dumps([{"name": "A", "citations": [True]}]))

    def test_duplicate_names(self):
        payload = json.dumps([
            {"name": "A", "citations": [1]},
            {"name": "A", "citations": [2]},
        ])
        with pytest.raises(DuplicateEntity):
            parse_json(payload)

    def test_names_are_stripped_like_csv(self):
        payload = json.dumps([{"name": " A ", "citations": [3, 2, 1]}])
        csv_names = [r.name for r in parse_citations_csv("name,citations\n A ,3;2;1\n").records]
        assert [r.name for r in parse_json(payload).records] == csv_names == ["A"]

    def test_duplicate_after_stripping(self):
        payload = json.dumps([
            {"name": "A", "citations": [1]},
            {"name": "A ", "citations": [2]},
        ])
        with pytest.raises(DuplicateEntity, match="item 1"):
            parse_json(payload)

    def test_validation_error_carries_item_index(self):
        payload = json.dumps([{"name": "X", "P": 10, "h": 4, "Pz": 0, "C": 20, "Ch": 15}])
        with pytest.raises(ValidationError, match="item 0"):
            parse_json(payload)

    FIELDS = ("fields must be exactly ('name', 'P', 'h', 'Pz', 'C', 'Ch') "
              "or ('name', 'citations')")

    @pytest.mark.parametrize("payload, message", [
        ('{"name": "A"}', "JSON dataset must be an array of objects"),
        ('[{"name": "A", "citations": [1]}, 3]', "item 1: expected an object"),
        ('[[]]', "item 0: expected an object"),
        ('[{"name": "A", "P": 1}]', "item 0: " + FIELDS),
        ('[{"name": "A", "citations": [1], "P": 1}]', "item 0: " + FIELDS),
        ('[{"name": "A", "P": 1, "h": 0, "Pz": 0, "C": 0, "Ch": 0}, {"name": "B", '
         '"citations": [1]}]', "item 1: mixed record types in one dataset"),
        ('[{"name": 7, "citations": [1]}]', "item 0: name must be a string"),
        ('[{"name": null, "P": 1, "h": 0, "Pz": 0, "C": 0, "Ch": 0}]',
         "item 0: name must be a string"),
        ('[{"name": "\\udc00 A", "citations": [1]}]',
         "item 0: name holds a lone surrogate, which UTF-8 cannot encode"),
    ], ids=["not-an-array", "not-an-object", "list-item", "too-few-fields", "both-kinds",
            "mixed", "number-name", "null-name", "lone-surrogate"])
    def test_first_error_of_each_json_rule(self, payload, message):
        assert _outcome(lambda: parse_json(payload)) == (ParseError, message)

    SUMMARY_A = {"name": "A", "P": 1, "h": 0, "Pz": 0, "C": 0, "Ch": 0}

    @pytest.mark.parametrize("items, error, message", [
        # a structural error before a duplicate name
        ([{"name": "A", "citations": [1]}, {"name": "A", "P": 1}],
         ParseError, "item 1: " + FIELDS),
        ([{"name": "A", "citations": [1]}, SUMMARY_A],
         ParseError, "item 1: mixed record types in one dataset"),
        # a duplicate name before a bad field type or an invalid record
        ([{"name": "A", "citations": [1]}, {"name": " A", "citations": [True]}],
         DuplicateEntity, "item 1: duplicate entity 'A'"),
        ([SUMMARY_A, {**SUMMARY_A, "name": "A ", "P": "x"}],
         DuplicateEntity, "item 1: duplicate entity 'A'"),
        ([SUMMARY_A, {**SUMMARY_A, "P": 0}], DuplicateEntity, "item 1: duplicate entity 'A'"),
        # the first bad field type in field order, before the record's own checks
        ([{**SUMMARY_A, "name": "", "h": 1.5, "C": "2"}], ParseError, "item 0: h must be an integer"),
        ([{"name": "", "citations": []}], ParseError, "item 0: empty citation list"),
        ([{"name": "", "citations": [1]}], ValidationError,
         "item 0: entity name must be non-empty"),
    ], ids=["fields-before-duplicate", "mixed-before-duplicate", "duplicate-before-count-type",
            "duplicate-before-field-type", "duplicate-before-invalid", "field-order",
            "empty-list-before-name", "blank-name"])
    def test_order_of_errors_within_an_item(self, items, error, message):
        assert _outcome(lambda: parse_json(json.dumps(items))) == (error, message)

    @pytest.mark.parametrize("items, error, message", [
        ([{"name": "X", "P": 10, "h": 4, "Pz": 0, "C": 20, "Ch": 15}, 5], ValidationError,
         "item 0: X: Ch < h^2 (15 < 16); each core paper has >= h citations"),
        ([{"name": "A", "citations": []}, SUMMARY_A], ParseError, "item 0: empty citation list"),
        ([{"name": "A", "citations": [1]}, {"name": "A", "citations": [1]}, {"name": "B"}],
         DuplicateEntity, "item 1: duplicate entity 'A'"),
        # item 0's kind decides what "mixed" means
        ([SUMMARY_A, {**SUMMARY_A, "name": "B"}, {"name": "C", "citations": [1]}], ParseError,
         "item 2: mixed record types in one dataset"),
        ([{"name": "A", "citations": [1]}, {"name": "B", "citations": "2;0"}, SUMMARY_A],
         ParseError, "item 2: mixed record types in one dataset"),
        ([{"name": "A"}, {"name": "B", "citations": [1]}], ParseError, "item 0: " + FIELDS),
    ], ids=["invalid-before-structure", "bad-list-before-mixed", "duplicate-before-fields",
            "summary-first", "citations-first", "bad-item-0"])
    def test_order_of_errors_across_items(self, items, error, message):
        assert _outcome(lambda: parse_json(json.dumps(items))) == (error, message)

    def test_empty_array_gives_no_records(self):
        assert parse_json("[]") == DatasetFile("json", ())
        assert parse_json(b" [ ] ", source="s", window="w") == DatasetFile("json", (), "s", "w")


class TestRoundTrips:
    def test_summary_csv_round_trip(self):
        ds = parse_summary_csv(SUMMARY)
        assert parse_summary_csv(dataset_to_csv(ds)).records == ds.records

    def test_citations_csv_round_trip(self):
        ds = parse_citations_csv(CITATIONS)
        assert ds.records == CITATION_RECORDS
        assert parse_summary_csv(dataset_to_csv(ds)).records == ds.records

    def test_citations_serialize_as_summaries(self):
        ds = parse_citations_csv(CITATIONS)
        assert dataset_to_csv(ds) == "name,P,h,Pz,C,Ch\nA,5,4,0,30,27\nB,3,0,3,0,0\n"
        assert json.loads(dataset_to_json(ds))[1] == {"name": "B", "P": 3, "h": 0, "Pz": 3,
                                                      "C": 0, "Ch": 0}

    def test_json_round_trip_both_kinds(self):
        for ds in (parse_summary_csv(SUMMARY), parse_citations_csv(CITATIONS)):
            assert parse_json(dataset_to_json(ds)).records == ds.records

    def test_quoted_names_survive(self):
        for name in ('"Libr, J"', '"A\rB"'):
            ds = parse_summary_csv(f"name,P,h,Pz,C,Ch\n{name},10,2,3,9,5\n")
            assert parse_summary_csv(dataset_to_csv(ds)).records == ds.records

    @pytest.mark.parametrize("name, cell", [
        ("Libr, J", '"Libr, J"'), ("A\rB", '"A\rB"'), ("A\r\nB", '"A\r\nB"'),
        ('say "A"', '"say ""A"""'), ("A\x00B", "A\x00B"), (" A\tB ", " A\tB "),
    ], ids=["comma", "bare-cr", "crlf", "quotes", "nul", "blanks"])
    def test_names_are_quoted_alike_on_every_python(self, name, cell):
        """A name is quoted when it holds a comma, a quote, CR or LF, and is
        written as it is otherwise, whatever the Python version."""
        ds = DatasetFile("summary-csv", (SummaryRecord(name, 10, 2, 3, 9, 5),))
        assert dataset_to_csv(ds) == f"name,P,h,Pz,C,Ch\n{cell},10,2,3,9,5\n"


_counts = st.integers(0, 10 ** 300 // 3) | st.integers(0, 50)


@st.composite
def serialized_records(draw) -> SummaryRecord:
    """A valid record with any name over the CSV and JSON special texts
    and counts of up to about 10^300."""
    name = draw(st.text(st.sampled_from([",", '"', "\r", "\n", "\x00", "é", "😀", "a", " "]),
                        min_size=1, max_size=6))
    h = draw(st.integers(0, 10 ** 150) | st.integers(0, 9))
    pt, pz = draw(_counts), draw(_counts)
    if h + pt + pz == 0:
        pz = 1
    ch = h * h + draw(_counts) if h else 0
    c = ch + draw(_counts) if h else 0
    return SummaryRecord(name, h + pt + pz, h, pz, c, ch)


@settings(max_examples=60, deadline=None)
@given(st.lists(serialized_records(), min_size=1, max_size=5),
       st.sampled_from([0, 1, 1024, 1025]))
def test_serializers_equal_the_cell_by_cell_oracle(drawn, size):
    """dataset_to_csv and dataset_to_json write what csv.writer and
    json.dumps write for the records' columns, across the chunk edge."""
    records = tuple(itertools.islice(itertools.cycle(drawn), size))
    rows = [record[:6] for record in records]
    header = ["name", "P", "h", "Pz", "C", "Ch"]
    for kind in ("summary-csv", "json"):
        dataset = DatasetFile(kind, records)
        assert dataset_to_csv(dataset) == write_csv(header, rows)
        assert dataset_to_json(dataset) == write_json(header, rows)


def test_subclass_values_are_written_as_their_base_type():
    """SummaryRecord takes a count of any int subclass but bool, and a name
    of any str subclass; the serializers write them as csv.writer and
    json.dumps did."""
    class Name(str):
        pass

    size = enum.IntEnum("Size", {"THREE": 3}).THREE
    first = SummaryRecord(Name('b,"'), size, 1, type("Count", (int,), {})(0), 2, 1)
    dataset = DatasetFile("summary-csv", (first, SummaryRecord("c", 3, 1, 0, size, 1)))
    assert dataset_to_csv(dataset) == 'name,P,h,Pz,C,Ch\n"b,""",3,1,0,2,1\nc,3,1,0,3,1\n'
    assert dataset_to_json(dataset) == json.dumps(
        [{"name": 'b,"', "P": 3, "h": 1, "Pz": 0, "C": 2, "Ch": 1},
         {"name": "c", "P": 3, "h": 1, "Pz": 0, "C": 3, "Ch": 1}], indent=2) + "\n"


class TestOneRecordType:
    """Every parser summarizes as it reads: records are ``SummaryRecord``s only."""

    @pytest.mark.parametrize("parse, data", [
        (parse_summary_csv, SUMMARY),
        (parse_citations_csv, CITATIONS),
        (parse_json, json.dumps([{"name": "A", "citations": [10, 8, 5, 4, 3]}])),
        (parse_json, json.dumps([{"name": "A", "citations": "10;8;5;4;3"}])),
        (parse_json, json.dumps([{"name": "A", "P": 10, "h": 2, "Pz": 3, "C": 9, "Ch": 5}])),
    ], ids=["summary-csv", "citations-csv", "json-list", "json-string", "json-summary"])
    def test_records_are_summary_records(self, parse, data):
        records = parse(data).records
        assert records and all(type(r) is SummaryRecord for r in records)

    def test_first_bad_count_names_the_row(self):
        with pytest.raises(ValidationError, match="^row 3: B: citation count must be >= 0, got -1$"):
            parse_citations_csv("name,citations\nA,1\nB,4;-1;-2\n")
        with pytest.raises(ValidationError,
                           match="^item 0: A: citation count must be >= 0, got -4$"):
            parse_json(json.dumps([{"name": "A", "citations": "1;-4;-5"}]))

    @pytest.mark.parametrize("parse, data, message", [
        (parse_summary_csv, "name,P,h,Pz,C,Ch\nA, x1 ,1,0,1,1\n",
         "row 2: P is not an integer: ' x1 '"),
        (parse_summary_csv, "name,P,h,Pz,C,Ch\nA,3,1, 1.0 ,z,1\n",
         "row 2: Pz is not an integer: ' 1.0 '"),
        (parse_summary_csv, "name,P,h,Pz,C,Ch\nA,3,1,0,2, \t\n",
         "row 2: Ch is not an integer: ' \\t'"),
        (parse_citations_csv, "name,citations\nA, a ;2;1\n",
         "row 2: malformed citation count ' a '"),
        (parse_citations_csv, "name,citations\nA,5;2 ;-;x\n",
         "row 2: malformed citation count '-'"),
        (parse_citations_csv, "name,citations\nA,5;2;1;\n",
         "row 2: malformed citation count ''"),
        (parse_json, json.dumps([{"name": "A", "citations": "5; 2;x "}]),
         "item 0: malformed citation count 'x '"),
    ], ids=["summary-first", "summary-middle", "summary-last", "citations-first",
            "citations-middle", "citations-last", "json-string-last"])
    def test_bad_cell_in_any_position_names_the_first_unstripped(self, parse, data, message):
        with pytest.raises(ParseError) as err:
            parse(data)
        assert str(err.value) == message

    @pytest.mark.parametrize("cell, summary, citations", [
        ("-" + "9_999" * 1200, "P is too large: an integer of 4800 digits, '-9_9999_",
         "citation count is too large: an integer of 4800 digits, '-9_9999_"),
        (" " + "7" * 4301 + " ", "P is too large: an integer of 4301 digits, '7777",
         "citation count is too large: an integer of 4301 digits, '7777"),
        ("7" * 4301 + "x", "P is not an integer: '7777", "malformed citation count '7777"),
        ("9__9" * 2000, "P is not an integer: '9__9", "malformed citation count '9__9"),
    ], ids=["signed-grouped", "padded", "trailing-letter", "double-underscore"])
    def test_long_cell_is_quoted_short_and_too_large_only_if_well_formed(self, cell, summary,
                                                                         citations):
        for parse, data, message in [
            (parse_summary_csv, f"name,P,h,Pz,C,Ch\nA,{cell},1,0,1,1\n", summary),
            (parse_citations_csv, f"name,citations\nA,1;{cell}\n", citations),
        ]:
            with pytest.raises(ParseError) as err:
                parse(data)
            assert str(err.value).startswith(f"row 2: {message}")
            assert str(err.value).endswith("'...") and len(str(err.value)) < 120

    def test_cells_padded_with_any_strip_whitespace_parse(self):
        # int() alone does not strip "\x1c" to "\x1f"; str.strip() does
        summary = parse_summary_csv("name,P,h,Pz,C,Ch\nA,\x1c3\x1f, 1 ,0,2,1\n")
        assert summary.records == (SummaryRecord("A", 3, 1, 0, 2, 1),)
        citations = parse_citations_csv("name,citations\nA,5;2;\x1d1\x1e\n")
        assert citations.records == (summarize([5, 2, 1], "A"),)


class TestParseMetricCsv:
    def test_multiple_metric_columns(self):
        table = parse_metric_csv("name,IF,IF5\n\n A ,1.5,2.5\nB,0.4,0.9\n")  # blank line, padded name
        assert table.metrics == ("IF", "IF5")
        assert table.rows == {"A": (1.5, 2.5), "B": (0.4, 0.9)}

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse_metric_csv("entity,IF\nA,1\n")
        assert str(err.value) == "metric CSV header must be name,<metric>[,<metric>...]"

    @pytest.mark.parametrize("data, error, message", [
        ("name,IF\nA,1\nB,1,2\n", ParseError, "row 3: expected 2 columns, got 3"),
        ("name,IF\nA,1\n\n A ,2\n", DuplicateEntity, "row 4: duplicate entity 'A'"),
        ("name,IF\nA,high\n", ParseError, "row 2: metric values must be numeric"),
        ("name,IF\nA,nan\n", ParseError, "row 2: metric values must be finite"),
        ("name,IF\nA,1e400\n", ParseError, "row 2: metric values must be finite"),
        ("name,IF\n,1\nB,2\n", ValidationError, "row 2: entity name must be non-empty"),
    ], ids=["columns", "duplicate", "numeric", "nan", "overflow", "blank-name"])
    def test_row_error_text(self, data, error, message):
        with pytest.raises(CitetraceError) as err:
            parse_metric_csv(data)
        assert (type(err.value), str(err.value)) == (error, message)

    def test_duplicate_metric_column(self):
        with pytest.raises(ParseError, match="duplicate metric column 'IF'"):
            parse_metric_csv("name,IF, IF\nA,1,2\n")
