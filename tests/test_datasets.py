"""Dataset parsing, validation wiring, and round-trip serialization."""

import json

import pytest

from citetrace import (
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

    def test_invalid_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_json("{nope")

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
        data = 'name,P,h,Pz,C,Ch\n"Libr, J",10,2,3,9,5\n'
        ds = parse_summary_csv(data)
        assert parse_summary_csv(dataset_to_csv(ds)).records == ds.records


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

    def test_cells_padded_with_any_strip_whitespace_parse(self):
        # int() alone does not strip "\x1c" to "\x1f"; str.strip() does
        summary = parse_summary_csv("name,P,h,Pz,C,Ch\nA,\x1c3\x1f, 1 ,0,2,1\n")
        assert summary.records == (SummaryRecord("A", 3, 1, 0, 2, 1),)
        citations = parse_citations_csv("name,citations\nA,5;2;\x1d1\x1e\n")
        assert citations.records == (summarize([5, 2, 1], "A"),)


class TestParseMetricCsv:
    def test_multiple_metric_columns(self):
        table = parse_metric_csv("name,IF,IF5\nA,1.5,2.5\nB,0.4,0.9\n")
        assert table.metrics == ("IF", "IF5")
        assert table.rows["A"] == (1.5, 2.5)

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_metric_csv("entity,IF\nA,1\n")

    def test_non_numeric_value(self):
        with pytest.raises(ParseError, match="numeric"):
            parse_metric_csv("name,IF\nA,high\n")

    def test_duplicate_entity(self):
        with pytest.raises(DuplicateEntity):
            parse_metric_csv("name,IF\nA,1\nA,2\n")

    def test_duplicate_metric_column(self):
        with pytest.raises(ParseError, match="duplicate metric column 'IF'"):
            parse_metric_csv("name,IF, IF\nA,1,2\n")
