"""The CLI's column-wise report renderers against the cell-by-cell oracle in
``tests/oracles.py``: byte-identical text for every output format, whatever
the number of rows per written block."""

import collections
import csv
import io
import json
import math
import random
import struct
import sys
import tracemalloc
from decimal import Decimal, localcontext
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citetrace import (DatasetFile, SummaryRecord, dataset_to_csv, rank_entities, score,
                       score_table)
from citetrace import cli, partition
from citetrace.cli import _format_sig, _write_table, main
from citetrace.datasets import _write_csv, _write_json

from cli_runner import CliRunner
from oracles import format_sig, write_csv, write_json, write_table

SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max,
                  9.999999999999999e307, 0.5, 2.5, 9.5, 0.05, 999.95, 1e23, 1e16]

names = st.text(alphabet=st.sampled_from(list('ab ,"\n\r{}%\\é漢😀\x00')) | st.characters(),
                max_size=8)
ints = st.integers(min_value=-10 ** 300, max_value=10 ** 300) | st.integers(-10, 10 ** 6)
floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
# every report column holds values of one type
cells = {"str": names, "int": ints, "float": floats, "none": st.none()}


@st.composite
def reports(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(cells)), min_size=1, max_size=5))
    headers = draw(st.lists(names.filter(bool), min_size=len(kinds), max_size=len(kinds),
                            unique=True))
    rows = draw(st.lists(st.tuples(*(cells[kind] for kind in kinds)), max_size=6))
    return headers, rows


def render(writer, headers, rows, *args, keep=None, ranked=False) -> str:
    """A report's whole text from its chunks: its rows turned into columns,
    only those at ``keep`` if given, fed as ``cli._blocks`` feeds them."""
    columns = list(zip(*rows)) if rows else [()] * (len(headers) - ranked)
    if keep is not None:
        columns = [columns[i] for i in keep]
    return "".join(writer(headers, cli._blocks(columns, ranked=ranked), *args))


@settings(max_examples=400, deadline=None)
@given(report=reports(), figures=st.integers(min_value=1, max_value=17),
       block_rows=st.sampled_from([1, 2, 3, 1024]))
def test_renderers_match_the_cell_by_cell_oracle(report, figures, block_rows):
    headers, rows = report
    with mock.patch.object(partition, "_CHUNK_ROWS", block_rows):
        assert render(_write_csv, headers, rows) == write_csv(headers, rows)
        assert render(_write_json, headers, rows) == write_json(headers, rows)
        assert render(_write_table, headers, rows, figures) == write_table(headers, rows, figures)


def test_empty_reports():
    for headers in (["name"], ["rank", "name", "T"]):
        assert render(_write_json, headers, []) == write_json(headers, []) == "[]\n"
        assert render(_write_table, headers, [], 4) == write_table(headers, [], 4)
        assert render(_write_csv, headers, []) == write_csv(headers, [])


# the texts the CSV quoting rule looks at; NUL too from Python 3.11, as
# csv.reader rejects it before
CSV_TEXTS = [",", '"', "\r", "\n", "\r\n", "é", "a"] + ["\x00"] * (sys.version_info >= (3, 11))
csv_texts = st.lists(st.sampled_from(CSV_TEXTS), max_size=6).map("".join)


@settings(max_examples=300, deadline=None)
@given(header=csv_texts, texts=st.lists(csv_texts, min_size=1, max_size=6),
       block_rows=st.sampled_from([1, 2, 1024]))
def test_csv_reads_back(header, texts, block_rows):
    """csv.reader reads back every cell that the CSV writers write: a
    report of one column and one of two, and a summary CSV."""
    def read(text):
        return list(csv.reader(io.StringIO(text, newline="")))

    with mock.patch.object(partition, "_CHUNK_ROWS", block_rows):
        assert read(render(_write_csv, [header], [(t,) for t in texts])) == [
            [header], *([t] for t in texts)]
        assert read(render(_write_csv, [header, "n"], [(t, i) for i, t in enumerate(texts)])) == [
            [header, "n"], *([t, str(i)] for i, t in enumerate(texts))]
    names = [t for t in texts if t]  # a record's name is never empty
    records = tuple(SummaryRecord(name, 1, 0, 0, 0, 0) for name in names)
    assert read(dataset_to_csv(DatasetFile("summary-csv", records))) == [
        ["name", "P", "h", "Pz", "C", "Ch"], *([name, "1", "0", "0", "0", "0"] for name in names)]


def _entity(i: int) -> SummaryRecord:
    """A valid summary record that varies with i; every other name carries
    an ANSI colour sequence, which the CLI prints as given."""
    h = 1 + i % 9
    papers = h + 5 + i % 37
    ch = h * h + i * 7 % 23
    name = f"j{i:04d}" if i % 2 else f"\x1b[31mj{i:04d}\x1b[0m"
    return SummaryRecord(name, papers, h, i % 3, ch + (papers - h) * (i % 4) + 2, ch)


@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_block_edges_match_the_oracle(monkeypatch, block_rows):
    monkeypatch.setattr(partition, "_CHUNK_ROWS", block_rows)
    scores = [score(_entity(i)) for i in range(11)]
    headers = list(scores[0]._fields)
    assert render(_write_csv, headers, scores) == write_csv(headers, scores)
    assert render(_write_json, headers, scores) == write_json(headers, scores)
    assert render(_write_table, headers, scores, 4) == write_table(headers, scores, 4)
    ranked = [(i, *s) for i, s in enumerate(scores, start=1)]
    assert render(_write_csv, ["rank", *headers], scores, ranked=True) == write_csv(
        ["rank", *headers], ranked)
    assert render(_write_json, ["rank", *headers], scores, ranked=True) == write_json(
        ["rank", *headers], ranked)
    assert render(_write_table, ["rank", *headers], scores, 3, ranked=True) == write_table(
        ["rank", *headers], ranked, 3)
    keep = [0, 1, 14, 13]  # name, h, sign, T
    kept = ["rank", "name", "h", "sign", "T"]
    masked = [(i, s.name, s.h, s.sign, s.T) for i, s in enumerate(scores, start=1)]
    assert render(_write_csv, kept, scores, keep=keep, ranked=True) == write_csv(kept, masked)
    assert render(_write_json, kept, scores, keep=keep, ranked=True) == write_json(kept, masked)
    assert render(_write_table, kept, scores, 4, keep=keep, ranked=True) == write_table(
        kept, masked, 4)


def test_blocks_have_the_chunk_size_of_the_readers(monkeypatch):
    """Reports are written in blocks of partition._CHUNK_ROWS rows, the size
    the readers and the scoring kernel use, read when _blocks is called."""
    columns = [list("abcdefg"), list(range(7))]
    monkeypatch.setattr(partition, "_CHUNK_ROWS", 3)
    assert [[list(c) for c in block] for block in cli._blocks(columns)] == [
        [list("abc"), [0, 1, 2]], [list("def"), [3, 4, 5]], [["g"], [6]]]
    assert [[list(c) for c in block] for block in cli._blocks(columns, [6, 0, 5, 1], True)] == [
        [[1, 2, 3], list("gaf"), [6, 0, 5]], [[4], ["b"], [1]]]


@pytest.mark.parametrize("block_rows", [1, 2, 3, 1024])
def test_picked_rows_of_a_score_table_match_the_oracle(monkeypatch, block_rows):
    """_blocks on table columns with row positions, as rank feeds it: a
    permutation that repeats and skips rows, and no rows at all."""
    monkeypatch.setattr(partition, "_CHUNK_ROWS", block_rows)
    table = score_table(_entity(i) for i in range(11))
    headers = ["rank", *table._fields]
    for rows in ([10, 3, 3, 0, 7, 1, 9], [], list(range(11))):
        expected = [(n, *score(_entity(i))) for n, i in enumerate(rows, start=1)]
        blocks = cli._blocks(list(table), rows, ranked=True)
        assert "".join(_write_csv(headers, blocks)) == write_csv(headers, expected)
        blocks = cli._blocks(list(table), rows, ranked=True)
        assert "".join(_write_json(headers, blocks)) == write_json(headers, expected)
        blocks = cli._blocks(list(table), rows, ranked=True)
        assert "".join(_write_table(headers, blocks, 4)) == write_table(headers, expected, 4)


@pytest.mark.parametrize("column", [
    [1.5, math.inf, -2.0],
    [1.5, -math.inf, -2.0],
    [1.5, math.nan, -2.0],
    [sys.float_info.max] * 2,  # finite values whose float sum overflows
    [sys.float_info.max, -sys.float_info.max, math.inf],
], ids=["inf", "-inf", "nan", "sum-overflows", "sum-cancels"])
def test_json_floats_render_as_json_dumps(column):
    """_json_floats skips its per-cell lookup of non-finite texts when the
    column's sum is finite; every other column takes the lookup."""
    rows = [(value,) for value in column]
    expected = json.dumps([{"x": value} for value in column], indent=2) + "\n"
    assert render(_write_json, ["x"], rows) == expected
    assert render(_write_json, ["x"], rows) == write_json(["x"], rows)


@pytest.mark.parametrize("output", ["table", "csv", "json"])
@pytest.mark.parametrize("command", ["compute", "rank"])
@pytest.mark.parametrize("mask_x3", [False, True])
def test_multi_block_reports_equal_one_shot_rendering(tmp_path, command, output, mask_x3):
    records = [_entity(i) for i in range(2500)]  # three blocks of rows
    path = tmp_path / "entities.csv"
    path.write_text("name,P,h,Pz,C,Ch\n" + "".join(
        f"{r.name},{r.papers},{r.h},{r.uncited},{r.citations},{r.core_citations}\n"
        for r in records))
    scores = [score(r) for r in records]
    if command == "rank":
        scores = rank_entities(scores)
    headers = [f for f in scores[0]._fields if not (mask_x3 and f == "X3")]
    rows = [tuple(getattr(s, f) for f in headers) for s in scores]
    if command == "rank":
        headers = ["rank", *headers]
        rows = [(i, *row) for i, row in enumerate(rows, start=1)]
    # a table takes the batched cells up to cli._BATCH_FIGURES figures, and
    # _format_sig's past them
    for figures in (1, 4, 12, 13, 17) if output == "table" else (4,):
        args = [command, "--input", str(path), "--output", output, "--precision", str(figures)]
        result = CliRunner().invoke(main, args + ["--mask-x3"] * mask_x3, catch_exceptions=False)
        assert result.exit_code == 0
        one_shot = {"table": lambda: write_table(headers, rows, figures),
                    "csv": lambda: write_csv(headers, rows),
                    "json": lambda: write_json(headers, rows)}[output]()
        assert result.stdout == one_shot, figures


def _drain_peak(chunks) -> int:
    """The traced peak in bytes above the start while a report's chunks are drained."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    collections.deque(chunks, maxlen=0)
    return tracemalloc.get_traced_memory()[1] - before


def test_draining_a_report_holds_a_few_blocks_at_most():
    table = score_table(_entity(i) for i in range(20_000))
    headers = list(table._fields)
    columns = list(table)
    tracemalloc.start()
    try:
        for writer in (_write_json, _write_csv):
            assert _drain_peak(writer(headers, cli._blocks(columns))) < 3_000_000, writer.__name__
        # a table keeps every block until the widths are known: its numbers
        # as one string per column and block, about 150 B a row
        assert _drain_peak(_write_table(headers, cli._blocks(columns), 4)) < 6_000_000
        ranked = _write_table(["rank", *headers], cli._blocks(columns, ranked=True), 4)
        assert _drain_peak(ranked) < 6_000_000
    finally:
        tracemalloc.stop()


def _sweep_values():
    rng = random.Random(20130601)
    values = list(SPECIAL_FLOATS)
    while len(values) < 8_000:  # random bit patterns, finite only
        value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(value):
            values.append(value)
    for _ in range(6_000):
        values.append(rng.choice((1, -1)) * 10 ** rng.uniform(-30, 30))
    for exponent in range(-30, 31):  # either side of each power of ten
        value = float(f"1e{exponent}")
        for _ in range(50):
            values += [value, -value]
            value = math.nextafter(value, math.inf)
        value = float(f"1e{exponent}")
        for _ in range(50):
            value = math.nextafter(value, 0.0)
            values.append(value)
    return values


def test_format_sig_sweep_matches_oracle():
    exponent_texts = 0
    for value in _sweep_values():
        for figures in range(1, 18):
            text = _format_sig(value, figures)
            assert text == format_sig(value, figures), (value, figures)
            exponent_texts += "e" in text
    assert exponent_texts > 0


def test_float_cells_of_blocks_match_the_oracle(monkeypatch):
    """The batched float cells of a table against the oracle, in blocks of
    1, 2, B-1, B and B+1 rows, B the report block size; and blocks of only
    zeros, of only exponent notation, and of NaN, the infinities and -0.0.
    Up to cli._BATCH_FIGURES figures the pass writes some cells and
    _format_sig rewrites others; past it _format_sig writes every cell."""
    rewritten = []
    monkeypatch.setattr(cli, "_format_sig", lambda value, figures: rewritten.append(value)
                        or _format_sig(value, figures))
    B = partition._CHUNK_ROWS
    values = _sweep_values()
    special = [[0.0, -0.0] * 3, [1e300, -2.5e-300, 5e-324, 3.5e17, -9.99e15, 1.2e21, 12345.678],
               [math.nan, math.inf, -math.inf, -0.0, 1.5]]
    for figures in range(1, 18):
        expected = [format_sig(value, figures) for value in values]
        for size in (1, 2, B - 1, B, B + 1):
            rewritten.clear()
            cells = [cell for start in range(0, len(values), size)
                     for cell in cli._float_cells(values[start:start + size], figures)]
            assert cells == expected, (figures, size)
            if figures <= cli._BATCH_FIGURES:
                assert 0 < len(rewritten) < len(values), (figures, size)
            else:
                assert len(rewritten) == len(values), (figures, size)
        for column in special:
            assert cli._float_cells(column, figures) == [
                format_sig(value, figures) for value in column], (figures, column)


def test_batched_figures_end_where_log10_could_misjudge_a_decade():
    """The bound of cli._float_cells.  math.log10 is within 2 ulp of the
    logarithm here, on values either side of powers of ten and over the
    float range; so floor(log10|v|) can miss the decimal exponent only for
    v within a relative 2**-43 * ln 10 of a power of ten.  Every float that
    close to 10**k rounds to 10**k up to cli._BATCH_FIGURES figures, and
    not at one figure more."""
    values = [value for value in _sweep_values()[:8_000] if value != 0 and math.isfinite(value)]
    for k in range(-307, 309, 7):
        value = float(f"1e{k}")
        values += [math.nextafter(value, 0.0), value, math.nextafter(value, math.inf)]
    with localcontext() as context:
        context.prec = 60
        for value in values:
            exact = Decimal(abs(value)).log10()
            assert abs(Decimal(math.log10(abs(value))) - exact) <= 2 * Decimal(
                math.ulp(float(exact))), value
        margin = Decimal(2) ** -43 * Decimal(10).ln()
        for k in range(-307, 309):
            power = Decimal(10) ** k
            low, high = float(power * (1 - margin)), float(power * (1 + margin))
            for figures in range(1, cli._BATCH_FIGURES + 1):
                ten = "1" + "." * (figures > 1) + "0" * (figures - 1) + f"e{k:+03d}"
                assert "%.*e" % (figures - 1, low) == ten, (k, figures)
                assert "%.*e" % (figures - 1, high) == ten, (k, figures)
            figures = cli._BATCH_FIGURES + 1
            assert not ("%.*e" % (figures - 1, low)).startswith("1."), k


LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("block_rows", [1, 2, 1024])
def test_table_rows_stay_on_one_line(monkeypatch, block_rows):
    """A string cell holding any character that str.splitlines splits at
    keeps its row on one line, with that character escaped; the unit
    separator U+001F does not split and stays."""
    monkeypatch.setattr(partition, "_CHUNK_ROWS", block_rows)
    texts = ["plain", *(f"a{c}b" for c in LINE_BREAKS), "\r\n", "x\x1fy", LINE_BREAKS]
    rows = [(text, i) for i, text in enumerate(texts)]
    table = render(_write_table, ["name", "n"], rows, 4)
    assert table == write_table(["name", "n"], rows, 4)
    lines = table.split("\n")
    assert len(table.splitlines()) == len(lines) - 1 == len(rows) + 1
    assert [line.rsplit(None, 1)[0].rstrip(" ") for line in lines[1:-1]] == [
        "plain", "a\\nb", "a\\rb", "a\\x0bb", "a\\x0cb", "a\\x1cb", "a\\x1db", "a\\x1eb",
        "a\\x85b", "a\\u2028b", "a\\u2029b", "\\r\\n", "x\x1fy",
        "\\n\\r\\x0b\\x0c\\x1c\\x1d\\x1e\\x85\\u2028\\u2029"]


def test_table_number_texts_hold_no_newline():
    """_write_table keeps each block's columns joined by newlines until
    layout, which is lossless only while no text holds one: strings have
    theirs escaped, and no number's text has one."""
    values = _sweep_values()
    for figures in range(1, 18):
        assert not any("\n" in _format_sig(value, figures) for value in values), figures
    ints = [10 ** 300, -10 ** 300, 10 ** 300 - 1, 1 - 10 ** 300, 0, -1, 1]
    rows = [(value, ints[i % len(ints)], None) for i, value in enumerate(values)]
    for figures in (1, 4, 17):
        lines = render(_write_table, ["float", "int", "none"], rows, figures).split("\n")
        assert len(lines) == len(rows) + 2 and lines[-1] == ""
        assert [line.split() for line in lines[1:-1]] == [
            [_format_sig(value, figures), str(n)] for value, n, _ in rows]


# Past 128 characters of fixed notation, a value is written in exponent notation.
@pytest.mark.parametrize("value, figures, text", [
    (sys.float_info.max, 1, "2e+308"),
    (-sys.float_info.max, 4, "-1.798e+308"),
    (sys.float_info.max, 17, "1.7976931348623157e+308"),
    (9e127, 1, "9" + "0" * 127),  # 128 digits
    (-9e127, 1, "-9e+127"),  # 128 digits and the sign
    (1e23, 1, "1" + "0" * 23),  # the float is 99999999999999991611392
    (2.5, 1, "2"),
    (3.5, 1, "4"),
])
def test_format_sig_rounds_half_to_even_in_integers(value, figures, text):
    assert _format_sig(value, figures) == text
