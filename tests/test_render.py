"""The CLI's column-wise report renderers against the cell-by-cell oracle in
``tests/oracles.py``: byte-identical text for every output format, whatever
the number of rows per written block."""

import collections
import math
import random
import struct
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from citetrace import SummaryRecord, rank_entities, score
from citetrace import cli
from citetrace.cli import _format_sig, _write_csv, _write_json, _write_table, main

from oracles import format_sig, write_csv, write_json, write_table

SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max,
                  9.999999999999999e307, 0.5, 2.5, 9.5, 0.05, 999.95, 1e23, 1e16]

names = st.text(alphabet=st.sampled_from(list('ab ,"\n\r{}\\é漢😀\x00')) | st.characters(),
                max_size=8)
ints = st.integers(min_value=-10 ** 300, max_value=10 ** 300) | st.integers(-10, 10 ** 6)
floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
cells = {"str": names, "int": ints, "float": floats, "none": st.none(),
         "mixed": st.one_of(names, ints, floats, st.none())}


@st.composite
def reports(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(cells)), min_size=1, max_size=5))
    headers = draw(st.lists(names.filter(bool), min_size=len(kinds), max_size=len(kinds),
                            unique=True))
    rows = draw(st.lists(st.tuples(*(cells[kind] for kind in kinds)), max_size=6))
    return headers, rows


def render(writer, *args, **kwargs) -> str:
    """A report's whole text from its chunks."""
    return "".join(writer(*args, **kwargs))


@settings(max_examples=400, deadline=None)
@given(report=reports(), figures=st.integers(min_value=1, max_value=17),
       block_rows=st.sampled_from([1, 2, 3, 1024]))
def test_renderers_match_the_cell_by_cell_oracle(report, figures, block_rows):
    headers, rows = report
    with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
        assert render(_write_csv, headers, rows) == write_csv(headers, rows)
        assert render(_write_json, headers, rows) == write_json(headers, rows)
        try:
            expected = write_table(headers, rows, figures)
        except OverflowError:  # the oracle cannot round past the float maximum
            return
        assert render(_write_table, headers, rows, figures) == expected


def test_empty_reports():
    for headers in (["name"], ["rank", "name", "T"]):
        assert render(_write_json, headers, []) == write_json(headers, []) == "[]\n"
        assert render(_write_table, headers, [], 4) == write_table(headers, [], 4)
        assert render(_write_csv, headers, []) == write_csv(headers, [])


def _entity(i: int) -> SummaryRecord:
    """A valid summary record that varies with i; every other name carries
    an ANSI colour sequence, which click strips from a non-tty stdout."""
    h = 1 + i % 9
    papers = h + 5 + i % 37
    ch = h * h + i * 7 % 23
    name = f"j{i:04d}" if i % 2 else f"\x1b[31mj{i:04d}\x1b[0m"
    return SummaryRecord(name, papers, h, i % 3, ch + (papers - h) * (i % 4) + 2, ch)


@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_block_edges_match_the_oracle(monkeypatch, block_rows):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    scores = [score(_entity(i)) for i in range(11)]
    headers = list(scores[0]._fields)
    assert render(_write_csv, headers, scores) == write_csv(headers, scores)
    assert render(_write_json, headers, scores) == write_json(headers, scores)
    assert render(_write_table, headers, scores, 4) == write_table(headers, scores, 4)
    ranked = [(i, *s) for i, s in enumerate(scores, start=1)]
    project = cli._ranked_rows(headers)
    assert render(_write_csv, ["rank", *headers], scores, project) == write_csv(
        ["rank", *headers], ranked)
    assert render(_write_json, ["rank", *headers], scores, project) == write_json(
        ["rank", *headers], ranked)
    assert render(_write_table, ["rank", *headers], scores, 3, project) == write_table(
        ["rank", *headers], ranked, 3)


@pytest.mark.parametrize("output", ["table", "csv", "json"])
@pytest.mark.parametrize("command", ["compute", "rank"])
@pytest.mark.parametrize("mask_x3", [False, True])
def test_multi_block_reports_equal_one_shot_rendering(tmp_path, command, output, mask_x3):
    records = [_entity(i) for i in range(2500)]  # three blocks of rows
    path = tmp_path / "entities.csv"
    path.write_text("name,P,h,Pz,C,Ch\n" + "".join(
        f"{r.name},{r.papers},{r.h},{r.uncited},{r.citations},{r.core_citations}\n"
        for r in records))
    args = [command, "--input", str(path), "--output", output]
    result = CliRunner().invoke(main, args + ["--mask-x3"] * mask_x3, catch_exceptions=False)
    assert result.exit_code == 0
    scores = [score(r) for r in records]
    if command == "rank":
        scores = rank_entities(scores)
    headers = [f for f in scores[0]._fields if not (mask_x3 and f == "X3")]
    rows = [tuple(getattr(s, f) for f in headers) for s in scores]
    if command == "rank":
        headers = ["rank", *headers]
        rows = [(i, *row) for i, row in enumerate(rows, start=1)]
    one_shot = {"table": lambda: write_table(headers, rows, 4),
                "csv": lambda: write_csv(headers, rows),
                "json": lambda: write_json(headers, rows)}[output]()
    assert result.stdout == click.unstyle(one_shot)
    assert "\x1b" not in result.stdout


def _drain_peak(chunks) -> int:
    """The traced peak in bytes above the start while a report's chunks are drained."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    collections.deque(chunks, maxlen=0)
    return tracemalloc.get_traced_memory()[1] - before


def test_draining_a_report_holds_a_few_blocks_at_most():
    scores = [score(_entity(i)) for i in range(20_000)]
    headers = list(scores[0]._fields)
    tracemalloc.start()
    try:
        for writer in (_write_json, _write_csv):
            assert _drain_peak(writer(headers, scores)) < 3_000_000, writer.__name__
        # a table keeps every block until the widths are known: its numbers
        # as one string per column and block, about 150 B a row
        assert _drain_peak(_write_table(headers, scores, 4)) < 6_000_000
        ranked = _write_table(["rank", *headers], scores, 4, cli._ranked_rows(headers))
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
    overflows = 0
    for value in _sweep_values():
        for figures in range(1, 18):
            try:
                expected = format_sig(value, figures)
            except OverflowError:
                overflows += 1
                # past the float maximum: the exact value rounded half to even
                scale = 10 ** (math.floor(math.log10(abs(value))) - figures + 1)
                expected = str(round(Fraction(value) / scale) * scale)
            assert _format_sig(value, figures) == expected, (value, figures)
    assert overflows > 0


def test_table_number_texts_hold_no_newline():
    """_write_table keeps each block's int, float and None columns joined by
    newlines until layout, which is lossless only while no such text holds one."""
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


@pytest.mark.parametrize("value, figures, text", [
    (sys.float_info.max, 1, "2" + "0" * 308),
    (-sys.float_info.max, 4, "-1798" + "0" * 305),
    (sys.float_info.max, 17, f"{sys.float_info.max:.0f}"),  # the float nearest its rounding
    (1e23, 1, "99999999999999991611392"),  # round() returns the float nearest 10**23
    (2.5, 1, "2"),
    (3.5, 1, "4"),
])
def test_format_sig_rounds_half_to_even_in_integers(value, figures, text):
    assert _format_sig(value, figures) == text
