"""Generated input files fed to the CLI: every run ends in output or in one
`error:` line with exit code 1 or 2, never in a traceback.

Most generated rows are valid (built from a citation list), so runs reach
validation, scoring, ranking and correlation; a share of them carry one
spoiled cell, a duplicate or odd name, a wrong header, non-UTF-8 bytes or
huge, negative and non-finite numbers.
"""

import json
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from citetrace.cli import main

INTEGERS = st.one_of(st.integers(0, 30), st.integers(-5, 10 ** 6),
                     st.integers(-10 ** 400, 10 ** 400))
COUNTS = st.integers(0, 19).flatmap(lambda k: INTEGERS if k == 0 else st.integers(0, 30))
COUNT_LISTS = st.lists(COUNTS, min_size=1, max_size=8)
ODD_CELLS = st.sampled_from(["", "nan", "inf", "-inf", "1.5", "1e308", "-1e308", "-0", " 3 ",
                             "x", '"', "1;2", ";", "\n"])
CELLS = st.one_of(INTEGERS.map(str), ODD_CELLS, st.text(max_size=4))
ODD_NAMES = st.one_of(st.sampled_from(["E0", " E1 ", "e2", ""]), st.text(max_size=4))
HEADERS = {"summary": "name,P,h,Pz,C,Ch", "citations": "name,citations"}
RANDOM_HEADERS = st.lists(st.sampled_from(["name", "P", "h", "Pz", "C", "Ch", "citations",
                                           "IF", "T", ""]), max_size=7).map(",".join)
# the first choice is the most frequent one and the one hypothesis shrinks to
TRAILERS = st.sampled_from([b""] * 8 + [b"\xff", b"\x80\xfe"])


def _summary_fields(counts):
    """P, h, Pz, C, Ch counted from a citation list."""
    desc = sorted(counts, reverse=True)
    h = sum(1 for i, c in enumerate(desc) if c >= i + 1)
    return [len(desc), h, desc.count(0), sum(desc), sum(desc[:h])]


@st.composite
def _fields(draw, kind):
    if kind == "summary":
        fields = [str(v) for v in _summary_fields(draw(COUNT_LISTS))]
    elif kind == "citations":
        fields = [";".join(map(str, draw(COUNT_LISTS)))]
    elif kind == "metric":
        fields = [repr(draw(st.floats(-1e6, 1e6))) for _ in range(2)]
    else:
        fields = draw(st.lists(CELLS, max_size=6))
    if fields and draw(st.integers(0, 9)) == 0:
        fields[draw(st.integers(0, len(fields) - 1))] = draw(CELLS)
    return fields


@st.composite
def _names(draw, size):
    names = [f"E{i}" for i in range(size)]
    for _ in range(draw(st.sampled_from([0] * 3 + [1, 2]))):
        names[draw(st.integers(0, size - 1))] = draw(ODD_NAMES)
    return names


@st.composite
def csv_bytes(draw, kind):
    header = {**HEADERS, "metric": "name,IF,T"}.get(kind, "")
    if not header or draw(st.integers(0, 9)) == 0:
        header = draw(RANDOM_HEADERS)
    size = draw(st.integers(0, 7))
    names = draw(_names(size)) if size else []
    rows = [",".join([name, *draw(_fields(kind))]) for name in names]
    text = "\n".join([header, *rows]) + draw(st.sampled_from(["\n", "", "\r\n"]))
    return text.encode() + draw(TRAILERS)


@st.composite
def json_bytes(draw):
    kind = draw(st.sampled_from(["summary", "citations", "other"]))
    size = draw(st.integers(0, 7))
    records = []
    for name in (draw(_names(size)) if size else []):
        if kind == "summary":
            record = dict(zip(HEADERS["summary"].split(","),
                              [name, *_summary_fields(draw(COUNT_LISTS))]))
        elif kind == "citations":
            record = {"name": name, "citations": draw(COUNT_LISTS)}
        else:
            record = draw(st.dictionaries(st.sampled_from(["name", "P", "citations", "x"]),
                                          st.one_of(INTEGERS, st.floats(), CELLS, COUNT_LISTS),
                                          max_size=3))
        if record and draw(st.integers(0, 9)) == 0:
            key = draw(st.sampled_from(sorted(record)))
            record[key] = draw(st.one_of(st.floats(), CELLS, st.none(), st.lists(CELLS)))
        records.append(record)
    doc = draw(st.sampled_from([records] * 8 + [{"records": records}, "x"]))
    # json.dumps writes NaN and Infinity for non-finite floats
    return json.dumps(doc).encode() + draw(TRAILERS)


@st.composite
def inputs(draw):
    """(file bytes, --format value or None for the default)."""
    kind = draw(st.sampled_from(["summary"] * 4 + ["citations"] * 4 + ["json"] * 3 + ["bytes"]))
    if kind == "json":
        return draw(json_bytes()), draw(st.sampled_from(["json", None]))
    if kind == "bytes":
        return draw(st.binary(max_size=40)), draw(st.sampled_from(["summary", "json"]))
    return draw(csv_bytes(kind)), draw(st.sampled_from([kind] * 3 + [None]))


COMMANDS = st.sampled_from([["compute"], ["rank"], ["rank", "--positive-only"], ["correlate"]])


@settings(max_examples=200, deadline=2000, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(inputs(), COMMANDS, st.one_of(st.none(), csv_bytes("metric")))
def test_every_input_ends_in_output_or_one_error_line(data_and_format, command, metrics):
    data, format_ = data_and_format
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("data.json" if format_ == "json" else "data.csv")
        path.write_bytes(data)
        args = [*command, "--input", str(path), "--output", "csv"]
        if format_ is not None:
            args += ["--format", format_]
        if command == ["correlate"] and metrics is not None:
            metric_path = Path(tmp) / "metrics.csv"
            metric_path.write_bytes(metrics)
            args += ["--metric-file", str(metric_path)]
        result = CliRunner().invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        repr(result.exception)
    assert result.exit_code in (0, 1, 2)
    assert "Traceback" not in result.output
    if result.exit_code != 0:
        errors = [line for line in result.stderr.splitlines()
                  if line.lower().startswith("error:")]
        assert len(errors) == 1, result.stderr
