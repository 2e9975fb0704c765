"""End-to-end CLI behavior: subcommands, formats, determinism, exit codes."""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from citetrace.cli import main
from citetrace.reference import reference_corpus

JOI_CSV = "name,P,h,Pz,C,Ch\nJ Informetr,105,18,5,1132,574\n"

# three entities whose h-indices are 1, 2, 3 and traces are distinct
TRIO_CITATIONS = "name,citations\nA,1\nB,3;2\nC,5;4;3\n"

DATA = Path(__file__).parent / "data"

# Full-precision csv output (every column at repr precision) frozen as
# snapshots; any change to a float's evaluation order shows up here.
SNAPSHOTS = {
    "compute_corpus.csv": ["compute", "--input", "corpus", "--output", "csv"],
    "compute_units_mask_x3.csv": ["compute", "--input", "corpus:units", "--output", "csv",
                                  "--mask-x3"],
    "rank_lis.csv": ["rank", "--input", "corpus", "--group", "LIS", "--output", "csv"],
    "compute_citations_small.csv": ["compute", "--input", str(DATA / "citations_small.csv"),
                                    "--format", "citations", "--output", "csv"],
}


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestCompute:
    def test_summary_json_trace(self, runner, tmp_path):
        path = tmp_path / "joi.csv"
        path.write_text(JOI_CSV)
        result = invoke(runner, ["compute", "--input", str(path), "--output", "json"])
        assert result.exit_code == 0
        (row,) = json.loads(result.stdout)
        assert abs(row["T"] - 333.12) <= 0.005
        assert row["h"] == 18
        assert row["sign"] == "positive"

    def test_single_cited_paper(self, runner, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("name,citations\nA,1\n")
        result = invoke(runner, ["compute", "--input", str(path),
                                 "--format", "citations", "--output", "json"])
        (row,) = json.loads(result.stdout)
        assert row["T"] == 1.0

    def test_invalid_row_exits_one_with_row_number(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,P,h,Pz,C,Ch\nX,10,4,0,20,15\n")
        result = runner.invoke(main, ["compute", "--input", str(path)])
        assert result.exit_code == 1
        assert "row 2" in result.stderr

    def test_summary_and_citations_inputs_agree(self, runner, tmp_path):
        citations = tmp_path / "full.csv"
        citations.write_text("name,citations\nA,10;8;5;4;3;0;0\n")
        summary = tmp_path / "summary.csv"
        # same set summarized: P=7, h=4, Pz=2, C=30, Ch=27
        summary.write_text("name,P,h,Pz,C,Ch\nA,7,4,2,30,27\n")
        out_full = invoke(runner, ["compute", "--input", str(citations),
                                   "--format", "citations", "--output", "json"])
        out_sum = invoke(runner, ["compute", "--input", str(summary), "--output", "json"])
        assert out_full.stdout == out_sum.stdout

    def test_mask_x3_drops_column_but_not_trace(self, runner, tmp_path):
        path = tmp_path / "joi.csv"
        path.write_text(JOI_CSV)
        masked = invoke(runner, ["compute", "--input", str(path), "--output", "json",
                                 "--mask-x3"])
        plain = invoke(runner, ["compute", "--input", str(path), "--output", "json"])
        row_masked = json.loads(masked.stdout)[0]
        row_plain = json.loads(plain.stdout)[0]
        assert "X3" not in row_masked and "X3" in row_plain
        assert row_masked["T"] == row_plain["T"]

    def test_json_input_format(self, runner, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps([{"name": "A", "citations": [4, 3, 1]}]))
        result = invoke(runner, ["compute", "--input", str(path), "--output", "csv"])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[1].startswith("A,2,")

    def test_byte_identical_repeats(self, runner):
        first = invoke(runner, ["compute", "--input", "corpus", "--output", "csv"])
        second = invoke(runner, ["compute", "--input", "corpus", "--output", "csv"])
        assert first.stdout == second.stdout

    def test_corpus_units_input(self, runner):
        result = invoke(runner, ["compute", "--input", "corpus:units", "--output", "csv"])
        names = [line.split(",")[0] for line in result.stdout.splitlines()[1:]]
        assert names == ["Univ Heidelberg", "Univ Hamburg", "Leydesdorff L", "Ye FY"]


@pytest.mark.parametrize("snapshot", sorted(SNAPSHOTS))
def test_csv_output_matches_snapshot(runner, snapshot):
    result = invoke(runner, SNAPSHOTS[snapshot])
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / snapshot).read_bytes()


# The other two report formats, frozen the same way.
OUTPUT_SNAPSHOTS = {
    "compute_corpus.json": ["compute", "--input", "corpus", "--output", "json"],
    "rank_lis.txt": ["rank", "--input", "corpus", "--group", "LIS"],
    "correlate_corpus.json": ["correlate", "--input", "corpus", "--output", "json"],
}


@pytest.mark.parametrize("snapshot", sorted(OUTPUT_SNAPSHOTS))
def test_json_and_table_output_match_snapshot(runner, snapshot):
    result = invoke(runner, OUTPUT_SNAPSHOTS[snapshot])
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / snapshot).read_bytes()


class TestRank:
    def test_lis_group_by_trace_matches_golden_order(self, runner):
        result = invoke(runner, ["rank", "--input", "corpus", "--group", "LIS",
                                 "--key", "T", "--output", "csv"])
        reader = csv.DictReader(io.StringIO(result.stdout))
        names = [row["name"] for row in reader]
        golden = [row.name for row in sorted(
            (r for r in reference_corpus().golden_journals if r.group == "LIS"),
            key=lambda r: r.rank)]
        assert names[:20] == golden

    def test_multidisciplinary_by_h(self, runner):
        result = invoke(runner, ["rank", "--input", "corpus", "--group", "multidisciplinary",
                                 "--key", "h", "--output", "json"])
        rows = json.loads(result.stdout)
        assert [(r["name"], r["h"]) for r in rows] == [
            ("Nature", 192), ("Science", 171), ("PNAS", 115)]

    def test_empty_after_filter_exits_zero(self, runner, tmp_path):
        path = tmp_path / "uncited.csv"
        path.write_text("name,P,h,Pz,C,Ch\nZ,4,0,4,0,0\n")
        result = invoke(runner, ["rank", "--input", str(path), "--key", "T",
                                 "--positive-only", "--output", "csv"])
        assert result.exit_code == 0
        assert result.stdout.splitlines() == ["rank,name,h,X1,X2,X3,Y1,Y2,Y3,Z1,Z2,Z3,I3X,I3Y,T,sign"]

    def test_positive_only_removes_nonpositive(self, runner, tmp_path):
        path = tmp_path / "mix.csv"
        path.write_text("name,P,h,Pz,C,Ch\nGood,2,1,0,3,2\nBad,4,0,4,0,0\n")
        result = invoke(runner, ["rank", "--input", str(path), "--key", "T",
                                 "--positive-only", "--output", "json"])
        rows = json.loads(result.stdout)
        assert [r["name"] for r in rows] == ["Good"]

    def test_unknown_key_is_usage_error(self, runner):
        result = runner.invoke(main, ["rank", "--input", "corpus", "--key", "bogus"])
        assert result.exit_code == 2

    def test_missing_input_is_usage_error(self, runner):
        result = runner.invoke(main, ["rank", "--input", "/no/such/file.csv"])
        assert result.exit_code == 2

    def test_rank_column_numbering(self, runner):
        result = invoke(runner, ["rank", "--input", "corpus", "--group", "multidisciplinary",
                                 "--key", "T", "--output", "csv"])
        reader = csv.DictReader(io.StringIO(result.stdout))
        assert [(row["rank"], row["name"]) for row in reader] == [
            ("1", "PNAS"), ("2", "Nature"), ("3", "Science")]


class TestCorrelate:
    def test_trace_with_itself(self, runner, tmp_path):
        path = tmp_path / "trio.csv"
        path.write_text(TRIO_CITATIONS)
        result = invoke(runner, ["correlate", "--input", str(path),
                                 "--format", "citations", "--output", "json", "T", "T"])
        (pair,) = json.loads(result.stdout)
        assert pair["pearson_r"] == pytest.approx(1.0, abs=1e-12)

    def test_rank_ordered_metric_gives_spearman_one(self, runner, tmp_path):
        data = tmp_path / "trio.csv"
        data.write_text(TRIO_CITATIONS)
        metrics = tmp_path / "if.csv"
        metrics.write_text("name,IF\nA,0.1\nB,1.5\nC,9.0\n")  # same order as T
        result = invoke(runner, ["correlate", "--input", str(data), "--format", "citations",
                                 "--metric-file", str(metrics), "--output", "json", "T", "IF"])
        (pair,) = json.loads(result.stdout)
        assert pair["spearman_rho"] == pytest.approx(1.0, abs=1e-12)
        assert pair["n"] == 3

    def test_three_point_hand_oracle(self, runner, tmp_path):
        data = tmp_path / "trio.csv"
        data.write_text(TRIO_CITATIONS)
        metrics = tmp_path / "xy.csv"
        metrics.write_text("name,x,y\nA,1,3\nB,2,2\nC,3,4\n")
        result = invoke(runner, ["correlate", "--input", str(data), "--format", "citations",
                                 "--metric-file", str(metrics), "--output", "json", "x", "y"])
        (pair,) = json.loads(result.stdout)
        assert pair["pearson_r"] == pytest.approx(0.5, abs=1e-12)
        assert pair["spearman_rho"] == pytest.approx(0.5, abs=1e-12)

    def test_default_columns_with_metric_file(self, runner, tmp_path):
        data = tmp_path / "trio.csv"
        data.write_text(TRIO_CITATIONS)
        metrics = tmp_path / "if.csv"
        metrics.write_text("name,IF\nA,0.1\nB,1.5\nC,9.0\n")
        result = invoke(runner, ["correlate", "--input", str(data), "--format", "citations",
                                 "--metric-file", str(metrics), "--output", "json"])
        (pair,) = json.loads(result.stdout)
        assert (pair["a"], pair["b"]) == ("T", "IF")

    def test_disjoint_names_is_join_error(self, runner, tmp_path):
        data = tmp_path / "trio.csv"
        data.write_text(TRIO_CITATIONS)
        metrics = tmp_path / "other.csv"
        metrics.write_text("name,IF\nX,1\nY,2\n")
        result = runner.invoke(main, ["correlate", "--input", str(data),
                                      "--format", "citations",
                                      "--metric-file", str(metrics), "T", "IF"])
        assert result.exit_code == 1
        assert "no entity names in common" in result.stderr

    def test_unknown_column_is_usage_error(self, runner, tmp_path):
        data = tmp_path / "trio.csv"
        data.write_text(TRIO_CITATIONS)
        result = runner.invoke(main, ["correlate", "--input", str(data),
                                      "--format", "citations", "T", "IF"])
        assert result.exit_code == 2


class TestValidateReference:
    def test_passes_and_prints_cells(self, runner):
        result = invoke(runner, ["validate-reference"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[-1] == "312/312 golden cells within displayed precision"
        assert sum(1 for line in lines if line.startswith("PASS")) == 312
        assert not any(line.startswith("FAIL") for line in lines)

    def test_deterministic_across_repeats(self, runner):
        first = invoke(runner, ["validate-reference"])
        second = invoke(runner, ["validate-reference"])
        assert first.stdout == second.stdout


class TestPlotData:
    def test_one_row_per_matched_journal(self, runner, tmp_path):
        corpus = reference_corpus()
        metrics = tmp_path / "if.csv"
        lines = ["name,IF"] + [f"{r.name},1.0" for r in corpus.journals[:5]]
        metrics.write_text("\n".join(lines) + "\n")
        result = invoke(runner, ["plot-data", "--input", "corpus",
                                 "--metric-file", str(metrics)])
        rows = result.stdout.splitlines()
        assert rows[0] == "name,T,IF"
        assert len(rows) == 1 + 5
        assert "matches no entity" not in result.stderr
        assert "no metric row" in result.stderr  # 81 unmatched journals warned

    def test_positive_filter_drops_nonpositive_traces(self, runner, tmp_path):
        data = tmp_path / "mix.csv"
        data.write_text("name,P,h,Pz,C,Ch\nGood,2,1,0,3,2\nBad,4,0,4,0,0\n")
        metrics = tmp_path / "if.csv"
        metrics.write_text("name,IF\nGood,1.0\nBad,2.0\n")
        everything = invoke(runner, ["plot-data", "--input", str(data),
                                     "--metric-file", str(metrics)])
        filtered = invoke(runner, ["plot-data", "--input", str(data),
                                   "--metric-file", str(metrics), "--positive-only"])
        assert len(everything.stdout.splitlines()) == 3
        names = [line.split(",")[0] for line in filtered.stdout.splitlines()[1:]]
        assert names == ["Good"]

    def test_unmatched_metric_names_warned(self, runner, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("name,P,h,Pz,C,Ch\nGood,2,1,0,3,2\n")
        metrics = tmp_path / "if.csv"
        metrics.write_text("name,IF\nGood,1.0\nGhost,2.0\n")
        result = invoke(runner, ["plot-data", "--input", str(data),
                                 "--metric-file", str(metrics)])
        assert result.exit_code == 0
        assert "'Ghost' matches no entity" in result.stderr


class TestExactSign:
    # Zero's trace is exactly 1/4 + 1/5 + 9/5 - 9/4 = 0; its float sum rounds to +5.55e-17
    DATA = "name,P,h,Pz,C,Ch\nZero,4,1,3,5,4\nGood,2,1,0,3,2\n"

    def test_compute_prints_float_but_exact_sign(self, runner, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text(self.DATA)
        rows = json.loads(invoke(runner, ["compute", "--input", str(path),
                                          "--output", "json"]).stdout)
        assert (rows[0]["T"], rows[0]["sign"]) == (5.551115123125783e-17, "nonpositive")

    def test_positive_only_leaves_out_exact_zero(self, runner, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text(self.DATA)
        metrics = tmp_path / "if.csv"
        metrics.write_text("name,IF\nZero,1.0\nGood,2.0\n")
        ranked = invoke(runner, ["rank", "--input", str(path), "--positive-only",
                                 "--output", "json"])
        assert [r["name"] for r in json.loads(ranked.stdout)] == ["Good"]
        plotted = invoke(runner, ["plot-data", "--input", str(path),
                                  "--metric-file", str(metrics), "--positive-only"])
        assert [line.split(",")[0] for line in plotted.stdout.splitlines()[1:]] == ["Good"]


def _run_cli(args, timeout=30):
    """The CLI in a child process, so a hang fails the test instead of stalling it."""
    return subprocess.run([sys.executable, "-m", "citetrace.cli", *args],
                          capture_output=True, timeout=timeout)


IMPORT_PROBE = """
import json, sys
from citetrace.cli import main
loaded = {}
for args in [["--help"], ["compute", "--input", "corpus"], ["rank", "--input", "corpus"],
             ["validate-reference"], ["correlate", "--input", "corpus"],
             ["plot-data", "--input", "corpus", "--metric-file", sys.argv[1]]]:
    main(args, standalone_mode=False)
    loaded[args[0]] = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
print(json.dumps(loaded))
"""


def test_numpy_and_scipy_never_load(tmp_path):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("name,IF\nNature,1.0\nScience,2.0\n")
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(metrics)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "--help": [], "compute": [], "rank": [], "validate-reference": [],
        "correlate": [], "plot-data": []}


class TestBadInputEndsInOneLineError:
    BIG = 10 ** 400
    PAIR = b"name,P,h,Pz,C,Ch\nA,2,1,0,3,2\nB,4,1,3,5,4\n"

    @pytest.mark.parametrize("data, metrics, needle", [
        (f"name,P,h,Pz,C,Ch\nHuge,{BIG},1,0,{BIG},1\n".encode(), None, b"Huge"),
        (b"name,P,h,Pz,C,Ch\nA\xff,2,1,0,3,2\n", None, b"UTF-8"),
        (PAIR, b"name,IF\nA,nan\nB,1.0\n", b"row 2"),
        (PAIR, b"name,IF\nA,1.0\nB,inf\n", b"row 3"),
    ], ids=["overflow", "non-utf8", "nan-metric", "inf-metric"])
    def test_exit_one_without_traceback(self, tmp_path, data, metrics, needle):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        args = ["compute", "--input", str(path)]
        if metrics is not None:
            metric_path = tmp_path / "metrics.csv"
            metric_path.write_bytes(metrics)
            args = ["correlate", "--input", str(path), "--metric-file", str(metric_path),
                    "T", "IF"]
        proc = _run_cli(args)
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
        assert needle in proc.stderr


class TestMetricNamedAfterIndicator:
    @pytest.mark.parametrize("command", [["correlate"], ["plot-data"]],
                             ids=["correlate", "plot-data"])
    @pytest.mark.parametrize("header", ["name,T,IF", "name,IF,h"], ids=["T-first", "h-second"])
    def test_one_line_error_naming_the_column(self, runner, tmp_path, command, header):
        column = next(c for c in header.split(",")[1:] if c != "IF")
        metrics = tmp_path / "metrics.csv"
        metrics.write_text(f"{header}\nNature,1.0,2.0\nScience,3.0,5.0\n")
        result = runner.invoke(main, [*command, "--input", "corpus", "--metric-file",
                                      str(metrics)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (f"error: metric CSV column {column!r} has the name "
                                 "of an indicator\n")


class TestEmptyGroup:
    @pytest.mark.parametrize("command", [
        ["compute"], ["rank"], ["correlate"], ["plot-data", "--metric-file", "METRICS"],
    ], ids=["compute", "rank", "correlate", "plot-data"])
    def test_same_one_line_error_on_every_command(self, runner, tmp_path, command):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("name,IF\nNature,1.0\n")
        args = [str(metrics) if a == "METRICS" else a for a in command]
        result = runner.invoke(main, [*args, "--input", "corpus", "--group", "nosuch"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: no records in group 'nosuch'\n"


class TestNoRecords:
    @pytest.mark.parametrize("command", [
        ["compute"], ["rank"], ["correlate"], ["plot-data", "--metric-file", "METRICS"],
    ], ids=["compute", "rank", "correlate", "plot-data"])
    def test_same_one_line_error_on_every_command(self, runner, tmp_path, command):
        data = tmp_path / "empty.csv"
        data.write_text("name,P,h,Pz,C,Ch\n")
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("name,IF\nNature,1.0\n")
        args = [str(metrics) if a == "METRICS" else a for a in command]
        result = runner.invoke(main, [*args, "--input", str(data)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: no records in input\n"


class TestJsonNames:
    def test_stripped_json_name_joins_metric_row(self, runner, tmp_path):
        data = tmp_path / "spaced.json"
        data.write_text(json.dumps([{"name": " A ", "citations": [3, 2, 1]},
                                    {"name": "B", "citations": [5, 0, 0]}]))
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("name,IF\nA,1.0\nB,2.0\n")
        result = invoke(runner, ["plot-data", "--input", str(data), "--metric-file", str(metrics)])
        assert result.stderr == ""
        assert [line.split(",")[0] for line in result.stdout.splitlines()] == ["name", "A", "B"]


class TestTableOutput:
    def test_precision_flag_controls_table_digits(self, runner, tmp_path):
        path = tmp_path / "joi.csv"
        path.write_text(JOI_CSV)
        narrow = invoke(runner, ["compute", "--input", str(path), "--precision", "3"])
        wide = invoke(runner, ["compute", "--input", str(path), "--precision", "8"])
        assert "333" in narrow.stdout
        assert "333.11617" in wide.stdout

    def test_table_header_and_alignment(self, runner):
        result = invoke(runner, ["rank", "--input", "corpus", "--group", "multidisciplinary"])
        lines = result.stdout.splitlines()
        assert lines[0].split()[:2] == ["rank", "name"]
        assert len(lines) == 4

    @pytest.mark.parametrize("args, y2", [
        (["compute"], "1798" + "0" * 305),
        (["rank", "--key", "Y2", "--precision", "1"], "2" + "0" * 308),
    ], ids=["compute", "rank"])
    def test_value_rounding_past_float_maximum(self, tmp_path, args, y2):
        # Y2 = Ct^2/C is the largest float; rounded to few figures it passes the float maximum
        path = tmp_path / "big.csv"
        path.write_text(f"name,P,h,Pz,C,Ch\nbig,1,1,0,{int(sys.float_info.max)},1\n")
        proc = _run_cli([*args[:1], "--input", str(path), *args[1:]])
        assert proc.returncode == 0
        assert b"Traceback" not in proc.stderr
        header, row = proc.stdout.decode().splitlines()
        assert dict(zip(header.split(), row.split()))["Y2"] == y2
