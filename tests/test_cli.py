"""End-to-end CLI behavior: subcommands, formats, determinism, exit codes."""

import csv
import errno
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from citetrace import (
    CitetraceError,
    ValidationError,
    dataset_to_json,
    datasets,
    parse_summary_csv,
    partition,
    plausibility_warnings,
    score_table,
)
from citetrace import cli
from citetrace.cli import main
from citetrace.reference import reference_corpus

from cli_runner import CliRunner

JOI_CSV = "name,P,h,Pz,C,Ch\nJ Informetr,105,18,5,1132,574\n"

# three entities whose h-indices are 1, 2, 3 and traces are distinct
TRIO_CITATIONS = "name,citations\nA,1\nB,3;2\nC,5;4;3\n"

DATA = Path(__file__).parent / "data"

# Every report frozen as a byte snapshot: file name in tests/data -> argv,
# with paths relative to the root of the repository.
SNAPSHOTS = json.loads((DATA / "snapshots.json").read_text())
# Full-precision csv output of compute and rank (every column at repr
# precision): any change to a float's evaluation order shows up here.
CSV_SNAPSHOTS = sorted(name for name, args in SNAPSHOTS.items()
                       if args[0] in ("compute", "rank") and "csv" in args)
# Three usage errors as the installed script prints them on an 80-column
# terminal: file -> argv.
USAGE_SNAPSHOTS = json.loads((DATA / "usage_snapshots.json").read_text())

# The installed console script runs exactly this.
ENTRY = "import sys; from citetrace.cli import main; sys.exit(main(prog_name='citetrace'))"


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


def _matches_snapshot(runner, monkeypatch, snapshot):
    monkeypatch.chdir(DATA.parent.parent)
    result = invoke(runner, SNAPSHOTS[snapshot])
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / snapshot).read_bytes()


def test_manifest_names_every_snapshot():
    inputs = {"ansi_names.csv", "big.csv", "cafe.csv", "citations_edge.csv",
              "citations_small.csv", "cr_names.csv", "metrics_small.csv", "metrics_wide.csv",
              "summary_small.csv", "snapshots.json", "usage_snapshots.json"}
    assert {path.name for path in DATA.iterdir()} - inputs == set(SNAPSHOTS) | set(USAGE_SNAPSHOTS)


def test_wide_metrics_follow_their_formulas():
    """Row i (from 1) of metrics_wide.csv is the i-th corpus journal, with a
    subnormal, a value near the float maximum, and alternating signs across
    10^-300 to 10^300."""
    rows = list(csv.reader(io.StringIO((DATA / "metrics_wide.csv").read_text())))
    journals = reference_corpus().journals
    n = len(journals)
    assert rows[0] == ["name", "tiny", "huge", "mixed"]
    assert [row[0] for row in rows[1:]] == [record.name for record in journals]
    for i, (_, tiny, huge, mixed) in enumerate(rows[1:], 1):
        exponent = -300 + 600 * (i - 1) // (n - 1)
        assert (float(tiny), float(huge)) == (5e-324 * i, 1.7e308 / i)
        assert float(mixed) == (-1) ** i * float(f"1e{exponent}")


@pytest.mark.parametrize("snapshot", CSV_SNAPSHOTS)
def test_csv_output_matches_snapshot(runner, monkeypatch, snapshot):
    _matches_snapshot(runner, monkeypatch, snapshot)


# The other report formats, the rank column under --mask-x3, a table of very
# small p-values, plot-data, a correlate at n = 2 (no p-values), the
# validate-reference listing, and csv correlates of 14 and 16 columns whose
# metrics span the float range (tests/data/metrics_wide.csv).
@pytest.mark.parametrize("snapshot", sorted(set(SNAPSHOTS) - set(CSV_SNAPSHOTS)))
def test_json_and_table_output_match_snapshot(runner, monkeypatch, snapshot):
    _matches_snapshot(runner, monkeypatch, snapshot)


@pytest.mark.parametrize("snapshot", sorted(USAGE_SNAPSHOTS))
def test_usage_errors_match_snapshot(snapshot):
    """A usage error goes to stderr only, with exit 2."""
    proc = subprocess.run([sys.executable, "-c", ENTRY, *USAGE_SNAPSHOTS[snapshot]],
                          capture_output=True, timeout=60, cwd=DATA.parent.parent,
                          env={**os.environ, "COLUMNS": "80"})
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", (DATA / snapshot).read_bytes())


def _help_texts(name):
    """What the --help of a command, or of the group when name is None,
    must hold: the command's help line, and every flag, metavar and help
    text it defines (a choice option shows its choices); or every command
    with its help line."""
    if name is None:
        return [cli._DESCRIPTION, *(f"{command}{function.__doc__.splitlines()[0]}"
                                    for command, (function, _) in cli._COMMANDS.items())]
    function, options = cli._COMMANDS[name]
    texts = [function.__doc__.splitlines()[0]]
    for flags, settings in options:
        texts += [flag for flag in flags if flag.startswith("-")]
        texts.append(settings["help"])
        if "metavar" in settings:
            texts.append(settings["metavar"])
        elif "choices" in settings:
            texts.append("{" + ",".join(settings["choices"]) + "}")
    return texts


@pytest.mark.parametrize("args", [["--help"], *([name, "--help"] for name in cli._COMMANDS),
                                  ["compute", "-h"]], ids=" ".join)
def test_help_holds_every_command_and_option(args):
    """Help goes to stdout with exit 0.  argparse lays it out, and the
    layout differs between Python versions, so only the words are checked."""
    proc = subprocess.run([sys.executable, "-c", ENTRY, *args], capture_output=True, timeout=60,
                          env={**os.environ, "COLUMNS": "80"})
    assert (proc.returncode, proc.stderr) == (0, b"")
    words = "".join(proc.stdout.decode().split())
    for text in _help_texts(args[0] if args[0] in cli._COMMANDS else None):
        assert "".join(text.split()) in words


ENCODINGS = pytest.mark.parametrize(
    "env", [{"LC_ALL": "C.UTF-8"}, {"LC_ALL": "C"},
            *({"PYTHONIOENCODING": name} for name in ["ascii", "latin-1", "cp1252", "utf-16"])],
    ids=["C.UTF-8", "C", "ascii", "latin-1", "cp1252", "utf-16"])


def _run_in_locale(args, env):
    inherited = {k: v for k, v in os.environ.items()
                 if not k.startswith(("LC_", "LANG", "PYTHONIOENCODING", "PYTHONUTF8"))}
    return subprocess.run([sys.executable, "-c", ENTRY, *args], capture_output=True, timeout=60,
                          cwd=DATA.parent.parent, env={**inherited, **env})


@ENCODINGS
def test_non_ascii_names_are_written_as_utf8(env):
    """Whatever the locale or the streams' encoding, a name goes out as
    UTF-8: in the report and in the warnings."""
    proc = _run_in_locale(SNAPSHOTS["compute_cafe.csv"], env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / "compute_cafe.csv").read_bytes()
    assert proc.stderr.startswith("warning: Zoë: ".encode()) and proc.stderr.count(b"\n") == 1


@ENCODINGS
def test_non_ascii_path_in_a_usage_error_is_written_as_utf8(env):
    proc = _run_in_locale(["compute", "--input", "tests/data/missing_Zoë.csv"], env)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.endswith(
        "citetrace compute: error: input file not found: tests/data/missing_Zoë.csv\n".encode())


class _WriteSizes(io.RawIOBase):
    """A raw stream that keeps what is written to it and the size of each write."""

    def __init__(self):
        self.sizes, self.data = [], bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.sizes.append(len(b))
        self.data += b
        return len(b)


def _text_stream(encoding, line_buffering):
    raw = _WriteSizes()
    return io.TextIOWrapper(io.BufferedWriter(raw), encoding=encoding,
                            line_buffering=line_buffering), raw


@pytest.mark.parametrize("encoding", ["utf-8", "ascii", "latin-1"])
def test_a_report_is_written_in_whole_pipes(encoding):
    """Every write to the file descriptor but the last is a whole multiple
    of a pipe's capacity, whatever the sizes of the chunks."""
    stream, raw = _text_stream(encoding, line_buffering=False)
    chunks = [("x" * 160 + "\n") * 257] * 6 + ["y" * 3 * cli._PIPE_BYTES, "z\n" * 5000, "end\n"]
    cli._emit(stream, chunks)
    stream.flush()
    assert raw.data == "".join(chunks).encode()
    assert len(raw.sizes) > 4
    assert all(size % cli._PIPE_BYTES == 0 for size in raw.sizes[:-1])


@pytest.mark.parametrize("encoding", ["utf-8", "ascii", "latin-1"])
def test_warnings_take_one_write_not_one_a_line(encoding, monkeypatch):
    stream, raw = _text_stream(encoding, line_buffering=True)  # as stderr is
    monkeypatch.setattr(sys, "stderr", stream)
    lines = [f"warning: s{i:06d}: tail citations below tail paper count" for i in range(400)]
    cli._say(lines)
    assert raw.data == "".join(line + "\n" for line in lines).encode()
    assert raw.sizes == [len(raw.data)]


class _Full(io.RawIOBase):
    """A raw stream, with no file descriptor, whose every write raises
    error until ``full`` is cleared."""

    def __init__(self, error):
        self.error, self.full = error, True

    def writable(self):
        return True

    def write(self, b):
        if self.full:
            raise self.error
        return len(b)


NO_SPACE = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
CLOSED_PIPE = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


@pytest.mark.parametrize("error, said", [
    (NO_SPACE, f"error: cannot write output: {NO_SPACE.strerror}\n"), (CLOSED_PIPE, "")],
    ids=["full", "closed-pipe"])
def test_a_failed_write_in_process_exits_one(error, said, monkeypatch):
    """Every failed write ends the call alike, a closed pipe silently; on
    a stream with no file descriptor the handler raises nothing more."""
    raw, err = _Full(error), io.StringIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BufferedWriter(raw)))
    monkeypatch.setattr(sys, "stderr", err)
    with pytest.raises(SystemExit) as exit:
        main(["rank", "--input", "corpus"], standalone_mode=False)
    raw.full = False  # so that the stream's flush when it is freed succeeds
    assert (exit.value.code, err.getvalue()) == (1, said)


def test_a_failed_stderr_in_process_exits_one(monkeypatch):
    raw, out = _Full(NO_SPACE), io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", io.TextIOWrapper(io.BufferedWriter(raw),
                                                        line_buffering=True))
    with pytest.raises(SystemExit) as exit:
        main(["compute", "--input", str(DATA / "summary_small.csv")], standalone_mode=False)
    raw.full = False
    assert (exit.value.code, out.getvalue()) == (1, "")


# Whether Python buffers the standard streams' bytes: it does unless
# PYTHONUNBUFFERED is set, and a failed write leaves a buffer full.
BUFFERING = pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
class TestWriteToFullDevice:
    """A stream on /dev/full, whose every write fails: exit 1 with one
    ``error:`` line on stderr, or none when stderr is what failed; never a
    traceback, and never Python's exit code 120 for a failed final flush."""

    @staticmethod
    def _run(args, full, unbuffered):
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        with open("/dev/full", "wb") as device:
            streams[full] = device
            return subprocess.run([sys.executable, "-c", ENTRY, *args], **streams, timeout=60,
                                  cwd=DATA.parent.parent,
                                  env={**os.environ, "PYTHONUNBUFFERED": unbuffered})

    @BUFFERING
    @pytest.mark.parametrize("args", [["rank", "--input", "corpus"], ["--help"]],
                             ids=["report", "help"])
    def test_stdout(self, args, unbuffered):
        proc = self._run(args, "stdout", unbuffered)
        assert (proc.returncode, proc.stderr) == (
            1, f"error: cannot write output: {NO_SPACE.strerror}\n".encode())

    @BUFFERING
    def test_warnings_on_stderr(self, unbuffered):
        proc = self._run(SNAPSHOTS["compute_summary_small.txt"], "stderr", unbuffered)
        assert (proc.returncode, proc.stdout) == (1, b"")


@BUFFERING
def test_a_reader_that_leaves_early_ends_the_call_quietly(tmp_path, unbuffered):
    """``compute ... | head -1``: exit 1, with no traceback and no
    ``Exception ignored`` on stderr."""
    path = tmp_path / "many.csv"
    path.write_text("name,P,h,Pz,C,Ch\n" + "".join(f"J{i},105,18,5,1132,574\n"
                                                   for i in range(5000)))
    proc = subprocess.Popen([sys.executable, "-c", ENTRY, "compute", "--input", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONUNBUFFERED": unbuffered})
    assert proc.stdout.readline().startswith(b"name ")
    proc.stdout.close()  # the output is ten full pipes: a later write fails
    _, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (1, b"")


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

    def test_columns_may_come_between_options(self, runner):
        between = invoke(runner, ["correlate", "T", "--input", "corpus", "--output", "csv", "h"])
        trailing = invoke(runner, ["correlate", "--input", "corpus", "--output", "csv", "T", "h"])
        assert between.exit_code == 0 and between.stdout
        assert between.stdout_bytes == trailing.stdout_bytes

    def test_one_column_is_usage_error(self, runner):
        result = runner.invoke(main, ["correlate", "--input", "corpus", "T"])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.endswith(
            "citetrace correlate: error: need at least two columns to correlate\n")

    def test_unnamed_metric_column_is_one_line_error(self, runner, tmp_path):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("name,,IF\nNature,1.0,2.0\n")
        result = runner.invoke(main, ["correlate", "--input", "corpus",
                                      "--metric-file", str(metrics)])
        assert (result.exit_code, result.stdout, result.stderr) == (
            1, "", "error: metric CSV has an unnamed metric column\n")

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


def test_main_without_standalone_mode_returns_or_raises_the_code(capsys):
    """perfbench's traced run calls main this way: 0 comes back, any other
    code is raised as SystemExit."""
    assert main(["--help"], standalone_mode=False) == 0
    assert main(["rank", "--help"], standalone_mode=False) == 0
    for args, code in [(["compute", "--input", "corpus", "--group", "nosuch"], 1),
                       (["rank", "--input", "corpus", "--key", "bogus"], 2)]:
        with pytest.raises(SystemExit) as exit:
            main(args, standalone_mode=False)
        assert exit.value.code == code


def test_numpy_and_scipy_never_load(tmp_path):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("name,IF\nNature,1.0\nScience,2.0\n")
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(metrics)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "--help": [], "compute": [], "rank": [], "validate-reference": [],
        "correlate": [], "plot-data": []}


# What importing the CLI adds to sys.modules, one name a line.
ADDED_BY_IMPORT = """
import sys
before = set(sys.modules)
import citetrace.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


# Whether the commands that never correlate load citetrace.correlation, and
# whether the package still gives its correlation names.
CORRELATION_PROBE = """
import json, sys
from citetrace.cli import main
for args in [["--help"], ["compute", "--input", "corpus"], ["rank", "--input", "corpus"]]:
    main(args, standalone_mode=False)
loaded = "citetrace.correlation" in sys.modules
import citetrace
citetrace.pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
names = {}
exec("from citetrace import *", names)
print(json.dumps([loaded, citetrace.pearson.__module__, sorted(set(citetrace.__all__) - set(names))]))
"""


class TestLazyImports:
    """decimal and json load only in the calls that need them, and every
    record and result type is a NamedTuple, so no call loads dataclasses
    (and the inspect it imports), which cost far more to define at import."""

    def test_cli_import_loads_no_dataclasses_inspect_decimal_json_or_numbers(self):
        proc = subprocess.run([sys.executable, "-c", ADDED_BY_IMPORT],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        added = set(proc.stdout.split())
        assert "citetrace.cli" in added
        assert added & {"click", "citetrace.reference", "dataclasses", "decimal", "inspect",
                        "json", "numbers", "numpy", "scipy"} == set()

    def test_only_correlate_loads_the_correlation_module(self):
        proc = subprocess.run([sys.executable, "-c", CORRELATION_PROBE],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [False, "citetrace.correlation", []]

    def test_no_public_name_is_a_dataclass(self):
        import dataclasses

        import citetrace

        assert [name for name in citetrace.__all__
                if dataclasses.is_dataclass(getattr(citetrace, name))] == []

    @pytest.mark.parametrize("snapshot", ["compute_corpus.json", "validate_reference.txt"])
    def test_fresh_process_matches_snapshot(self, snapshot):
        proc = subprocess.run([sys.executable, "-m", "citetrace.cli", *SNAPSHOTS[snapshot]],
                              capture_output=True, timeout=60, cwd=DATA.parent.parent)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (DATA / snapshot).read_bytes()

    def test_fresh_process_reads_json_input(self, tmp_path):
        path = tmp_path / "summary_small.json"
        summary = parse_summary_csv((DATA / "summary_small.csv").read_bytes())
        path.write_text(dataset_to_json(summary))
        proc = _run_cli(["compute", "--input", str(path), "--output", "json"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (DATA / "compute_summary_small.json").read_bytes()


class TestBadInputEndsInOneLineError:
    BIG = 10 ** 400
    PAIR = b"name,P,h,Pz,C,Ch\nA,2,1,0,3,2\nB,4,1,3,5,4\n"

    LONG_INT = b'[{"name": "A", "P": ' + b"9" * 5000 + b', "h": 1, "Pz": 0, "C": 3, "Ch": 2}]'

    @pytest.mark.parametrize("data, metrics, needle, name", [
        (f"name,P,h,Pz,C,Ch\nHuge,{BIG},1,0,{BIG},1\n".encode(), None, b"Huge", "data.csv"),
        (b"name,P,h,Pz,C,Ch\nA\xff,2,1,0,3,2\n", None, b"UTF-8", "data.csv"),
        (PAIR, b"name,IF\nA,nan\nB,1.0\n", b"row 2", "data.csv"),
        (PAIR, b"name,IF\nA,1.0\nB,inf\n", b"row 3", "data.csv"),
        (b"[" * 200_000, None, b"invalid JSON: maximum recursion depth", "data.json"),
        (LONG_INT, None, b"invalid JSON: Exceeds the limit", "data.json"),
    ], ids=["overflow", "non-utf8", "nan-metric", "inf-metric", "deep-json", "long-int-json"])
    def test_exit_one_without_traceback(self, tmp_path, data, metrics, needle, name):
        path = tmp_path / name
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


class TestFirstBadRow:
    """A citations or metric CSV names its first bad row, in one line."""

    CITATIONS = ["compute", "--format", "citations", "--input"]
    METRICS = ["correlate", "--input", "corpus", "--metric-file"]

    @pytest.mark.parametrize("data, command, message", [
        ("name,citations\nA,1\nB,4;-1\n", CITATIONS,
         "error: row 3: B: citation count must be >= 0, got -1"),
        ("name,citations\nA,1\nB,\n", CITATIONS, "error: row 3: empty citation list"),
        ("name,IF\nNature,1\n\n Nature ,2\n", METRICS, "error: row 4: duplicate entity 'Nature'"),
        ("name,IF\nNature,1\nScience,1,2\n", METRICS, "error: row 3: expected 2 columns, got 3"),
        ("name,IF\n,1\nNature,2\n", METRICS, "error: row 2: entity name must be non-empty"),
    ], ids=["negative", "empty-list", "duplicate-metric", "long-metric-row", "blank-metric-name"])
    def test_exit_one_with_the_row(self, runner, tmp_path, data, command, message):
        path = tmp_path / "data.csv"
        path.write_text(data)
        result = runner.invoke(main, [*command, str(path)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == message + "\n"

    def test_padded_citation_count(self, runner, tmp_path):
        # int() keeps the "\x1c" that str.strip() removes
        outputs = []
        for cell in ["4;1", "\x1c4\x1c;1"]:
            path = tmp_path / "data.csv"
            path.write_text(f"name,citations\nA,1\nB,{cell}\n")
            result = invoke(runner, [*self.CITATIONS, str(path)])
            assert result.exit_code == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


class TestIntegerPastDigitLimit:
    """A well-formed integer longer than int()'s 4,300-digit limit is named as
    too large, with its digit count, in one short line."""

    DIGITS = "9" * 5000

    @pytest.mark.parametrize("name, data, args, message", [
        ("data.csv", f"name,P,h,Pz,C,Ch\nA,{DIGITS},1,0,3,2\n", [],
         "error: row 2: P is too large: an integer of 5000 digits, '9999"),
        ("data.csv", f"name,citations\nA,3;{DIGITS};1\n", ["--format", "citations"],
         "error: row 2: citation count is too large: an integer of 5000 digits, '9999"),
        ("data.json", json.dumps([{"name": "A", "citations": f"3; {DIGITS}"}]), [],
         "error: item 0: citation count is too large: an integer of 5000 digits, '9999"),
        ("data.json", f'[{{"name": "A", "P": {DIGITS}, "h": 1, "Pz": 0, "C": 3, "Ch": 2}}]', [],
         "error: invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
         "value has 5000 digits"),
    ], ids=["summary", "citations", "json-citations", "json-summary"])
    def test_one_short_line_naming_the_digit_count(self, tmp_path, name, data, args, message):
        path = tmp_path / name
        path.write_text(data)
        proc = _run_cli(["compute", "--input", str(path), *args])
        assert proc.returncode == 1
        assert proc.stdout == b""
        line = proc.stderr.decode()
        assert line.startswith(message) and line.count("\n") == 1
        assert len(line) < 200


class TestLongCountsInWarnings:
    """A count past 128 digits is written in exponent notation in a warning."""

    CEILING = "tail citations exceed the h*Pt ceiling (Ct={} > 1*0=0); " \
              "no tail paper can carry more than h citations"

    def test_big_csv(self, monkeypatch):
        monkeypatch.chdir(DATA.parent.parent)
        proc = _run_cli(["compute", "--input", "tests/data/big.csv"])
        assert proc.returncode == 0
        assert proc.stdout == (DATA / "compute_big.txt").read_bytes()
        assert proc.stderr.decode() == "warning: big: " + self.CEILING.format("1.798e+308") + "\n"

    def test_count_past_the_float_range(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text(f"name,P,h,Pz,C,Ch\nhuge,1,1,0,{10 ** 400},1\n")
        proc = _run_cli(["compute", "--input", str(path)])
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.decode().splitlines() == [
            "warning: huge: " + self.CEILING.format("1.000e+400"),
            "error: huge: class scores exceed the float range"]


class TestOptionValueStartingWithDash:
    """A value that starts with "-" is written ``--opt=value``: argparse
    reads ``--opt -value`` as an option with no value."""

    CASES = pytest.mark.parametrize("spaced, joined, plain, missing", [
        (["compute", "--input", "-x.csv", "--output", "csv"],
         ["compute", "--input=-x.csv", "--output", "csv"],
         ["compute", "--input", "x.csv", "--output", "csv"], "--input"),
        (["correlate", "--metric-file", "-m.csv", "--input", "corpus"],
         ["correlate", "--metric-file=-m.csv", "--input", "corpus"],
         ["correlate", "--metric-file", "m.csv", "--input", "corpus"], "--metric-file"),
        (["plot-data", "--input", "-x.csv", "--metric-file", "-m.csv"],
         ["plot-data", "--input=-x.csv", "--metric-file=-m.csv"],
         ["plot-data", "--input", "x.csv", "--metric-file", "m.csv"], "--input"),
    ], ids=["input", "metric-file", "both"])

    @pytest.fixture(autouse=True)
    def files(self, tmp_path, monkeypatch):
        for name in ("-x.csv", "x.csv"):
            (tmp_path / name).write_text("name,P,h,Pz,C,Ch\nNature,2,1,0,3,2\nScience,4,2,1,9,7\n")
        for name in ("-m.csv", "m.csv"):
            (tmp_path / name).write_text("name,IF\nNature,1.0\nScience,2.0\n")
        monkeypatch.chdir(tmp_path)

    @CASES
    def test_spaced_form_is_a_usage_error(self, runner, spaced, joined, plain, missing):
        result = runner.invoke(main, spaced)
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.endswith(
            f"citetrace {spaced[0]}: error: argument {missing}: expected one argument\n")

    @CASES
    def test_joined_form_reads_the_file(self, runner, spaced, joined, plain, missing):
        result = invoke(runner, joined)
        assert result.exit_code == 0, result.stderr
        assert result.stdout
        expected = invoke(runner, plain)
        assert (result.stdout, result.stderr) == (expected.stdout, expected.stderr)

    # a bad value of an option: the last stderr line starts with each message
    @pytest.mark.parametrize("args, message", [
        (["--input", "--output", "csv"], "error: argument --input: expected one argument"),
        (["--input=-missing.csv"], "error: input file not found: -missing.csv"),
        (["--input", "corpus", "--precision", "0"],
         "error: argument --precision: invalid choice: 0"),
        (["--input", "corpus", "--precision", "x"],
         "error: argument --precision: invalid int value: 'x'"),
        (["--input", "corpus", "--format", "bogus"],
         "error: argument --format: invalid choice: 'bogus'"),
    ], ids=["flag", "missing-file", "precision-zero", "precision-text", "format"])
    def test_usage_errors(self, runner, args, message):
        result = runner.invoke(main, ["compute", *args])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.startswith("usage: citetrace compute ")
        assert result.stderr.splitlines()[-1].startswith(f"citetrace compute: {message}")


class TestUnreadableFile:
    @pytest.mark.parametrize("option, what", [("--input", "input file"),
                                              ("--metric-file", "metric file")])
    def test_usage_error_naming_path_and_reason(self, runner, tmp_path, monkeypatch,
                                                option, what):
        path = tmp_path / "locked.csv"
        path.write_text("name,IF\nNature,1.0\n")

        def read_bytes(self):
            if self.name == "locked.csv":
                raise PermissionError(13, "Permission denied", str(self))
            return original(self)

        original = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", read_bytes)
        args = {"--input": ["compute", "--input", str(path)],
                "--metric-file": ["plot-data", "--input", "corpus", "--metric-file", str(path)]}
        result = runner.invoke(main, args[option])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.endswith(f"citetrace {args[option][0]}: error: {what} not readable: "
                                      f"{path} (Permission denied)\n")
        assert "Traceback" not in result.stderr


class TestInputThatIsNoRegularFile:
    def test_piped_stdin_reads_as_the_file(self):
        path = DATA / "summary_small.csv"
        args = ["compute", "--output", "csv", "--input"]
        piped = subprocess.run([sys.executable, "-m", "citetrace.cli", *args, "/dev/stdin"],
                               input=path.read_bytes(), capture_output=True, timeout=30)
        expected = _run_cli([*args, str(path)])
        assert expected.returncode == 0 and expected.stdout
        assert (piped.returncode, piped.stdout, piped.stderr) == (
            0, expected.stdout, expected.stderr)

    @pytest.mark.parametrize("args, what", [
        (["compute", "--input"], "input file"),
        (["plot-data", "--input", "corpus", "--metric-file"], "metric file"),
    ], ids=["input", "metric-file"])
    def test_directory_is_not_readable(self, tmp_path, args, what):
        proc = _run_cli([*args, str(tmp_path)])
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.endswith(f"citetrace {args[0]}: error: {what} not readable: "
                                    f"{tmp_path} (Is a directory)\n".encode())


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


class TestGroupOnFileInput:
    """No file format carries a group, so --group on a file fails once the
    file is read, before it is parsed."""

    @pytest.mark.parametrize("name, data, args", [
        ("data.csv", JOI_CSV, []),
        ("data.csv", TRIO_CITATIONS, ["--format", "citations"]),
        ("data.json", json.dumps([{"name": "A", "citations": [3, 2, 1]}]), []),
        ("data.csv", "name,P,h,Pz,C,Ch\nX,10,4,0,20,15\nX,1\n", []),
    ], ids=["summary", "citations", "json", "malformed"])
    @pytest.mark.parametrize("command", ["compute", "rank", "correlate"])
    def test_one_line_error(self, runner, tmp_path, name, data, args, command):
        path = tmp_path / name
        path.write_text(data)
        result = runner.invoke(main, [command, "--input", str(path), *args, "--group", "LIS"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: no records in group 'LIS'\n"

    def test_missing_file_stays_a_usage_error(self, runner, tmp_path):
        missing = tmp_path / "missing.csv"
        result = runner.invoke(main, ["compute", "--input", str(missing), "--group", "LIS"])
        assert result.exit_code == 2
        assert f"input file not found: {missing}" in result.stderr


_COMMANDS = pytest.mark.parametrize("command", [
    ["compute"], ["rank"], ["correlate"], ["plot-data", "--metric-file", "METRICS"],
], ids=["compute", "rank", "correlate", "plot-data"])


class TestNoRecords:
    @staticmethod
    def check(runner, tmp_path, command, name, data, options=()):
        path = tmp_path / name
        path.write_text(data)
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("name,IF\nNature,1.0\n")
        args = [str(metrics) if a == "METRICS" else a for a in command]
        result = runner.invoke(main, [*args, "--input", str(path), *options])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: no records in input\n"

    @_COMMANDS
    def test_same_one_line_error_on_every_command(self, runner, tmp_path, command):
        self.check(runner, tmp_path, command, "empty.csv", "name,P,h,Pz,C,Ch\n")

    @pytest.mark.parametrize("name, data, options", [
        ("empty.csv", "name,citations\n", ["--format", "citations"]),
        ("empty.json", "[]", []),
    ], ids=["citations", "json"])
    @_COMMANDS
    def test_same_error_for_every_format(self, runner, tmp_path, command, name, data, options):
        self.check(runner, tmp_path, command, name, data, options)


class TestOneRoute:
    """Every input is scored a chunk of integer columns at a time.  A summary
    or citations CSV is parsed row by row only when a chunk of its rows
    fails the bulk check, and then once; an empty file or an overflow never
    needs it."""

    @pytest.mark.parametrize("header, rows, options, calls", [
        ("name,P,h,Pz,C,Ch", [], [], 0),
        ("name,P,h,Pz,C,Ch", ["warned,10,2,1,8,5", f"huge,1,1,0,{10 ** 400},1"], [], 0),
        ("name,P,h,Pz,C,Ch", ["a,10,2,1,20,5", "bad,20,x,2,50,9"], [], 1),
        ("name,citations", [], ["--format", "citations"], 0),
        ("name,citations", ["a,3;2;1", f"huge,{10 ** 400}"], ["--format", "citations"], 0),
        ("name,citations", ["a,3;2;1", "bad,4;x"], ["--format", "citations"], 1),
    ], ids=["header-only", "overflow", "bad-row", "citations-header-only",
            "citations-overflow", "citations-bad-row"])
    def test_row_parse_calls(self, runner, tmp_path, header, rows, options, calls):
        path = tmp_path / "data.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        with mock.patch.object(datasets, "_parse_csv", wraps=datasets._parse_csv) as parse:
            result = runner.invoke(main, ["compute", "--input", str(path), *options])
        assert result.exit_code == 1
        assert parse.call_count == calls

    HUGE = 10 ** 400

    # a summarized citation list is always plausible, so only the JSON file of
    # summary objects has warnings
    @pytest.mark.parametrize("name, data, options, warned", [
        ("data.csv", f"name,citations\nA,3;2;1\nhuge,{HUGE}\nB,5;0\n",
         ["--format", "citations"], []),
        ("data.json", json.dumps([
            {"name": "warned", "P": 10, "h": 2, "Pz": 1, "C": 8, "Ch": 5},
            {"name": "huge", "P": 1, "h": 1, "Pz": 0, "C": HUGE, "Ch": 1},
            {"name": "late", "P": 10, "h": 2, "Pz": 1, "C": 8, "Ch": 5}]), [],
         ["warned", "huge", "late"]),
    ], ids=["citations", "json"])
    def test_overflow_is_named_after_every_warning(self, runner, tmp_path, name, data,
                                                   options, warned):
        path = tmp_path / name
        path.write_text(data)
        result = runner.invoke(main, ["compute", "--input", str(path), *options])
        assert result.exit_code == 1
        assert result.stdout == ""
        *warnings, error = result.stderr.splitlines()
        assert [line.split(": ")[1] for line in warnings] == warned
        assert all(line.startswith("warning: ") for line in warnings)
        assert error == "error: huge: class scores exceed the float range"


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

    @pytest.mark.parametrize("output", ["csv", "table"])
    def test_lone_surrogate_in_a_name_is_a_one_line_error(self, tmp_path, output):
        """Only a JSON escape can put one in a name, and no stream can write it."""
        path = tmp_path / "data.json"
        path.write_text('[{"name": "A\\ud800", "citations": [3, 2, 1]}]')
        proc = _run_cli(["compute", "--input", str(path), "--output", output])
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == (b"error: item 0: name holds a lone surrogate, "
                               b"which UTF-8 cannot encode\n")


class TestLineBreaksInNames:
    """A character at which str.splitlines splits is written as its Python
    escape in a table cell and in a warning, error or usage-error line, so
    that none of them splits; csv and json keep the character."""

    DATA = 'name,P,h,Pz,C,Ch\n"A\nB",10,3,1,38,20\n"W\r\x85X",10,2,1,8,5\nPlain,8,2,1,20,10\n'
    NAMES = ["A\nB", "W\r\x85X", "Plain"]
    WARNING = ("warning: W\\r\\x85X: tail citations below tail paper count (Ct=3 < Pt=7); "
               "every cited tail paper carries at least one citation\n")

    @pytest.mark.parametrize("args, names, stderr", [
        (["compute"], [["A\\nB"], ["W\\r\\x85X"], ["Plain"]], WARNING),
        (["rank", "--output", "table"], [["1", "A\\nB"], ["2", "Plain"], ["3", "W\\r\\x85X"]], ""),
    ], ids=["compute", "rank"])
    def test_table_rows_and_warnings_stay_on_one_line(self, runner, tmp_path, args, names,
                                                      stderr):
        path = tmp_path / "breaks.csv"
        path.write_text(self.DATA, encoding="utf-8", newline="")
        result = invoke(runner, [*args, "--input", str(path)])
        assert (result.exit_code, result.stderr_bytes.decode()) == (0, stderr)
        lines = result.stdout_bytes.decode().split("\n")
        assert len(lines) == 5 and lines[-1] == ""
        assert [line.split()[:len(names[0])] for line in lines[1:-1]] == names

    def test_csv_and_json_keep_the_characters(self, runner, tmp_path):
        path = tmp_path / "breaks.csv"
        path.write_text(self.DATA, encoding="utf-8", newline="")
        csv_out = invoke(runner, ["compute", "--input", str(path), "--output", "csv"])
        rows = list(csv.reader(io.StringIO(csv_out.stdout_bytes.decode(), newline="")))
        assert [row[0] for row in rows[1:]] == self.NAMES
        json_out = invoke(runner, ["rank", "--input", str(path), "--output", "json"])
        assert [item["name"] for item in json.loads(json_out.stdout_bytes)] == [
            "A\nB", "Plain", "W\r\x85X"]

    @pytest.mark.parametrize("command", ["compute", "rank"])
    def test_error_line(self, runner, tmp_path, command):
        path = tmp_path / "bad.csv"
        path.write_text('name,P,h,Pz,C,Ch\n"A\nB",0,0,0,0,0\n', encoding="utf-8", newline="")
        result = invoke(runner, [command, "--input", str(path), "--output", "table"])
        assert (result.exit_code, result.stdout_bytes) == (1, b"")
        assert result.stderr_bytes == b"error: row 3: A\\nB: P must be >= 1, got 0\n"

    def test_usage_error_line(self, runner, tmp_path):
        missing = str(tmp_path / "no\u2028such\nfile.csv")
        result = invoke(runner, ["compute", "--input", missing])
        assert result.exit_code == 2
        escaped = missing.replace("\u2028", "\\u2028").replace("\n", "\\n")
        assert result.stderr_bytes.decode().endswith(
            f"\ncitetrace compute: error: input file not found: {escaped}\n")


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
        (["compute"], "1.798e+308"),
        (["rank", "--key", "Y2", "--precision", "1"], "2e+308"),
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


def _summary_rows(n: int) -> list[str]:
    """n valid summary rows that raise no plausibility warning."""
    rows = []
    for i in range(n):
        p, ch = 20 + i % 7, 9 + i % 5
        rows.append(f"e{i:04d},{p},3,2,{ch + 2 * (p - 5)},{ch}")
    return rows


def _row_by_row(data: str) -> str:
    """The stderr of compute by the record path: the first parse error alone;
    else every plausibility warning, then the first overflowing entity."""
    try:
        records = parse_summary_csv(data).records
    except CitetraceError as err:
        return f"error: {err}\n"
    lines = [f"warning: {r.name}: {w}\n" for r in records for w in plausibility_warnings(r)]
    try:
        score_table(records)
    except ValidationError as err:
        lines.append(f"error: {err}\n")
    return "".join(lines)


class TestErrorOrderAcrossChunks:
    """A summary CSV is read, checked and scored ``partition._CHUNK_ROWS``
    (B) rows at a time.  Its errors and warnings still come out as the
    row-by-row parse gives them, whether the bad row opens or closes a
    chunk.  Line 2 is the first row of the first chunk, B + 1 its last,
    B + 2 the first of the second chunk and 4B + 1 the last of the fourth."""

    B = partition._CHUNK_ROWS
    LINES = [2, B + 1, B + 2, 4 * B + 1]
    BAD = {
        "columns": "bad,1,2,3",
        "integer": "bad,20,x,2,50,9",
        "blank-name": " ,20,3,2,50,9",
        "digits": "bad," + "9" * 5000 + ",3,2,50,9",
        "negative": "bad,20,3,-1,50,9",
        "P<1": "bad,0,0,0,0,0",
        "h>P": "bad,2,3,0,50,9",
        "Pz>P-h": "bad,20,3,18,50,9",
        "Ch<h^2": "bad,20,3,2,50,8",
        "Ch>C": "bad,20,3,2,8,9",
        "h=0,C>0": "bad,20,0,2,5,0",
        "duplicate": "e0000,20,3,2,50,9",
    }
    WARNED = "warned,10,2,1,8,5"  # Ct = 3 < Pt = 7
    HUGE = f"huge,1,1,0,{10 ** 400},1"  # Y2 past the float range; also warned

    @classmethod
    def compute(cls, tmp_path, edits: dict[int, str]):
        """compute on 4B + 104 rows with the rows at the given lines replaced."""
        rows = _summary_rows(4 * cls.B + 104)
        for line, row in edits.items():
            rows[line - 2] = row
        data = "name,P,h,Pz,C,Ch\n" + "\n".join(rows) + "\n"
        path = tmp_path / "data.csv"
        path.write_text(data)
        result = CliRunner().invoke(main, ["compute", "--input", str(path), "--output", "csv"])
        return data, result

    def test_lines_open_and_close_chunks(self, tmp_path):
        data, _ = self.compute(tmp_path, {})
        firsts, lasts = [], []
        for names, *_ in datasets.summary_columns(data):
            firsts.append(int(names[0][1:]) + 2)  # row e0000 is on line 2
            lasts.append(int(names[-1][1:]) + 2)
        assert len(firsts) == 5 and lasts[-1] == 4 * self.B + 105
        assert {self.LINES[0], self.LINES[2]} <= set(firsts)
        assert {self.LINES[1], self.LINES[3]} <= set(lasts)

    @pytest.mark.parametrize("kind, line", [pair for pair in itertools.product(sorted(BAD), LINES)
                                            if pair != ("duplicate", 2)])
    def test_one_bad_row(self, tmp_path, kind, line):
        data, result = self.compute(tmp_path, {3: self.WARNED, line: self.BAD[kind]})
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == _row_by_row(data)
        assert result.stderr.startswith(f"error: row {line}: ")
        assert result.stderr.count("\n") == 1  # no warning: the input did not parse

    @pytest.mark.parametrize("first, second", [("integer", "duplicate"),
                                               ("duplicate", "integer"),
                                               ("columns", "h=0,C>0"),
                                               ("blank-name", "digits")])
    @pytest.mark.parametrize("line", [B + 1, 4 * B])
    def test_the_earlier_of_two_bad_rows(self, tmp_path, first, second, line):
        data, result = self.compute(tmp_path, {line: self.BAD[first],
                                               line + 1: self.BAD[second]})
        assert result.exit_code == 1
        assert result.stderr == _row_by_row(data)
        assert result.stderr.startswith(f"error: row {line}: ")

    @pytest.mark.parametrize("line", LINES)
    def test_overflow_names_its_entity_after_every_warning(self, tmp_path, line):
        late = self.WARNED.replace("warned", "late")
        data, result = self.compute(tmp_path, {line: self.HUGE, self.B: self.WARNED,
                                               4 * self.B + 2: late})
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == _row_by_row(data)
        lines = result.stderr.splitlines()
        assert len(lines) == 4 and lines[-1] == "error: huge: class scores exceed the float range"

    @pytest.mark.parametrize("line", LINES)
    def test_a_parse_error_after_an_overflow_comes_first(self, tmp_path, line):
        bad = 4 * self.B + 3
        data, result = self.compute(tmp_path, {line: self.HUGE, bad: self.BAD["columns"]})
        assert result.stderr == _row_by_row(data)
        assert result.stderr == f"error: row {bad}: expected 6 columns, got 4\n"

    def test_cells_only_the_row_parse_accepts(self, tmp_path):
        # int() keeps the "\x1c" that str.strip() removes, so the bulk conversion
        # rejects the cell and the record path reads the rest of the file
        name, line, last = f"e{self.B:04d}", self.B + 2, 4 * self.B + 1
        data, padded = self.compute(tmp_path, {line: f"{name},\x1c21\x1c,3,2,51,9",
                                               last: self.WARNED})
        _, plain = self.compute(tmp_path, {line: f"{name},21,3,2,51,9", last: self.WARNED})
        assert padded.exit_code == plain.exit_code == 0
        assert padded.stdout == plain.stdout
        assert padded.stderr == plain.stderr == _row_by_row(data)
        assert padded.stderr.startswith("warning: warned: ")
