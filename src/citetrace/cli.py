"""Command-line interface: compute, rank, correlate, validate-reference, plot-data.

Output is fully deterministic: identical inputs and flags produce
byte-identical bytes (no timestamps, '.' as the decimal point).  Human
tables round to a configurable number of significant figures; csv and
json output never rounds.  Exit codes: 0 success, 1 validation or
comparison failure, 2 usage error.  Names and other text are written
byte for byte as given, escape sequences included; only a table cell and
a ``warning:``, ``error:`` or usage-error line write each character at
which ``str.splitlines`` splits as its Python escape, such as ``\\n``.
Every standard stream gets UTF-8, whatever its encoding.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
from array import array
from functools import cache
from itertools import compress, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from . import partition
from .datasets import (MetricTable, _write_csv, _write_json, citation_columns, parse_json,
                       parse_metric_csv, summary_columns)
from .errors import CitetraceError, JoinError, ParseError, ValidationError
from .indicators import INDICATOR_KEYS, ScoreTable, add_rows, empty_table
from .partition import _FIXED_WIDTH, column_chunks, column_warnings
from .ranking import rank_order

_FORMATS = ("summary", "citations", "json")
_OUTPUTS = ("table", "csv", "json")
# The bundled inputs: the citetrace.reference function that loads each.
_CORPUS_INPUTS = {
    "corpus": "journals_dataset",
    "corpus:journals": "journals_dataset",
    "corpus:units": "units_dataset",
}


class UsageError(Exception):
    """A command line that cannot run: printed after the usage, exit code 2."""


# The capacity of a Linux pipe, in bytes: _emit writes whole multiples of it.
_PIPE_BYTES = 1 << 16


def _pieces(chunks: Iterable[str]) -> Iterator[str]:
    """The text of chunks in pieces of whole multiples of ``_PIPE_BYTES``
    characters, and what is left over last."""
    pending, count = [], 0
    for chunk in chunks:
        pending.append(chunk)
        count += len(chunk)
        if count >= _PIPE_BYTES:
            text = "".join(pending)
            cut = count - count % _PIPE_BYTES
            yield text[:cut]
            pending, count = [text[cut:]], count - cut
    if count:
        yield "".join(pending)


def _emit(stream: TextIO, chunks: Iterable[str]) -> None:
    """Write text to a standard stream as UTF-8, whatever the stream's
    encoding, with any character UTF-8 cannot hold written as its Python
    escape.  A stream with no byte buffer, such as ``io.StringIO``, takes
    the text as it is.

    The text goes out in ``_pieces``, one write each: a reader at the
    other end of a pipe then reads ASCII text in full pipes whatever the
    scheduling, not a block or a line at a time as they happen to arrive,
    and the warnings of a large input take one write, not one a line."""
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        for chunk in _pieces(chunks):
            stream.write(chunk)
        return
    stream.flush()
    for chunk in _pieces(chunks):
        buffer.write(chunk.encode("utf-8", "backslashreplace"))
    buffer.flush()


def _read(path_str: str, what: str) -> bytes:
    """The bytes of a file named on the command line, a pipe or a device such
    as /dev/stdin included; a missing or unreadable file is a usage error."""
    try:
        return Path(path_str).read_bytes()
    except (FileNotFoundError, NotADirectoryError):  # no such file, or a file on its path
        raise UsageError(f"{what} not found: {path_str}") from None
    except OSError as err:  # a directory, a denied permission, a too-long name
        raise UsageError(f"{what} not readable: {path_str} ({err.strerror or err})") from None


def _load_metrics(path_str: str) -> MetricTable:
    metrics = parse_metric_csv(_read(path_str, "metric file"))
    for metric in metrics.metrics:
        if metric in INDICATOR_KEYS:
            # it would be shadowed by the indicator in correlate and plot-data
            raise ParseError(f"metric CSV column {metric!r} has the name of an indicator")
    return metrics


def _input_columns(input_: str, format_: str | None,
                   group: str | None) -> Iterator[tuple[list, ...]]:
    """The input's records, or those in group, as chunks of integer columns
    (names, P, h, Pz, C, Ch): a summary or citations CSV's read as its rows
    are, with no record per row."""
    if input_ in _CORPUS_INPUTS:
        from . import reference  # here: no file input needs the bundled corpus

        records = getattr(reference, _CORPUS_INPUTS[input_])().records
        if group is not None:
            wanted = group.lower()
            records = [r for r in records if r.group and r.group.lower() == wanted]
            if not records:
                raise ValidationError(f"no records in group {group!r}")
        return column_chunks(records)
    data = _read(input_, "input file")
    if group is not None:  # no file format carries a group
        raise ValidationError(f"no records in group {group!r}")
    if format_ is None:
        format_ = "json" if Path(input_).suffix.lower() == ".json" else "summary"
    if format_ == "summary":
        return summary_columns(data)
    if format_ == "citations":
        return citation_columns(data)
    return column_chunks(parse_json(data).records)


def _scored(input_: str, format_: str | None, group: str | None,
            warn: bool = False) -> ScoreTable:
    """The score table of the input's records, or of those in group, scored
    a chunk at a time.  With warn, the rows' plausibility warnings are
    printed once every row is read.  A class score past the float range is
    raised after them, so an error later in the input still comes first."""
    table, warnings, overflow = empty_table(), [], None
    for columns in _input_columns(input_, format_, group):
        if warn:
            warnings += column_warnings(*columns)
        if overflow is None:
            try:
                add_rows(table, *columns)
            except ValidationError as err:
                overflow = err
    _say([f"warning: {name}: {warning}" for name, warning in warnings])
    if overflow is not None:
        raise overflow
    if not table.name:
        raise ValidationError("no records in input")
    return table


# The characters at which str.splitlines splits
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK = re.compile(f"[{_BREAKS}]")
_ESCAPES = {ord(c): repr(c)[1:-1] for c in _BREAKS}


def _one_line(column: Sequence[str]) -> list[str]:
    """A column of strings with each line break written as its Python escape;
    as it is if one search of the joined column finds none."""
    if not _LINE_BREAK.search("".join(column)):
        return list(column)
    return [text.translate(_ESCAPES) for text in column]


def _say(lines: Sequence[str]) -> None:
    """Write messages to stderr, each on one line."""
    _emit(sys.stderr, (line + "\n" for line in _one_line(lines)))


def _format_sig(value: float, figures: int) -> str:
    """Rounding to significant figures (tables only): fixed notation up to
    ``_FIXED_WIDTH`` characters, else exponent notation.  p-values of
    1e-105 still fit.  The number of decimals follows the exponent of the
    unrounded value, ``floor(log10|value|)``, so a value that rounds into
    the next decade keeps one figure more: to 4 figures, 9.9996 is
    ``10.000`` and 999.95 is ``1000.0``."""
    if value == 0 or not math.isfinite(value):
        return str(value)
    digits = figures - 1 - math.floor(math.log10(abs(value)))
    if figures - digits <= _FIXED_WIDTH:  # at most that many digits before the point
        # Each rounds the exact binary value half to even; a value this small
        # cannot round past the float maximum.
        if digits > 0:
            text = "%.*f" % (digits, value)
        elif abs(value) < 2 ** 53:  # a float holds the rounded integer exactly
            text = "%.0f" % round(value, digits)
        else:  # the value is an integer; round() keeps it exact
            text = str(round(int(value), digits))
        if len(text) <= _FIXED_WIDTH:
            return text
    return "%.*e" % (figures - 1, value)


# Up to this many figures, _float_cells formats a column in one pass.
_BATCH_FIGURES = 12


@cache  # made on first use, for each number of figures
def _suspect_texts(figures: int) -> frozenset[str]:
    """The cells of ``_float_cells`` that ``_format_sig`` rewrites: the texts
    of zeros and powers of ten in fixed notation, of either sign, and ``0``,
    the rebuilt text of a value below 1."""
    texts = [("%#.*g" % (figures, value)).rstrip(".")
             for value in [0.0, *(float(f"1e{e}") for e in range(-4, figures))]]
    return frozenset(["0", "-0", *texts, *("-" + text for text in texts)])


def _float_cells(column: Sequence[float], figures: int) -> list[str]:
    """``_format_sig`` of each value of a column.  Up to ``_BATCH_FIGURES``
    figures, one ``%#.Ng`` format of the whole column writes the cells.  A
    cell in exponent notation is rebuilt as the integer it rounded to, which
    a float holds exactly below 10**16; ``_format_sig`` rewrites the rest of
    them, and the zeros and powers of ten in fixed notation (``0.000``,
    ``1.000``, ``10.00``, ``0.1000``, ...).  ``nan`` and ``inf`` have their
    ``_format_sig`` texts already.

    Why the other cells are right: ``math.log10`` is within 2 ulp of the
    logarithm, and an ulp of a number below 512 in magnitude, as every
    finite float's logarithm is, is at most 2**-44.  So the exponent that
    ``_format_sig`` takes, ``floor(math.log10(abs(v)))``, can miss the
    decimal exponent E of v only when log10|v| is within 2**-43 of an
    integer k, that is when v is within a relative 2**-43 * ln 10 < 2.7e-13
    of 10**k.  Rounded to N <= 12 figures such a v is 10**k, whose round-off
    reaches 5e-13 below it and 5e-12 above it; at 13 figures the reach below
    is 5e-14, and the argument fails.  A cell in fixed notation that is not
    a power of ten did not round into the next decade, so its ``%#g``
    exponent is E and is ``_format_sig``'s; then ``%#.Ng`` writes N-1-E
    decimals, as ``_format_sig`` does, and both round the exact binary value
    half to even.  Rebuilt from exponent notation, a value below 1 reads
    ``0`` and is rewritten; one from 10**N to 10**16 has E >= N-1 and is v
    rounded half to even at the digit of 10**(E-N+1), the integer
    ``_format_sig`` rounds v to.  Where the exponent of ``_format_sig``
    misses E by one, v is within 2.7e-13 of 10**k and rounds to it one
    figure either side of N as well.  Past 12 figures every cell is
    ``_format_sig``'s."""
    if figures > _BATCH_FIGURES:
        return list(map(_format_sig, column, repeat(figures)))
    suspects = _suspect_texts(figures)
    # a cell of integer width ends in its decimal point, which the pass keeps
    text = ((f"%#.{figures}g\n" * len(column)) % tuple(column)).replace(".\n", "\n")
    cells = text.split("\n")
    cells.pop()
    rewrite = []
    if "e" in text:
        rows = list(compress(range(len(cells)), map(str.__contains__, cells, repeat("e"))))
        rounded = list(map(float, map(cells.__getitem__, rows)))
        for row, cell in zip(rows, map("%.0f".__mod__, rounded)):
            cells[row] = cell
        if max(map(abs, rounded)) >= 1e16:
            rewrite = [row for row, value in zip(rows, rounded) if abs(value) >= 1e16]
    if not suspects.isdisjoint(cells):
        rewrite += compress(range(len(cells)), map(suspects.__contains__, cells))
    for row in rewrite:
        cells[row] = _format_sig(column[row], figures)
    return cells


def _blocks(columns: Sequence[Sequence], rows: Sequence[int] | None = None,
            ranked: bool = False) -> Iterator[list[Sequence]]:
    """The columns in slices of ``partition._CHUNK_ROWS`` rows: of the rows at
    positions ``rows``, in that order, if given, else of every row; led by
    the 1-based report positions when ``ranked``.  Every report column holds
    values of one type, so a writer picks each column's encoder from its
    first value."""
    count = len(columns[0]) if rows is None else len(rows)
    for start in range(0, count, partition._CHUNK_ROWS):
        stop = min(start + partition._CHUNK_ROWS, count)
        if rows is None:
            block = [column[start:stop] for column in columns]
        elif stop - start == 1:
            block = [(column[rows[start]],) for column in columns]
        else:
            pick = itemgetter(*rows[start:stop])
            block = list(map(pick, columns))
        if ranked:
            block.insert(0, range(start + 1, stop + 1))
        yield block


def _lines(columns: Sequence[Sequence[str]], widths: Sequence[int]) -> Iterator[str]:
    """The rows of columns of cells as lines: the first column padded on the
    right to its width, the others on the left, two spaces between; no
    trailing spaces."""
    padded = [map(str.rjust, column, repeat(width)) for column, width in zip(columns, widths)]
    padded[0] = map(str.ljust, columns[0], repeat(widths[0]))
    return map(str.rstrip, map("  ".join, zip(*padded)))


def _write_table(headers: Sequence[str], blocks: Iterable[list[Sequence]],
                 figures: int) -> Iterator[str]:
    """The table's text in chunks: every block's columns are formatted first,
    since the widths depend on every cell; then the lines are laid out a
    block at a time.  Until its layout a block keeps each column as its
    texts joined by newlines, which no cell holds: a string's line breaks
    are escaped, and no number's or ``None``'s text has one."""
    encoders = {
        str: _one_line,
        int: lambda column: list(map(str, column)),
        float: lambda column: _float_cells(column, figures),
        type(None): lambda column: [""] * len(column),
    }
    widths = list(map(len, headers))
    pending: list[list[str]] = []
    for columns in blocks:
        texts = [encoders[type(column[0])](column) for column in columns]
        widths = [max(width, *map(len, column)) for width, column in zip(widths, texts)]
        pending.append(["\n".join(column) for column in texts])
    yield next(_lines([[header] for header in headers], widths)) + "\n"
    pending.reverse()
    while pending:  # each block's text is freed once its lines are written
        columns = [column.split("\n") for column in pending.pop()]
        yield "\n".join(_lines(columns, widths)) + "\n"


def _echo_report(output: str, headers: Sequence[str], blocks: Iterable[list[Sequence]],
                 figures: int) -> None:
    """Write a report block by block; callers pass blocks of rows that are
    already validated and scored, so an error never leaves partial output."""
    if output == "table":
        _emit(sys.stdout, _write_table(headers, blocks, figures))
    else:
        _emit(sys.stdout, (_write_csv if output == "csv" else _write_json)(headers, blocks))


# The report columns of a ScoreTable: every field, or under --mask-x3 every field but X3.
_ALL = range(len(ScoreTable._fields))
_MASKED = [i for i in _ALL if ScoreTable._fields[i] != "X3"]


# Each option as (flags, argparse.add_argument keywords).
_INPUT = ("--input",), dict(
    dest="input_", required=True, metavar="PATH",
    help="Dataset path, or corpus / corpus:units for the bundled data.")
_FORMAT = ("--format",), dict(
    dest="format_", choices=_FORMATS,
    help="Input format (default: by file extension; csv means summary).")
_OUTPUT = ("--output",), dict(choices=_OUTPUTS, default="table",
                              help="Report format (default: table).")
_GROUP = ("--group",), dict(metavar="NAME",
                            help="Keep only records tagged with this group (e.g. LIS).")
_MASK = ("--mask-x3",), dict(action="store_true",
                             help="Drop the X3 column from the report (never from the trace).")
_PRECISION = ("--precision",), dict(type=int, choices=range(1, 18), default=4, metavar="1..17",
                                    help="Significant figures in table output (default: 4).")
_POSITIVE = ("--positive-only",), dict(action="store_true",
                                       help="Keep only entities with T > 0.")

# Every command by name: its function and its options.  The function's
# docstring is the command's help, and its first line the group help's entry.
_COMMANDS: dict[str, tuple[Callable[..., int | None], tuple]] = {}


def _command(name: str, *options: tuple):
    def register(function):
        _COMMANDS[name] = (function, options)
        return function
    return register


@_command("compute", _INPUT, _FORMAT, _OUTPUT, _GROUP, _MASK, _PRECISION)
def compute(input_, format_, output, group, mask_x3, precision) -> None:
    """Per-entity matrix entries, trace, h, I3X, I3Y and the sign flag."""
    table = _scored(input_, format_, group, warn=True)
    keep = _MASKED if mask_x3 else _ALL
    _echo_report(output, [table._fields[i] for i in keep], _blocks([table[i] for i in keep]),
                 precision)


@_command("rank", _INPUT, _FORMAT, _OUTPUT, _GROUP,
          (("--key",), dict(choices=INDICATOR_KEYS, default="T",
                            help="Indicator to sort by, descending (default: T).")),
          _POSITIVE, _MASK, _PRECISION)
def rank(input_, format_, output, group, key, positive_only, mask_x3, precision) -> None:
    """Rank entities by an indicator; ties break by name."""
    table = _scored(input_, format_, group)
    rows = rank_order(getattr(table, key), table.name)
    if positive_only:
        rows = [i for i in rows if table.sign[i] == "positive"]
    keep = _MASKED if mask_x3 else _ALL
    _echo_report(output, ["rank", *(table._fields[i] for i in keep)],
                 _blocks([table[i] for i in keep], rows, ranked=True), precision)


def _join_metrics(names: Sequence[str], metrics: MetricTable | None):
    """Inner-join entity names with metric rows; warn on mismatches.  The
    matched names' positions, and each metric's column of their values."""
    if metrics is None:
        return range(len(names)), {}
    matched = [i for i, name in enumerate(names) if name in metrics.rows]
    _say([f"warning: no metric row for entity {name!r}"
          for name in names if name not in metrics.rows])
    matched_names = {names[i] for i in matched}
    _say([f"warning: metric row {name!r} matches no entity"
          for name in metrics.rows if name not in matched_names])
    if not matched:
        raise JoinError("no entity names in common between dataset and metric file")
    rows = [metrics.rows[names[i]] for i in matched]
    metric_columns = {metric: array("d", map(itemgetter(j), rows))
                      for j, metric in enumerate(metrics.metrics)}
    return matched, metric_columns


@_command("correlate", _INPUT, _FORMAT, _OUTPUT, _GROUP,
          (("--metric-file",), dict(
              metavar="PATH",
              help="CSV of external per-entity metrics (header: name,<metric>...).")),
          _PRECISION, (("columns",), dict(nargs="*", metavar="COLUMNS",
                                          help="Indicator ids or metric-file column names.")))
def correlate(input_, format_, output, group, metric_file, precision, columns) -> None:
    """Pearson and Spearman correlations between indicator/metric columns.

    COLUMNS are indicator ids (T, h, I3X, ...) or metric-file column
    names; default is T plus every metric column, or T/h/I3X/I3Y when no
    metric file is given.
    """
    from .correlation import correlation_report  # here: only correlate needs it

    table = _scored(input_, format_, group)
    metrics = _load_metrics(metric_file) if metric_file else None
    matched, metric_columns = _join_metrics(table.name, metrics)
    if not columns:
        columns = ("T", *metric_columns) if metric_columns else ("T", "h", "I3X", "I3Y")
    series = []
    for column in columns:
        if column in INDICATOR_KEYS:
            values = getattr(table, column)
            if len(matched) < len(values):
                values = array("d", map(values.__getitem__, matched))
            series.append((column, values))
        elif column in metric_columns:
            series.append((column, metric_columns[column]))
        else:
            raise UsageError(f"unknown column {column!r}")
    if len(series) < 2:
        raise UsageError("need at least two columns to correlate")
    report = correlation_report(series)
    headers = ["a", "b", "n", "pearson_r", "p_pearson", "pearson_stars",
               "spearman_rho", "p_spearman", "spearman_stars"]
    rows = [[p.a, p.b, p.n, p.pearson_r, p.pearson_p, p.pearson_stars,
             p.spearman_rho, p.spearman_p, p.spearman_stars]
            for p in report.pairs]
    _echo_report(output, headers, _blocks(list(zip(*rows))), precision)


def _golden_lines(cells: Sequence) -> str:
    return "".join(f"{'PASS' if cell.passed else 'FAIL'} {cell.table:<12} {cell.entity:<22} "
                   f"{cell.cell:<3} computed={cell.computed!r} displayed={cell.displayed}\n"
                   for cell in cells)


@_command("validate-reference")
def validate_reference() -> int:
    """Recompute the bundled corpus and check every golden cell."""
    from .reference import validate_corpus  # here: only corpus calls need the reference

    report = validate_corpus()
    passed = sum(1 for cell in report.cells if cell.passed)
    summary = f"{passed}/{len(report.cells)} golden cells within displayed precision\n"
    _emit(sys.stdout, [_golden_lines(report.cells) + summary])
    return 0 if report.ok else 1


@_command("plot-data", _INPUT, _FORMAT, _GROUP,
          (("--metric-file",), dict(
              required=True, metavar="PATH",
              help="CSV of external per-entity metrics to pair with the trace.")),
          _POSITIVE)
def plot_data(input_, format_, group, metric_file, positive_only) -> None:
    """Emit name,T,<metric> rows for external plotting."""
    table = _scored(input_, format_, group)
    metrics = _load_metrics(metric_file)
    matched, metric_columns = _join_metrics(table.name, metrics)
    metric = metrics.metrics[0]
    columns = [[table.name[i] for i in matched], [table.T[i] for i in matched],
               metric_columns[metric]]
    rows = [j for j, i in enumerate(matched) if not positive_only or table.sign[i] == "positive"]
    _emit(sys.stdout, _write_csv(["name", "T", metric], _blocks(columns, rows)))


_DESCRIPTION = "h-index core/tail analytics: performance matrices and academic traces."


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message: str, file: TextIO | None = None) -> None:
        """argparse's help and usage text, written through ``_emit``."""
        if message:
            _emit(file or sys.stderr, [message])

    def error(self, message: str):
        """argparse's usage error, with the message on one line."""
        self.print_usage(sys.stderr)
        _say([f"{self.prog}: error: {message}"])
        raise SystemExit(2)


def _parser(prog: str, name: str | None) -> _Parser:
    """The parser of command name with only its options; or, when name is no
    command, the group's, with one subparser per command, for the group help
    and its usage errors.  A command line builds no parser it does not use:
    adding every command's options costs about a millisecond per call."""
    if name in _COMMANDS:
        function, options = _COMMANDS[name]
        parser = _Parser(prog=f"{prog} {name}", description=function.__doc__,
                         allow_abbrev=False)
        for flags, settings in options:
            parser.add_argument(*flags, **settings)
        return parser
    group = _Parser(prog=prog, description=_DESCRIPTION, allow_abbrev=False)
    commands = group.add_subparsers(metavar="COMMAND", required=True)
    for command, (function, _) in _COMMANDS.items():
        commands.add_parser(command, help=function.__doc__.split("\n")[0],
                            description=function.__doc__, allow_abbrev=False)
    return group


def _run(argv: list[str], prog: str) -> int:
    """Run one command line; its exit code."""
    name = argv[0] if argv else None
    parser = _parser(prog, name)
    try:
        try:
            if name not in _COMMANDS:
                parser.parse_args(argv)  # the group help, or a usage error: either exits
            # the command's own parser, since parse_intermixed_args, which takes
            # correlate's COLUMNS between options, rejects one with subparsers
            options = parser.parse_intermixed_args(argv[1:])
            return _COMMANDS[name][0](**vars(options)) or 0
        except UsageError as err:  # a missing file or an unknown column
            parser.error(str(err))
    except SystemExit as done:  # the help, or a usage error, printed
        return done.code
    except CitetraceError as err:
        _say([f"error: {err}"])
        return 1


def main(args: Sequence[str] | None = None, prog_name: str | None = None,
         standalone_mode: bool = True) -> int:
    """Run a command line, ``sys.argv[1:]`` by default, and exit with its
    code.  Without ``standalone_mode``, return 0 on success and raise
    ``SystemExit`` with any other code."""
    try:
        code = _run(sys.argv[1:] if args is None else list(args), prog_name or "citetrace")
    except OSError as err:  # a failed write: a reader that left early, as `| head` does, or a full disk
        if not isinstance(err, BrokenPipeError):
            with contextlib.suppress(OSError):  # unless stderr is what failed
                _say([f"error: cannot write output: {err.strerror or err}"])
        for stream in sys.stdout, sys.stderr:
            try:
                stream.flush()
            except OSError:  # point it at devnull, so that the flush at exit fails no more
                with contextlib.suppress(OSError, ValueError):  # a stream with no file descriptor
                    fd = stream.fileno()
                    os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        code = 1
    except KeyboardInterrupt:
        _emit(sys.stderr, ["\nAborted!\n"])
        code = 1
    if standalone_mode or code:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
