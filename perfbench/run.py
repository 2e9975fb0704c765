"""citetrace benchmark: run one workload and print every metric with its unit.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from the root of a checkout; the program under test is the
checkout's own ``src/citetrace``.  Each workload is a closed loop with
one client: the next CLI call starts when the previous one has exited.
A round runs each command of the workload's mix once, and only whole
rounds are measured, so every command has the same weight in the
medians.  ``--trace 0`` spawns the CLI and reports end-to-end metrics,
with times paced against a fixed yardstick (see ``calls.Paced``);
``--trace 1`` calls ``citetrace.cli.main`` in-process with spans at the
module boundaries and reports per-layer metrics.  The last line of
stdout is one JSON object; the exit code is 1 when an output disagrees
with the oracle beyond float level, 2 on a usage or setup error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import calls
import generate
import oracle
import tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_CALLS = 5  # fewest `citetrace --help` calls per run; setup_s is their median
IMPORT_CALLS = 3  # import-only children per traced run, with and without -X importtime
SUMMARY_ROWS = 10_000
CITATION_LISTS = 1_500
SMALL_LISTS = 100

CORPUS_EXPORT = (
    "import json; from citetrace import journals_dataset; "
    "print(json.dumps([[r.name, r.papers, r.h, r.uncited, r.citations, r.core_citations, r.group]"
    " for r in journals_dataset().records]))"
)


@dataclass
class Workload:
    commands: list[list[str]]  # one round of the mix, in order
    records: list[int]  # input records each command scores (0: it reads none)
    check: Callable[[list[bytes]], list[oracle.Check]]  # one round's stdouts -> checks


def _write(directory: Path, name: str, data: bytes) -> str:
    path = directory / name
    path.write_bytes(data)
    return str(path.relative_to(ROOT))


def _corpus(spawner) -> tuple[list[str], list[list[int]], list[str]]:
    """The bundled journal corpus's inputs (names, five numbers, groups)."""
    call = spawner.run([sys.executable, "-c", CORPUS_EXPORT])
    if call.exit_code != 0:
        raise SystemExit(f"error: cannot read the bundled corpus:\n{call.stderr.decode()}")
    records = json.loads(call.stdout)
    return [r[0] for r in records], [r[1:6] for r in records], [r[6] for r in records]


def cli_small(seed: int, directory: Path, spawner) -> Workload:
    """Start-up dominates: the bundled corpus and a 10^2-list citations file."""
    names, rows, groups = _corpus(spawner)
    expected = oracle.expected_map(names, rows)
    lis = [n for n, g in zip(names, groups) if g == "LIS"]
    metrics = generate.corpus_metrics(seed, names, rows)
    metric_file = _write(directory, "corpus-metrics.csv", metrics)
    c_names, c_rows, c_csv, _ = generate.citations_dataset(seed, SMALL_LISTS)
    c_expected = oracle.expected_map(c_names, c_rows)
    c_file = _write(directory, "small-citations.csv", c_csv)

    def check(out: list[bytes]) -> list[oracle.Check]:
        columns = oracle.columns_from_compute_csv(out[1], metrics, ["T", *generate.METRICS])
        return [oracle.check_validate_reference(out[0]),
                oracle.check_compute(out[1], "csv", names, expected),
                oracle.check_rank(out[2], "table", lis, expected, positive_only=False),
                oracle.check_correlate(out[3], "table", columns),
                oracle.check_compute(out[4], "table", c_names, c_expected)]

    return Workload(
        commands=[["validate-reference"],
                  ["compute", "--input", "corpus", "--output", "csv"],
                  ["rank", "--input", "corpus", "--group", "LIS"],
                  ["correlate", "--input", "corpus", "--metric-file", metric_file],
                  ["compute", "--input", c_file, "--format", "citations"]],
        records=[0, len(names), len(lis), len(names), SMALL_LISTS],
        check=check)


def summary_bulk(seed: int, directory: Path, spawner) -> Workload:
    """Parse, validation, scoring, ranking and rendering of summary rows; no correlation."""
    names, rows, data, _ = generate.summary_dataset(seed, SUMMARY_ROWS)
    expected = oracle.expected_map(names, rows)
    path = _write(directory, "summary.csv", data)

    def check(out: list[bytes]) -> list[oracle.Check]:
        return [oracle.check_compute(out[0], "json", names, expected),
                oracle.check_rank(out[1], "table", names, expected, positive_only=False),
                oracle.check_rank(out[2], "csv", names, expected, positive_only=True)]

    return Workload(
        commands=[["compute", "--input", path, "--output", "json"],
                  ["rank", "--input", path, "--output", "table"],
                  ["rank", "--input", path, "--positive-only", "--output", "csv"]],
        records=[SUMMARY_ROWS] * 3,
        check=check)


def citations_correlate(seed: int, directory: Path, spawner) -> Workload:
    """Per-document parsing and partitioning, then correlation of 16 columns."""
    names, rows, data, metrics = generate.citations_dataset(seed, CITATION_LISTS)
    expected = oracle.expected_map(names, rows)
    path = _write(directory, "citations.csv", data)
    metric_file = _write(directory, "metrics.csv", metrics)
    columns = [*oracle.INDICATORS, *generate.METRICS]
    correlate = ["correlate", "--input", path, "--format", "citations", "--metric-file", metric_file]

    def check(out: list[bytes]) -> list[oracle.Check]:
        computed = oracle.check_compute(out[1], "csv", names, expected)
        series = oracle.columns_from_compute_csv(out[1], metrics, columns)
        return [oracle.check_correlate(out[0], "csv", series), computed,
                oracle.check_correlate(out[2], "table", series)]

    # correlate runs twice per round (csv and table output), so the median
    # call of the mix is a correlate call, the one this workload is about.
    return Workload(
        commands=[[*correlate, "--output", "csv", *columns],
                  ["compute", "--input", path, "--format", "citations", "--output", "csv"],
                  [*correlate, *columns]],
        records=[CITATION_LISTS] * 3,
        check=check)


WORKLOADS = {"cli-small": cli_small, "summary-bulk": summary_bulk,
             "citations-correlate": citations_correlate}


def _closed_loop(seconds: float, run_round: Callable[[], None]) -> None:
    """Run whole rounds until the next one would end after `seconds`; at least one."""
    start = time.perf_counter()
    last = None
    while last is None or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        run_round()
        last = time.perf_counter() - t0


def _tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples no such percentile exists and the maximum
    is reported at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


class Outcome:
    """Failed calls and wrong rows over a run; each distinct output is checked once."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.attempted = self.failed = self.rows = self.wrong = self.float_level = 0
        self.problems: list[str] = []
        self._outputs: dict[tuple[int, bytes], bytes] = {}  # (command, digest) -> stdout
        self._calls: list[tuple[int, bytes, bool]] = []  # (command, digest, call broken)

    def add(self, command: int, exit_code, stdout: bytes, stderr: bytes, timed_out: bool) -> None:
        broken = exit_code != 0 or timed_out or b"Traceback" in stderr
        if broken and len(self.problems) < 5:
            self.problems.append(f"{' '.join(self.workload.commands[command])}: exit {exit_code}"
                                 f"{', timed out' if timed_out else ''}: {stderr[-300:]!r}")
        digest = hashlib.sha256(stdout).digest()
        self._outputs.setdefault((command, digest), stdout)
        self._calls.append((command, digest, broken))

    def judge(self) -> None:
        """Run the oracle; call only after the timed region."""
        first: dict[int, tuple[int, bytes]] = {}
        for key in self._outputs:
            first.setdefault(key[0], key)
        base = [self._outputs[first[i]] for i in range(len(self.workload.commands))]
        checks = dict(zip((first[i] for i in range(len(base))), self.workload.check(base)))
        for key, stdout in self._outputs.items():
            if key not in checks:  # an output that differs from the command's first one
                outputs = list(base)
                outputs[key[0]] = stdout
                checks[key] = self.workload.check(outputs)[key[0]]
        for command, digest, broken in self._calls:
            check = checks[(command, digest)]
            self.attempted += 1
            self.failed += broken or check.unparseable is not None
            self.rows += check.rows
            self.wrong += len(check.wrong)
            self.float_level += len(check.float_level)
        for (command, _), check in checks.items():
            if not check.ok:
                self.problems.append(f"{' '.join(self.workload.commands[command])}: "
                                     f"{check.unparseable or '; '.join(check.problems)}")

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and self.wrong == self.float_level


def run_untraced(workload: Workload, seconds: float, spawner) -> tuple[dict, Outcome]:
    spawner.citetrace(["--help"])  # compiles bytecode; not measured
    paced = calls.Paced(spawner)
    setup: list[float] = []
    outcome = Outcome(workload)
    made: list[tuple[int, calls.Call]] = []  # (command, call) without its output

    def run_round() -> None:
        # set-up is sampled once per round, so it sees the same machine as the calls
        setup.append(paced.citetrace(["--help"]).wall_s)
        for i, args in enumerate(workload.commands):
            call = paced.citetrace(args)
            outcome.add(i, call.exit_code, call.stdout, call.stderr, call.timed_out)
            call.stdout = call.stderr = b""
            made.append((i, call))

    _closed_loop(seconds, run_round)
    while len(setup) < SETUP_CALLS:
        setup.append(paced.citetrace(["--help"]).wall_s)
    outcome.judge()
    walls = [call.wall_s for _, call in made]
    reading = [(workload.records[i], call.wall_s) for i, call in made if workload.records[i]]
    tail, percentile, n = _tail(walls)
    print(f"call_s.tail is p{percentile:.1f} of {n} calls")
    print(f"calls pinned to CPU {spawner.cpu}; reference runs took "
          f"{statistics.median(paced.references):.4f} s (median of {len(paced.references)}, "
          f"{min(paced.references):.4f}-{max(paced.references):.4f}) against "
          f"{calls.REFERENCE_WALL_S} s; call times scaled by "
          f"{min(paced.scales):.3f}-{max(paced.scales):.3f}")
    print(f"failed_frac = {outcome.failed}/{outcome.attempted} calls; "
          f"wrong_rows_frac = {outcome.wrong}/{outcome.rows} rows "
          f"({outcome.float_level} of them wrong only at float level)")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "call_s.p50": (statistics.median(walls), "s"),
        "call_s.tail": (tail, "s"),
        "cpu_s.p50": (statistics.median(call.cpu_s for _, call in made), "s"),
        "records_per_s": (sum(r for r, _ in reading) / sum(w for _, w in reading), "records/s"),
        "peak_rss_mb": (max(call.maxrss_mb for _, call in made), "MB"),
        "calls_ok_frac": (1.0 - outcome.failed / outcome.attempted, "ratio"),
        "rows_right_frac": (1.0 - outcome.wrong / outcome.rows, "ratio"),
    }
    return metrics, outcome


def import_breakdown(spawner) -> dict[str, float]:
    """The import layer: process start plus `import citetrace.cli`.

    The total is the median wall time of a child that does only that; the
    per-package split sums `-X importtime` self times by top-level package.
    """
    import_only = [sys.executable, "-c", "import citetrace.cli"]
    totals, runs = [], []
    for _ in range(IMPORT_CALLS):
        totals.append(spawner.run(import_only).wall_s * 1000.0)
        call = spawner.run([sys.executable, "-X", "importtime", *import_only[1:]])
        if call.exit_code != 0:
            raise SystemExit(f"error: importing citetrace failed:\n{call.stderr.decode()}")
        per_package: dict[str, float] = {}
        for line in call.stderr.decode().splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            per_package[top] = per_package.get(top, 0.0) + int(self_us) / 1000.0
        runs.append(per_package)
    median = lambda key: statistics.median(r.get(key, 0.0) for r in runs)  # noqa: E731
    return {
        "import.total_ms": statistics.median(totals),
        "import.scipy_ms": median("scipy"),
        "import.numpy_ms": median("numpy"),
        "import.click_ms": median("click"),
        "import.citetrace_self_ms": median("citetrace"),
    }


def _timeout(signum, frame):
    raise TimeoutError(f"call took longer than {calls.CALL_TIMEOUT_S} s")


def _in_process(main, args: list[str]) -> tuple[object, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    code: object = 0
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, calls.CALL_TIMEOUT_S)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code or 0
        except Exception:  # a failed call is measured, not fatal to the benchmark
            traceback.print_exc(file=err)
            code = "exception"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue().encode(), err.getvalue().encode()


def run_traced(workload: Workload, seconds: float, spawner, span_file: Path) -> tuple[dict, Outcome]:
    metrics = {k: (v, "ms") for k, v in import_breakdown(spawner).items()}
    sys.path.insert(0, str(SRC))
    import citetrace.cli

    tracer = tracing.Tracer()
    main = citetrace.cli.main
    traced_main = tracer.wrap("cli.main", main)
    for args in workload.commands:  # warm-up: lazy set-up inside the package
        _in_process(main, args)
    # A CLI process starts with an empty heap; keep the collector from
    # traversing the benchmark's own objects during the measured calls.
    gc.collect()
    gc.freeze()
    outcome = Outcome(workload)
    rounds: list[dict[str, float]] = []
    kept_spans: list[tracing.Span] = []

    def timed(fn, args):
        start = time.perf_counter_ns()
        result = _in_process(fn, args)
        return time.perf_counter_ns() - start, result

    def run_round() -> None:
        totals = Counter()
        busy, own, spans_by_name, counts = Counter(), Counter(), Counter(), Counter()
        for i, args in enumerate(workload.commands):
            if len(rounds) % 2:  # alternate which of the pair runs first
                totals["untraced_ns"] += timed(main, args)[0]
            tracer.install()
            tracer.call += 1
            elapsed, (code, stdout, stderr) = timed(traced_main, args)
            tracer.uninstall()
            if len(rounds) % 2 == 0:
                totals["untraced_ns"] += timed(main, args)[0]
            totals["traced_ns"] += elapsed
            spans, call_counts = tracer.take()
            if not rounds:
                kept_spans.extend(spans)
            call_busy, call_own = tracing.layer_times(spans)
            busy.update(call_busy)
            own.update(call_own)
            spans_by_name.update(s.name for s in spans)
            counts.update(call_counts)
            totals["stdout"] += len(stdout)
            totals["stderr"] += len(stderr.splitlines())
            outcome.add(i, code, stdout, stderr, False)
        rounds.append(_layer_metrics(workload, busy, own, spans_by_name, counts, totals))

    _closed_loop(seconds, run_round)
    outcome.judge()
    rows_per_round = outcome.rows / len(rounds)
    for key in rounds[0]:
        metrics[key] = (statistics.median(r[key] for r in rounds), UNITS[key])
    metrics["cli.self_us_per_row"] = (1000.0 * metrics["cli.self_ms"][0] / rows_per_round, "us/row")
    tracing.write_spans(span_file, kept_spans)
    print(f"{len(rounds)} traced rounds; spans of the first in {span_file.relative_to(ROOT)}")
    return metrics, outcome


UNITS = {
    "datasets.calls": "count", "datasets.busy_ms": "ms", "datasets.us_per_record": "us/record",
    "datasets.mb_per_s": "MB/s",
    "partition.calls_per_record": "calls/record", "partition.busy_ms": "ms",
    "partition.us_per_record": "us/record", "partition.warnings": "count",
    "indicators.calls": "count", "indicators.self_ms": "ms", "indicators.us_per_record": "us/record",
    "ranking.busy_ms": "ms", "ranking.us_per_record": "us/record",
    "correlation.pairs": "count", "correlation.busy_ms": "ms", "correlation.midranks_calls": "count",
    "correlation.midranks_per_column": "calls/column",
    "reference.busy_ms": "ms", "reference.cells_checked": "count", "reference.cells_passed": "count",
    "cli.self_ms": "ms", "cli.stdout_bytes": "bytes", "cli.stderr_lines": "count",
    "trace.overhead_frac": "ratio", "trace.untraced_call_ms": "ms",
}


def _layer_metrics(workload, busy, own, spans_by_name, counts, totals) -> dict[str, float]:
    """One round's per-layer figures (times in ms, per-record costs in us)."""
    records = sum(workload.records) or 1
    ms = lambda ns: ns / 1e6  # noqa: E731
    per_record = lambda ns: ns / 1e3 / records  # noqa: E731
    calls_named = lambda prefix: sum(n for name, n in spans_by_name.items()  # noqa: E731
                                     if name.startswith(prefix))
    columns = counts["correlation.columns"]
    return {
        "datasets.calls": calls_named("datasets.parse_"),
        "datasets.busy_ms": ms(busy["datasets"]),
        "datasets.us_per_record": per_record(busy["datasets"]),
        "datasets.mb_per_s": counts["datasets.bytes"] / 1e6 / (busy["datasets"] / 1e9)
        if busy["datasets"] else 0.0,
        "partition.calls_per_record": calls_named("partition.partition_") / records,
        "partition.busy_ms": ms(busy["partition"]),
        "partition.us_per_record": per_record(busy["partition"]),
        "partition.warnings": counts["partition.warnings"],
        "indicators.calls": calls_named("indicators."),
        "indicators.self_ms": ms(own["indicators"]),
        "indicators.us_per_record": per_record(own["indicators"]),
        "ranking.busy_ms": ms(busy["ranking"]),
        "ranking.us_per_record": per_record(busy["ranking"]),
        "correlation.pairs": counts["correlation.pairs"],
        "correlation.busy_ms": ms(busy["correlation"]),
        "correlation.midranks_calls": calls_named("correlation.midranks"),
        "correlation.midranks_per_column": calls_named("correlation.midranks") / columns
        if columns else 0.0,
        "reference.busy_ms": ms(busy["reference"]),
        "reference.cells_checked": counts["reference.cells_checked"],
        "reference.cells_passed": counts["reference.cells_passed"],
        "cli.self_ms": ms(own["cli"]),
        "cli.stdout_bytes": totals["stdout"],
        "cli.stderr_lines": totals["stderr"],
        "trace.overhead_frac": (totals["traced_ns"] - totals["untraced_ns"]) / totals["untraced_ns"],
        "trace.untraced_call_ms": ms(totals["untraced_ns"]) / len(workload.commands),
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    worst = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"== {name} --trace {trace}", flush=True)
            worst = max(worst, subprocess.call([
                sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "citetrace" / "cli.py").is_file():
        print(f"error: no citetrace sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    with calls.Spawner(calls.child_env(str(SRC))) as spawner:
        directory = WORK / f"{args.workload}-{args.seed}"
        directory.mkdir(parents=True, exist_ok=True)
        workload = WORKLOADS[args.workload](args.seed, directory, spawner)
        if args.trace:
            span_file = WORK / f"spans-{args.workload}-{args.seed}.csv.gz"
            metrics, outcome = run_traced(workload, args.seconds, spawner, span_file)
        else:
            metrics, outcome = run_untraced(workload, args.seconds, spawner)
    for problem in outcome.problems[:10]:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
