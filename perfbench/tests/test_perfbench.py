"""Tests of the benchmark itself: generator, oracle, pacing and span accounting.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
from fractions import Fraction

import pytest

import citetrace as ct
from citetrace.cli import main as cli_main

import calls
import generate
import oracle
import tracing


def _cli(args: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli_main(args, standalone_mode=False)
    return out.getvalue().encode()


def test_same_seed_same_bytes():
    for make in (generate.summary_dataset, generate.citations_dataset):
        first, again, other = make(5, 300), make(5, 300), make(6, 300)
        assert first[2:] == again[2:]
        assert first[2] != other[2]


def test_generated_records_pass_citetrace_validation():
    names, rows, data, metrics = generate.summary_dataset(3, 2000)
    records = ct.parse_summary_csv(data).records
    assert [r.name for r in records] == names
    assert set(ct.parse_metric_csv(metrics).rows) == set(names)
    names, rows, data, metrics = generate.citations_dataset(3, 500)
    lists = ct.parse_citations_csv(data).records
    assert set(ct.parse_metric_csv(metrics).rows) == set(names)
    # the generator's own integer counting agrees with citetrace's summarize
    for lst, row in zip(lists, rows.tolist()):
        s = ct.summarize(lst)
        assert [s.papers, s.h, s.uncited, s.citations, s.core_citations] == row


def test_generator_covers_small_uncited_and_warning_rows():
    names, rows, _, _ = generate.summary_dataset(4, 5000)
    expected = oracle.expected_map(names, rows)
    assert (rows[:, 0] < 40).any() and (rows[:, 2] > 0).any() and (rows[:, 3] == 0).any()
    warned = sum(1 for e in expected.values() if e.warnings)
    assert warned == round(generate.PERTURBED_SHARE * len(names))


def test_oracle_agrees_with_validate_corpus():
    corpus = ct.reference_corpus()
    report = ct.validate_corpus()
    assert len(report.cells) == 312
    for cell in report.cells:
        r = corpus.record(cell.entity)
        exp = oracle.expected(r.papers, r.h, r.uncited, r.citations, r.core_citations)
        assert exp.values[cell.cell] == pytest.approx(cell.computed, rel=1e-12, abs=1e-12)
        # judged on the exact fraction: three cells sit exactly on the half-unit
        # edge, where the correctly rounded float falls outside but citetrace's passes
        exact = Fraction(*exp.exact[cell.cell])
        tolerance = Fraction(ct.reference.displayed_tolerance(cell.displayed))
        assert (abs(exact - Fraction(cell.displayed)) <= tolerance) == cell.passed


def test_oracle_accepts_citetrace_output_on_the_corpus():
    dataset = ct.journals_dataset()
    names = [r.name for r in dataset.records]
    rows = [[r.papers, r.h, r.uncited, r.citations, r.core_citations] for r in dataset.records]
    expected = oracle.expected_map(names, rows)
    for fmt in ("csv", "json", "table"):
        check = oracle.check_compute(_cli(["compute", "--input", "corpus", "--output", fmt]),
                                     fmt, names, expected)
        assert check.ok and not check.wrong and check.rows == len(names)
        check = oracle.check_rank(_cli(["rank", "--input", "corpus", "--output", fmt]),
                                  fmt, names, expected, positive_only=False)
        assert check.ok and not check.wrong
    assert oracle.check_validate_reference(_cli(["validate-reference"])).ok


def test_oracle_rejects_a_wrong_number():
    names, rows = ["a", "b"], [[10, 3, 2, 40, 20], [5, 2, 1, 9, 6]]
    expected = oracle.expected_map(names, rows)
    good = oracle.check_compute(_cli_like(expected, names, tamper=None), "csv", names, expected)
    assert good.ok and not good.wrong
    bad = oracle.check_compute(_cli_like(expected, names, tamper="b"), "csv", names, expected)
    assert not bad.ok and bad.wrong == {1}


def _cli_like(expected, names, tamper):
    """compute --output csv text from the oracle's values, Y2 of `tamper` off by 0.1%."""
    lines = ["name,h,X1,X2,X3,Y1,Y2,Y3,Z1,Z2,Z3,I3X,I3Y,T,sign"]
    for n in names:
        e = expected[n]
        values = [repr(e.values[k] * (1.001 if n == tamper and k == "Y2" else 1.0))
                  for k in oracle.FLOAT_INDICATORS]
        lines.append(",".join([n, str(e.values["h"]), *values,
                               "positive" if e.positive else "nonpositive"]))
    return ("\n".join(lines) + "\n").encode()


def test_exact_zero_trace_sign_is_float_level():
    # P=4, h=1, Pz=3, C=5, Ch=4 has trace exactly 0; citetrace computes 5.55e-17
    exact = oracle.expected(4, 1, 3, 5, 4)
    assert exact.exact["T"][0] == 0 and not exact.positive
    check = oracle.check_compute(_cli_like({"z": exact}, ["z"], tamper=None).replace(
        b"nonpositive", b"positive"), "csv", ["z"], {"z": exact})
    assert check.wrong == {0} and check.float_level == {0} and check.ok


def test_layer_times_split_busy_and_self():
    ms = 1_000_000
    spans = [tracing.Span("cli.main", 0, 10 * ms, -1, 1),
             tracing.Span("indicators.score_entity", 1 * ms, 5 * ms, 0, 1),
             tracing.Span("partition.partition_from_summary", 2 * ms, 3 * ms, 1, 1),
             tracing.Span("correlation.correlation_report", 6 * ms, 9 * ms, 0, 1),
             tracing.Span("correlation.midranks", 7 * ms, 8 * ms, 3, 1)]
    busy, own = tracing.layer_times(spans)
    assert busy == {"cli": 10 * ms, "indicators": 4 * ms, "partition": 1 * ms, "correlation": 3 * ms}
    assert own == {"cli": 3 * ms, "indicators": 3 * ms, "partition": 1 * ms, "correlation": 3 * ms}


def test_tracer_restores_the_package():
    import citetrace.cli
    import citetrace.indicators

    before = (citetrace.cli.score_entity, citetrace.indicators.partition_from_summary)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _cli(["compute", "--input", "corpus", "--output", "csv"])
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    assert (citetrace.cli.score_entity, citetrace.indicators.partition_from_summary) == before
    names = {s.name for s in spans}
    assert "datasets.parse_summary_csv" not in names  # the corpus is not parsed from text
    assert {"indicators.score_entity", "partition.partition_from_summary",
            "partition.plausibility_warnings", "ranking.indicator_values"} <= names
    assert counts["partition.warnings"] == 1


class _FakeSpawner:
    """Reference runs take the given wall times in turn; every call takes 1 s."""

    def __init__(self, reference_walls):
        self.walls = iter(reference_walls)

    def reference(self):
        return calls.Call(next(self.walls), 0.0, 0.0, 0, False, b"", b"")

    def citetrace(self, args):
        return calls.Call(1.0, 0.5, 50.0, 0, False, b"", b"")


def test_paced_call_scales_by_the_references_around_it():
    ref = calls.REFERENCE_WALL_S
    paced = calls.Paced(_FakeSpawner([ref, ref, 2 * ref, 4 * ref]))
    first, second, third = (paced.citetrace([]) for _ in range(3))
    assert (first.wall_s, first.cpu_s) == (1.0, 0.5)
    assert second.wall_s == pytest.approx(1 / 1.5) and second.cpu_s == pytest.approx(0.5 / 1.5)
    assert third.wall_s == pytest.approx(1 / 3)
    assert first.maxrss_mb == 50.0  # memory is not paced
