"""Acceptance suite: each numbered criterion runs at its stated tolerance
and prints one pass/fail line (run with ``pytest -s`` to see them inline).
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from citetrace import (
    h_index,
    pearson,
    rank_entities,
    score,
    significance,
    spearman,
    summarize,
)
from citetrace.reference import matches_displayed, reference_corpus
from oracles import class_weights, i3_aggregate, t_pvalue_quad, trace_from_counts

CORPUS_SEED = 20130322
RANDOM_LISTS = 10_000
MONOTONE_POINTS = 1_000
REL_TOL = 1e-12


def _report(number: int, label: str, ok: bool) -> None:
    print(f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {label}"


def _random_corpus():
    """Deterministic random citation lists: lengths 1-500, counts 0-1000."""
    rng = np.random.default_rng(CORPUS_SEED)
    lengths = rng.integers(1, 501, size=RANDOM_LISTS)
    for n in lengths:
        yield tuple(int(c) for c in rng.integers(0, 1001, size=int(n)))


def _h_oracle(counts) -> int:
    ranked = sorted(counts, reverse=True)
    return max(min(i, c) for i, c in enumerate(ranked, start=1))


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _golden_cells(rows):
    failures = []
    total = 0
    corpus = reference_corpus()
    for row in rows:
        computed = score(corpus.record(row.name))._asdict()
        for cell, displayed in row.displayed.items():
            total += 1
            if not matches_displayed(computed[cell], displayed):
                failures.append((row.name, cell, computed[cell], displayed))
    return total, failures


def test_criterion_1_golden_journals():
    corpus = reference_corpus()
    total, failures = _golden_cells(corpus.golden_journals)
    assert total == 230  # 20 LIS journals + 3 multidisciplinary, 10 cells each
    _report(1, f"journal matrices and traces, {total} cells at displayed precision",
            not failures)


def test_criterion_2_worked_examples():
    corpus = reference_corpus()
    checked = 0
    failures = []
    for example in corpus.worked_examples:
        computed = score(corpus.record(example.name))._asdict()
        for cell, displayed in example.matrix.items():
            checked += 1
            if not matches_displayed(computed[cell], displayed):
                failures.append((example.name, cell))
        for displayed in example.traces:
            checked += 1
            if not matches_displayed(computed["T"], displayed):
                failures.append((example.name, f"T={displayed}"))
    # the author trace must hold at four decimals, not merely at the 2dp display
    ye = score(corpus.record("Ye FY"))
    checked += 1
    if not matches_displayed(ye.T, "13.2739"):
        failures.append(("Ye FY", "T=13.2739"))
    _report(2, f"four worked matrices/traces, {checked} cells", not failures)


def test_criterion_3_golden_universities():
    corpus = reference_corpus()
    total, failures = _golden_cells(corpus.golden_universities)
    assert total == 20
    z3 = {row.name: row.displayed["Z3"] for row in corpus.golden_universities}
    assert z3 == {"Univ Heidelberg": "-2044", "Univ Hamburg": "-566.5"}
    for name in z3:
        assert score(corpus.record(name)).Z3 < 0
    _report(3, f"university rows incl. negative Z3, {total} cells", not failures)


def test_criterion_4_ordering():
    corpus = reference_corpus()
    lis = [score(rec) for rec in corpus.journals if rec.group == "LIS"]
    ranked = rank_entities(lis, key="T")
    expected = [row.name for row in sorted(
        (r for r in corpus.golden_journals if r.group == "LIS"), key=lambda r: r.rank)]
    top20_ok = [row.name for row in ranked[:20]] == expected

    multi = [score(rec) for rec in corpus.journals if rec.group == "multidisciplinary"]
    multi_ranked = rank_entities(multi, key="T")
    multi_ok = [row.name for row in multi_ranked] == ["PNAS", "Nature", "Science"]
    _report(4, "LIS top-20 order and PNAS > Nature > Science by trace",
            top20_ok and multi_ok)


def test_criterion_5_oracle_equivalence():
    checked = 0
    for counts in _random_corpus():
        rec = summarize(counts, "entity")
        h = _h_oracle(counts)
        ranked = sorted(counts, reverse=True)
        assert rec.h == h
        assert h_index(counts) == h
        assert (rec.papers, rec.uncited, rec.citations, rec.core_citations) == (
            len(counts), counts.count(0), sum(counts), sum(ranked[:h]))
        checked += 1
    assert checked == RANDOM_LISTS
    _report(5, f"h-index brute-force oracle and summary recount on {checked} random lists",
            True)


def test_criterion_6_identity_suite():
    checked = 0
    for counts in _random_corpus():
        rec = summarize(counts)
        s = score(rec)
        w = class_weights(rec)

        assert rec.papers == rec.h + rec.tail_papers + rec.uncited
        assert rec.citations == rec.h ** 2 + rec.tail_citations + rec.excess_citations
        assert min(rec.tail_papers, rec.tail_citations, rec.excess_citations) >= 0

        for z, y, x in ((s.Z1, s.Y1, s.X1), (s.Z2, s.Y2, s.X2), (s.Z3, s.Y3, s.X3)):
            assert _rel_close(z, y - x)
        assert _rel_close(s.T, s.X1 + s.Y2 + s.Z3)
        via_counts = trace_from_counts(
            rec.h, rec.tail_citations, rec.excess_citations,
            rec.uncited, rec.papers, rec.citations)
        assert _rel_close(s.T, via_counts)
        assert s.T == via_counts  # bit for bit
        assert _rel_close(s.I3X, s.X1 + s.X2 + s.X3)
        assert _rel_close(s.I3Y, s.Y1 + s.Y2 + s.Y3)
        assert _rel_close(s.I3X, i3_aggregate(
            (rec.h, rec.tail_papers, rec.uncited),
            (w.pub_core, w.pub_tail, w.pub_uncited)))
        assert _rel_close(w.pub_core + w.pub_tail + w.pub_uncited, 1.0)
        if rec.citations > 0:
            assert _rel_close(w.cite_core + w.cite_tail + w.cite_excess, 1.0)
        checked += 1
    _report(6, f"exact and 1e-12 identities on {checked} random summaries", True)


def test_criterion_7_monotonicity_and_sign():
    rng = np.random.default_rng(CORPUS_SEED + 1)
    for _ in range(MONOTONE_POINTS):
        p = int(rng.integers(1, 1001))
        c = int(rng.integers(1, 100001))
        pc = int(rng.integers(0, p + 1))
        pz = int(rng.integers(0, p - pc + 1))
        ct = int(rng.integers(0, c + 1))
        ce = int(rng.integers(0, c - ct + 1))

        base = trace_from_counts(pc, ct, ce, pz, p, c)
        assert trace_from_counts(pc + 1, ct, ce, pz, p, c) > base
        assert trace_from_counts(pc, ct, ce + 1, pz, p, c) > base
        assert trace_from_counts(pc, ct, ce, pz + 1, p, c) < base

        exact = (Fraction(pc * pc, p) + Fraction(ct * ct, c) + Fraction(ce * ce, c)
                 - Fraction(pz * pz, p))
        if exact == 0:
            assert math.isclose(base, 0.0, abs_tol=1e-9)
        else:
            assert (base > 0) == (exact > 0)
    _report(7, f"unit-increment monotonicity and sign criterion at {MONOTONE_POINTS} points",
            True)


def test_criterion_8_correlation_machinery():
    # hand oracles, frozen before implementation
    assert abs(pearson((1, 2, 3), (3, 2, 4)) - 0.5) <= 1e-12
    assert abs(spearman((1, 2, 3), (3, 2, 4)) - 0.5) <= 1e-12
    assert abs(spearman((1, 1, 2), (5, 5, 9)) - 1.0) <= 1e-12

    assert abs(significance(0.5, 30) - t_pvalue_quad(0.5, 30)) <= 1e-4

    rng = np.random.default_rng(CORPUS_SEED + 2)
    for _ in range(200):
        n = int(rng.integers(3, 60))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        r = pearson(x, y)
        rho = spearman(x, y)
        assert -1.0 <= r <= 1.0 and -1.0 <= rho <= 1.0
        assert pearson(y, x) == r and spearman(y, x) == rho

        order = rng.permutation(n)
        assert abs(pearson(x[order], y[order]) - r) <= 1e-12
        assert abs(spearman(x[order], y[order]) - rho) <= 1e-12

        scale = float(rng.uniform(0.1, 10))
        shift = float(rng.uniform(-5, 5))
        assert abs(pearson(scale * x + shift, y) - r) <= 1e-9
        assert abs(spearman(x ** 3, y) - rho) <= 1e-12  # strictly increasing transform
    _report(8, "correlation oracles, invariants, and t-CDF significance oracle", True)


def test_criterion_9_validate_reference_cli():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "citetrace.cli", "validate-reference"],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    ok = (proc.returncode == 0
          and proc.stdout.strip().endswith("312/312 golden cells within displayed precision")
          and elapsed < 5.0)
    _report(9, f"validate-reference exits 0 in {elapsed:.2f}s (< 5s)", ok)
