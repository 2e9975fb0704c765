"""The scoring kernel: vectors, matrix rows, trace, I3 sums and the exact sign."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from citetrace import (
    SummaryRecord,
    ValidationError,
    score,
    summarize,
)
from citetrace.reference import matches_displayed
from oracles import class_weights, i3_aggregate, trace_from_counts

citation_lists = st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=200)


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def ye_record():
    return SummaryRecord("Ye FY", papers=25, h=5, uncited=9, citations=72, core_citations=51)


def scores_of(counts):
    return score(summarize(counts))


def matrix(s):
    return np.array([[s.X1, s.X2, s.X3], [s.Y1, s.Y2, s.Y3], [s.Z1, s.Z2, s.Z3]])


class TestClassWeights:
    """The share-weight oracle used by the I3 factorization checks."""

    def test_author_publication_weights(self):
        w = class_weights(ye_record())
        assert w.pub_core == pytest.approx(0.2, abs=1e-15)
        assert w.pub_tail == pytest.approx(0.44, abs=1e-15)
        assert w.pub_uncited == pytest.approx(0.36, abs=1e-15)

    def test_uncited_set_convention(self):
        w = class_weights(summarize([0, 0, 0, 0]))
        assert (w.pub_core, w.pub_tail, w.pub_uncited) == (0.0, 0.0, 1.0)
        assert (w.cite_core, w.cite_tail, w.cite_excess) == (0.0, 0.0, 0.0)

    def test_single_cited_paper(self):
        w = class_weights(summarize([1]))
        assert (w.pub_core, w.pub_tail, w.pub_uncited) == (1.0, 0.0, 0.0)
        assert (w.cite_core, w.cite_tail, w.cite_excess) == (1.0, 0.0, 0.0)

    @given(citation_lists)
    def test_triples_sum_to_one(self, counts):
        rec = summarize(counts)
        w = class_weights(rec)
        assert 0.0 <= min(w) and max(w) <= 1.0
        assert rel_close(w.pub_core + w.pub_tail + w.pub_uncited, 1.0)
        cite_sum = w.cite_core + w.cite_tail + w.cite_excess
        if rec.citations > 0:
            assert rel_close(cite_sum, 1.0)
        else:
            assert cite_sum == 0.0


class TestAcademicVectors:
    def test_journal_vectors_at_displayed_precision(self):
        s = score(SummaryRecord("J Informetr", papers=105, h=18, uncited=5,
                                       citations=1132, core_citations=574))
        x, y, z = matrix(s)
        for value, displayed in zip(x, ("3.09", "64.04", "0.24")):
            assert matches_displayed(value, displayed)
        for value, displayed in zip(y, ("92.73", "275.06", "55.21")):
            assert matches_displayed(value, displayed)
        for value, displayed in zip(z, ("89.65", "211.02", "54.97")):
            assert matches_displayed(value, displayed)

    def test_author_vectors_at_displayed_precision(self):
        x, y, _ = matrix(score(ye_record()))
        for value, displayed in zip(x, ("1", "4.84", "3.24")):
            assert matches_displayed(value, displayed)
        for value, displayed in zip(y, ("8.6806", "6.125", "9.3889")):
            assert matches_displayed(value, displayed)

    def test_uncited_set(self):
        x, y, z = matrix(scores_of([0, 0, 0, 0]))
        assert list(x) == [0.0, 0.0, 4.0]
        assert list(y) == [0.0, 0.0, 0.0]
        assert list(z) == [0.0, 0.0, -4.0]


class TestPerformanceMatrix:
    def test_jasist_trace(self):
        s = score(SummaryRecord("J Am Soc Inf Sci Tec", papers=487, h=20, uncited=138,
                                       citations=2404, core_citations=712))
        assert matches_displayed(s.X1, "0.82")
        assert matches_displayed(s.Y2, "1190.9")
        assert matches_displayed(s.Z3, "1.388")
        assert matches_displayed(s.T, "1193.1")

    def test_author_trace(self):
        s = score(SummaryRecord("Leydesdorff L", papers=141, h=27, uncited=23,
                                       citations=2183, core_citations=1331))
        assert matches_displayed(s.X1, "5.17")
        assert matches_displayed(s.Y2, "332.53")
        assert matches_displayed(s.Z3, "162.26")
        assert matches_displayed(s.T, "499.96")

    def test_uncited_set_trace(self):
        assert scores_of([0, 0, 0, 0]).T == -4.0

    @given(citation_lists)
    def test_third_row_is_second_minus_first(self, counts):
        rows = matrix(scores_of(counts))
        assert np.array_equal(rows[2], rows[1] - rows[0])


class TestTraceFromCounts:
    """The kernel's trace against the class-count formula, on hand cases."""

    def test_author_arguments(self):
        value = score(ye_record()).T
        assert value == trace_from_counts(5, 21, 26, 9, 25, 72)
        assert matches_displayed(value, "13.2739")
        assert value == pytest.approx(25 / 25 + 441 / 72 + 676 / 72 - 81 / 25, abs=1e-12)

    def test_everything_uncited(self):
        assert scores_of([0] * 7).T == -7.0

    def test_single_cited_paper(self):
        assert scores_of([1]).T == 1.0

    def test_rejects_zero_papers(self):
        with pytest.raises(ValidationError, match="P must be >= 1"):
            SummaryRecord("X", papers=0, h=0, uncited=0, citations=0, core_citations=0)


class TestI3Aggregate:
    """The weighted-sum oracle on hand cases."""

    def test_author_publication_classes(self):
        assert i3_aggregate((5, 11, 9), (0.2, 0.44, 0.36)) == pytest.approx(9.08, abs=1e-12)

    def test_constant_values(self):
        assert i3_aggregate((7, 7, 7), (0.25, 0.5, 0.25)) == pytest.approx(7.0, abs=1e-12)


class TestIndicatorBundle:
    def test_journal_i3x(self):
        s = score(SummaryRecord("J Informetr", papers=105, h=18, uncited=5,
                                       citations=1132, core_citations=574))
        # oracle: direct class arithmetic (18^2 + 82^2 + 5^2) / 105
        assert s.I3X == pytest.approx(7073 / 105, rel=1e-12)
        assert s.sign == "positive"

    def test_university_trace(self):
        s = score(SummaryRecord("Univ Heidelberg", papers=4715, h=21, uncited=3149,
                                       citations=5220, core_citations=996))
        assert matches_displayed(s.T, "1374.03")
        assert s.sign == "positive"

    def test_uncited_set_nonpositive(self):
        assert scores_of([0, 0]).sign == "nonpositive"


class TestScores:
    @given(citation_lists)
    def test_sign_is_exact(self, counts):
        rec = summarize(counts)
        exact = Fraction(rec.h ** 2, rec.papers) - Fraction(rec.uncited ** 2, rec.papers)
        if rec.citations:
            exact += Fraction(rec.tail_citations ** 2 + rec.excess_citations ** 2,
                              rec.citations)
        assert (score(rec).sign == "positive") == (exact > 0)


class TestIdentities:
    @given(citation_lists)
    def test_z_is_y_minus_x(self, counts):
        s = scores_of(counts)
        for z, y, x in ((s.Z1, s.Y1, s.X1), (s.Z2, s.Y2, s.X2), (s.Z3, s.Y3, s.X3)):
            assert rel_close(z, y - x)

    @given(citation_lists)
    def test_trace_routes_agree(self, counts):
        rec = summarize(counts)
        s = score(rec)
        via_counts = trace_from_counts(rec.h, rec.tail_citations, rec.excess_citations,
                                       rec.uncited, rec.papers, rec.citations)
        assert s.T == via_counts
        assert rel_close(s.T, s.X1 + s.Y2 + s.Z3)
        assert rel_close(s.T, float(np.trace(matrix(s))))

    @given(citation_lists)
    def test_i3_sums_and_factorization(self, counts):
        rec = summarize(counts)
        s = score(rec)
        w = class_weights(rec)
        assert rel_close(s.I3X, s.X1 + s.X2 + s.X3)
        assert rel_close(s.I3Y, s.Y1 + s.Y2 + s.Y3)
        factored_x = i3_aggregate(
            (rec.h, rec.tail_papers, rec.uncited),
            (w.pub_core, w.pub_tail, w.pub_uncited))
        factored_y = i3_aggregate(
            (rec.h ** 2, rec.tail_citations, rec.excess_citations),
            (w.cite_core, w.cite_tail, w.cite_excess))
        assert rel_close(s.I3X, factored_x)
        assert rel_close(s.I3Y, factored_y)


counts_strategy = st.integers(min_value=0, max_value=1000)


class TestMonotonicity:
    """The trace formula over arbitrary class counts, one count moved at a time."""

    @given(pc=counts_strategy, ct=st.integers(0, 100000), ce=st.integers(0, 100000),
           pz=counts_strategy, p=st.integers(1, 1000), c=st.integers(1, 100000))
    def test_unit_increments(self, pc, ct, ce, pz, p, c):
        base = trace_from_counts(pc, ct, ce, pz, p, c)
        assert trace_from_counts(pc + 1, ct, ce, pz, p, c) > base
        assert trace_from_counts(pc, ct, ce + 1, pz, p, c) > base
        assert trace_from_counts(pc, ct, ce, pz + 1, p, c) < base

    @given(pc=counts_strategy, ct=st.integers(0, 100000), ce=st.integers(0, 100000),
           pz=counts_strategy, p=st.integers(1, 1000), c=st.integers(1, 100000))
    def test_sign_criterion(self, pc, ct, ce, pz, p, c):
        value = trace_from_counts(pc, ct, ce, pz, p, c)
        exact = (Fraction(pc * pc, p) + Fraction(ct * ct, c) + Fraction(ce * ce, c)
                 - Fraction(pz * pz, p))
        if exact == 0:
            assert math.isclose(value, 0.0, abs_tol=1e-9)
        else:
            assert (value > 0) == (exact > 0)
