"""Core decomposition: h-index, summary records and their derived masses, validation, plausibility."""

import copy
import pickle
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citetrace import (
    DatasetFile,
    SummaryRecord,
    ValidationError,
    dataset_to_json,
    h_index,
    parse_json,
    plausibility_warnings,
    summarize,
)
from citetrace.partition import _FIXED_WIDTH, _count_text, columns_valid

citation_lists = st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=200)


def h_oracle(counts):
    """Brute force: max over 1-based rank i of min(i, i-th largest count)."""
    ranked = sorted(counts, reverse=True)
    return max(min(i, c) for i, c in enumerate(ranked, start=1))


def recount(counts):
    """Exhaustive recount of every class mass, independent of the summary code."""
    ranked = sorted(counts, reverse=True)
    h = h_oracle(counts)
    return {
        "papers": len(counts),
        "citations": sum(counts),
        "core_papers": h,
        "tail_papers": sum(1 for c in ranked[h:] if c > 0),
        "uncited_papers": sum(1 for c in counts if c == 0),
        "core_citations": sum(ranked[:h]),
        "excess_citations": sum(c - h for c in ranked[:h]),
        "tail_citations": sum(ranked[h:]),
    }


class TestHIndex:
    def test_mixed_counts(self):
        assert h_index([10, 8, 5, 4, 3]) == 4

    def test_all_uncited(self):
        assert h_index([0, 0, 0]) == 0

    def test_single_cited_paper(self):
        assert h_index([1]) == 1

    def test_accepts_citation_list(self):
        assert h_index(c for c in (10, 8, 5, 4, 3)) == 4

    @given(citation_lists)
    def test_matches_brute_force_oracle(self, counts):
        assert h_index(counts) == h_oracle(counts)

    @given(citation_lists, st.randoms())
    def test_permutation_invariant(self, counts, rng):
        shuffled = counts[:]
        rng.shuffle(shuffled)
        assert h_index(shuffled) == h_index(counts)


class TestPartitionFromList:
    """``summarize``, the one route from a citation list to a record."""

    def test_mixed_counts(self):
        rec = summarize((10, 8, 5, 4, 3), "A")
        assert rec.name == "A"
        assert rec.h == 4
        assert rec.tail_papers == 1
        assert rec.uncited == 0
        assert rec.core_citations == 27
        assert rec.excess_citations == 11
        assert rec.tail_citations == 3
        assert rec.citations == 30

    def test_all_uncited(self):
        rec = summarize([0, 0, 0, 0])
        assert rec.h == 0
        assert rec.tail_papers == 0
        assert rec.uncited == 4
        assert rec.citations == 0
        assert rec.core_citations == 0
        assert rec.excess_citations == 0
        assert rec.tail_citations == 0

    def test_boundary_tie(self):
        rec = summarize([1, 1])
        assert rec.h == 1
        assert rec.tail_papers == 1
        assert rec.uncited == 0
        assert rec.excess_citations == 0
        assert rec.tail_citations == 1

    @given(citation_lists)
    def test_matches_exhaustive_recount(self, counts):
        rec = summarize(counts)
        expect = recount(counts)
        assert rec.papers == expect["papers"]
        assert rec.citations == expect["citations"]
        assert rec.h == expect["core_papers"]
        assert rec.uncited == expect["uncited_papers"]
        assert rec.core_citations == expect["core_citations"]
        assert rec.tail_papers == expect["tail_papers"]
        assert rec.excess_citations == expect["excess_citations"]
        assert rec.tail_citations == expect["tail_citations"]

    @given(citation_lists)
    def test_integer_identities_exact(self, counts):
        rec = summarize(counts)
        assert rec.papers == rec.h + rec.tail_papers + rec.uncited
        assert rec.citations == rec.h ** 2 + rec.tail_citations + rec.excess_citations
        assert rec.core_citations == rec.h ** 2 + rec.excess_citations


class TestPartitionFromSummary:
    """The class masses a summary record derives from its five numbers."""

    def test_author_record(self):
        rec = SummaryRecord("Ye FY", papers=25, h=5, uncited=9, citations=72,
                            core_citations=51)
        assert rec.tail_papers == 11
        assert rec.excess_citations == 26
        assert rec.tail_citations == 21

    def test_university_record(self):
        rec = SummaryRecord("Univ Hamburg", papers=1949, h=19, uncited=1257,
                            citations=3185, core_citations=1243)
        assert rec.tail_papers == 673
        assert rec.excess_citations == 882
        assert rec.tail_citations == 1942

    def test_core_citations_below_h_squared_rejected(self):
        with pytest.raises(ValidationError, match=r"Ch < h\^2"):
            SummaryRecord("X", papers=10, h=4, uncited=0, citations=20,
                          core_citations=15)


class TestSummaryValidation:
    def test_h_above_p(self):
        with pytest.raises(ValidationError, match="h > P"):
            SummaryRecord("X", papers=3, h=4, uncited=0, citations=20, core_citations=16)

    def test_uncited_above_p_minus_h(self):
        with pytest.raises(ValidationError, match="Pz > P - h"):
            SummaryRecord("X", papers=10, h=4, uncited=7, citations=20, core_citations=16)

    def test_core_citations_above_total(self):
        with pytest.raises(ValidationError, match="Ch > C"):
            SummaryRecord("X", papers=10, h=4, uncited=0, citations=20, core_citations=21)

    def test_h_zero_with_citations(self):
        with pytest.raises(ValidationError, match="h = 0"):
            SummaryRecord("X", papers=3, h=0, uncited=3, citations=5, core_citations=0)

    def test_negative_field(self):
        with pytest.raises(ValidationError):
            SummaryRecord("X", papers=10, h=4, uncited=-1, citations=20, core_citations=16)

    def test_empty_name(self):
        with pytest.raises(ValidationError):
            SummaryRecord("", papers=1, h=0, uncited=1, citations=0, core_citations=0)

    # a name of another type once built a record that dataset_to_json wrote
    # as "name": 5, which parse_json rejects, or that no serializer could write
    @pytest.mark.parametrize("name, shown", [(5, "5"), (b"a", "b'a'")], ids=["int", "bytes"])
    def test_name_that_is_no_string(self, name, shown):
        with pytest.raises(ValidationError) as err:
            SummaryRecord(name, 1, 1, 0, 1, 1)
        assert str(err.value) == f"entity name must be a string, got {shown}"
        with pytest.raises(ValidationError):
            summarize([1], name)

    def test_name_of_a_str_subclass(self):
        class Name(str):
            pass

        for name in (Name("a"), np.str_("a")):
            record = SummaryRecord(name, 1, 1, 0, 1, 1)
            assert record.name is name
            dataset = DatasetFile("summary-csv", (record,))
            assert parse_json(dataset_to_json(dataset)).records == (record,)

    def test_slotted_record_still_checked_on_replace(self):
        rec = SummaryRecord("X", papers=10, h=4, uncited=0, citations=20, core_citations=16)
        assert not hasattr(rec, "__dict__")
        assert rec._replace(uncited=6) == SummaryRecord("X", 10, 4, 6, 20, 16)
        with pytest.raises(ValidationError, match="Pz > P - h"):
            rec._replace(uncited=7)


class TestEveryConstructionIsChecked:
    """A record is a named tuple, and every way to build one runs the checks."""

    REC = SummaryRecord("X", papers=10, h=4, uncited=0, citations=20, core_citations=16)
    PZ_ERROR = "X: Pz > P - h (7 > 6); cited papers must number at least h"

    def test_replace_and_make_raise_the_call_s_message(self):
        with pytest.raises(ValidationError) as called:
            SummaryRecord("X", 10, 4, 7, 20, 16)
        with pytest.raises(ValidationError) as replaced:
            self.REC._replace(uncited=7)
        with pytest.raises(ValidationError) as made:
            SummaryRecord._make(["X", 10, 4, 7, 20, 16])
        assert str(called.value) == str(replaced.value) == str(made.value) == self.PZ_ERROR
        assert SummaryRecord._make(["X", 10, 4, 6, 20, 16, "LIS"]) == \
            SummaryRecord("X", 10, 4, 6, 20, 16, group="LIS")

    def test_copy_and_pickle_give_an_equal_record(self):
        copies = [copy.copy(self.REC), copy.deepcopy(self.REC),
                  *(pickle.loads(pickle.dumps(self.REC, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1))]
        for rec in copies:
            assert type(rec) is SummaryRecord and rec == self.REC
            assert not hasattr(rec, "__dict__")

    def test_a_record_is_the_tuple_of_its_fields(self):
        assert self.REC == ("X", 10, 4, 0, 20, 16, None)
        assert self.REC[1:6] == (10, 4, 0, 20, 16)
        assert (self.REC.tail_papers, self.REC.excess_citations, self.REC.tail_citations) == \
            (6, 0, 4)


class TestCitationListValidation:
    """``summarize`` checks the name, then emptiness, then each count in input order."""

    def test_empty_rejected(self):
        with pytest.raises(ValidationError,
                           match="^A: citation list must contain at least one document$"):
            summarize((), "A")

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError, match="^A: citation count must be >= 0, got -1$"):
            summarize((3, -1), "A")

    def test_non_integer_rejected(self):
        with pytest.raises(ValidationError,
                           match=r"^A: citation count must be an integer, got 1\.5$"):
            summarize((3, 1.5), "A")

    def test_boolean_rejected(self):
        with pytest.raises(ValidationError,
                           match="^A: citation count must be an integer, got True$"):
            summarize((3, True), "A")

    @pytest.mark.parametrize("counts, bad", [((3, -1, 1.5, True), "must be >= 0, got -1"),
                                             ((3, 1.5, -1), "must be an integer, got 1.5"),
                                             ((True, -2), "must be an integer, got True"),
                                             ((0, -2, -1), "must be >= 0, got -2")],
                             ids=["negative-before-float", "float-before-negative",
                                  "bool-first", "first-of-two-negatives"])
    def test_first_bad_count_in_input_order(self, counts, bad):
        with pytest.raises(ValidationError) as err:
            summarize(counts, "A")
        assert str(err.value) == f"A: citation count {bad}"

    def test_name_checked_first(self):
        with pytest.raises(ValidationError, match="^entity name must be non-empty$"):
            summarize((), "")

    def test_default_name(self):
        assert summarize([2, 1]).name == "anonymous"


class TestPlausibilityWarnings:
    def test_author_partition_clean(self):
        rec = SummaryRecord("Ye FY", papers=25, h=5, uncited=9, citations=72,
                            core_citations=51)
        assert plausibility_warnings(rec) == []

    def test_low_h_journal_clean(self):
        rec = SummaryRecord("Libr J", papers=8595, h=3, uncited=8561, citations=47,
                            core_citations=15)
        assert (rec.h, rec.tail_papers, rec.tail_citations) == (3, 31, 32)
        assert plausibility_warnings(rec) == []

    def test_tail_citations_below_tail_papers(self):
        rec = SummaryRecord("X", papers=7, h=2, uncited=0, citations=7, core_citations=4)
        warnings = plausibility_warnings(rec)
        assert len(warnings) == 1
        assert "Ct=3" in warnings[0] and "Pt=5" in warnings[0]

    def test_tail_citations_above_ceiling(self):
        rec = SummaryRecord("X", papers=4, h=2, uncited=0, citations=29, core_citations=4)
        warnings = plausibility_warnings(rec)
        assert len(warnings) == 1
        assert "ceiling" in warnings[0]

    @pytest.mark.parametrize("c, ct", [
        (int(1.7976931348623157e308), "1.798e+308"),
        (10 ** 400, "1.000e+400"),
        (10 ** _FIXED_WIDTH, "9" * _FIXED_WIDTH),  # Ct = C - 1 has 128 digits
        (10 ** _FIXED_WIDTH + 1, "1.000e+128"),
    ], ids=["float-max", "1e400", "128-digits", "129-digits"])
    def test_long_count_above_ceiling(self, c, ct):
        rec = SummaryRecord("big", papers=1, h=1, uncited=0, citations=c, core_citations=1)
        assert plausibility_warnings(rec) == [
            f"tail citations exceed the h*Pt ceiling (Ct={ct} > 1*0=0); "
            "no tail paper can carry more than h citations"]

    def test_long_counts_below_tail_papers(self):
        rec = SummaryRecord("wide", papers=10 ** 200 + 1, h=1, uncited=0, citations=3,
                            core_citations=1)
        assert plausibility_warnings(rec) == [
            "tail citations below tail paper count (Ct=2 < Pt=1.000e+200); "
            "every cited tail paper carries at least one citation"]

    @given(st.integers(min_value=0, max_value=10 ** 500))
    def test_count_text_is_whole_or_rounded_half_to_even(self, count):
        # Decimal's format rounds the exact value half to even, like "%.3e" on a float
        expected = str(count) if count < 10 ** _FIXED_WIDTH else format(Decimal(count), ".3e")
        assert _count_text(count) == expected

    @pytest.mark.parametrize("count, text", [
        (12345 * 10 ** 200, "1.234e+204"), (12355 * 10 ** 200, "1.236e+204"),
        (99995 * 10 ** 200, "1.000e+205"), (99994 * 10 ** 200, "9.999e+204"),
    ])
    def test_count_text_at_the_edges(self, count, text):
        assert _count_text(count) == text


@st.composite
def five_counts(draw):
    """P, h, Pz, C, Ch with negatives, h > P, Pz = P - h, Ch = h^2, Ch = C and
    h = 0 with C > 0 drawn often."""
    small = st.integers(-2, 12)
    p = draw(small)
    h = draw(small | st.just(0))
    pz = draw(small | st.just(p - h))
    c = draw(small | st.integers(1, 5))
    ch = draw(small | st.just(h * h) | st.just(c))
    return p, h, pz, c, ch


def _accepted(name, counts) -> bool:
    try:
        SummaryRecord(name, *counts)
    except ValidationError:
        return False
    return True


class TestColumnsValid:
    @settings(max_examples=500)
    @given(five_counts(), st.sampled_from(["e", ""]))
    def test_accepts_a_row_exactly_when_a_record_does(self, counts, name):
        assert columns_valid([name], *([v] for v in counts)) == _accepted(name, counts)

    @given(st.lists(st.tuples(st.sampled_from(["a", "b", ""]), five_counts()),
                    min_size=1, max_size=6))
    def test_accepts_columns_exactly_when_every_row_is_a_record(self, rows):
        names = [name for name, _ in rows]
        columns = zip(*(counts for _, counts in rows))
        assert columns_valid(names, *map(list, columns)) == all(
            _accepted(name, counts) for name, counts in rows)

    def test_large_counts(self):
        big = 10 ** 400
        assert columns_valid(["e"], [big], [1], [0], [big], [1])
        assert not columns_valid(["e"], [big], [0], [0], [big], [0])
