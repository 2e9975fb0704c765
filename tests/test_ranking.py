"""Deterministic ranking: ordering, ties, filtering, key validation."""

import math
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citetrace import (
    INDICATOR_KEYS,
    SummaryRecord,
    UnknownIndicator,
    rank_entities,
    score,
    summarize,
)
from citetrace.cli import main
from citetrace.ranking import rank_order
from citetrace.reference import matches_displayed, reference_corpus

from cli_runner import CliRunner


def lis_entities():
    corpus = reference_corpus()
    return [score(rec) for rec in corpus.journals if rec.group == "LIS"]


class TestRankEntities:
    def test_lis_top_three_by_trace(self):
        top = rank_entities(lis_entities(), key="T")[:3]
        assert [row.name for row in top] == [
            "Scientometrics", "J Am Soc Inf Sci Tec", "J Am Med Inform Assn"]
        for row, displayed in zip(top, ("1466.6", "1193.1", "939.52")):
            assert matches_displayed(row.T, displayed)

    def test_single_entity(self):
        entity = score(summarize((3, 2, 1), "A"))
        ranked = rank_entities([entity], key="h")
        assert len(ranked) == 1
        assert ranked[0].name == "A"

    def test_equal_trace_breaks_ties_lexicographically(self):
        counts = (5, 4, 3, 0)
        entities = [score(summarize(counts, name)) for name in ("zeta", "alpha", "mid")]
        ranked = rank_entities(entities, key="T")
        assert [row.name for row in ranked] == ["alpha", "mid", "zeta"]

    def test_unknown_indicator(self):
        with pytest.raises(UnknownIndicator):
            rank_entities(lis_entities(), key="nope")

    def test_filter_removes_but_never_reorders(self):
        def names(args):
            result = CliRunner().invoke(main, ["rank", "--input", "corpus", "--output", "csv",
                                               *args], catch_exceptions=False)
            return [line.split(",")[1] for line in result.stdout.splitlines()[1:]]

        unfiltered = names([])
        filtered = names(["--positive-only"])
        positive = {s.name for s in map(score, reference_corpus().journals)
                    if s.sign == "positive"}
        assert len(filtered) < len(unfiltered)
        assert filtered == [name for name in unfiltered if name in positive]

    def test_output_is_permutation_of_input(self):
        entities = lis_entities()
        ranked = rank_entities(entities, key="I3Y")
        assert sorted(row.name for row in ranked) == sorted(s.name for s in entities)

    def test_empty_input_rejected(self):
        with pytest.raises(Exception):
            rank_entities([], key="T")

    @given(st.lists(st.lists(st.integers(0, 50), min_size=1, max_size=20),
                    min_size=1, max_size=12))
    def test_sorted_by_key_descending(self, corpus):
        entities = [score(summarize(counts, f"e{i:02d}"))
                    for i, counts in enumerate(corpus)]
        values = [row.T for row in rank_entities(entities, key="T")]
        assert values == sorted(values, reverse=True)

    def test_row_carries_all_columns(self):
        rec = SummaryRecord("Ye FY", papers=25, h=5, uncited=9, citations=72,
                            core_citations=51)
        (row,) = rank_entities([score(rec)], key="T")
        assert row._fields == ("name", "h", "X1", "X2", "X3", "Y1", "Y2", "Y3",
                               "Z1", "Z2", "Z3", "I3X", "I3Y", "T", "sign")
        assert row.h == 5
        assert row.sign == "positive"


def _tied_corpus() -> list[SummaryRecord]:
    """Records in no name order, in groups whose every indicator is equal,
    and many more that tie on some indicators only (h, most often)."""
    records = []
    for i in range(60):
        counts = [(i * 7) % 5, (i * 3) % 4, i % 3] if i % 4 else [3, 2, 1]
        records.append(summarize(counts, f"n{(i * 37) % 60:02d}"))
    return records


@pytest.mark.parametrize("key", INDICATOR_KEYS)
def test_cli_rank_order_is_rank_entities_order(tmp_path, key):
    records = _tied_corpus()
    path = tmp_path / "tied.csv"
    path.write_text("name,P,h,Pz,C,Ch\n" + "".join(
        f"{r.name},{r.papers},{r.h},{r.uncited},{r.citations},{r.core_citations}\n"
        for r in records))
    result = CliRunner().invoke(main, ["rank", "--input", str(path), "--key", key,
                                       "--output", "csv"], catch_exceptions=False)
    cli_names = [line.split(",")[1] for line in result.stdout.splitlines()[1:]]
    ranked = rank_entities([score(r) for r in records], key=key)
    assert cli_names == [row.name for row in ranked]
    values = [getattr(row, key) for row in ranked]
    assert len(set(values)) < len(values)  # exact ties are ordered by name


_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf]) | st.floats(
    allow_nan=False)
_NAMES = st.sampled_from(["a", "b", "B", ""]) | st.text(max_size=3)


@given(st.lists(st.tuples(_VALUES, _NAMES), max_size=60), st.booleans())
def test_rank_order_is_the_key_tuple_sort(rows, as_array):
    """Highest value first, then name, then input position: repeated values
    and names, both zeros and the infinities included."""
    values = [value for value, _ in rows]
    names = [name for _, name in rows]
    expected = sorted(range(len(rows)), key=lambda i: (-values[i], names[i], i))
    assert rank_order(array("d", values) if as_array else values, names) == expected
