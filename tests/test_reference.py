"""Embedded corpus integrity and golden-value validation machinery."""

from dataclasses import replace
from decimal import Decimal

import pytest

from citetrace import (
    plausibility_warnings,
    validate_corpus,
)
from citetrace.reference import (
    GROUP_LIS,
    GROUP_MULTI,
    displayed_tolerance,
    journals_dataset,
    matches_displayed,
    reference_corpus,
    units_dataset,
)


class TestCorpusIntegrity:
    def test_journal_and_unit_counts(self):
        corpus = reference_corpus()
        assert len(corpus.journals) == 86
        assert sum(1 for r in corpus.journals if r.group == GROUP_LIS) == 83
        assert sum(1 for r in corpus.journals if r.group == GROUP_MULTI) == 3
        assert len(corpus.units) == 4

    def test_unique_names(self):
        corpus = reference_corpus()
        names = [r.name for r in corpus.journals + corpus.units]
        assert len(names) == len(set(names))

    def test_known_journal_record(self):
        rec = reference_corpus().record("Nature")
        assert (rec.papers, rec.h, rec.uncited, rec.citations, rec.core_citations) == \
            (5121, 192, 1834, 182649, 66109)
        assert rec.group == GROUP_MULTI

    def test_known_unit_record(self):
        rec = reference_corpus().record("Leydesdorff L")
        assert (rec.papers, rec.h, rec.uncited, rec.citations, rec.core_citations) == \
            (141, 27, 23, 2183, 1331)

    def test_every_record_passes_strict_validation(self):
        corpus = reference_corpus()
        for rec in corpus.journals + corpus.units:
            assert replace(rec) == rec  # rebuilding re-runs every invariant check

    def test_plausibility_screen_on_real_data(self):
        # one journal summary exceeds the h*Pt tail ceiling; everything else is clean
        corpus = reference_corpus()
        flagged = [rec.name for rec in corpus.journals + corpus.units
                   if plausibility_warnings(rec)]
        assert flagged == ["Inform Technol Libr"]

    def test_datasets_carry_provenance(self):
        assert journals_dataset().window == "2009-2010"
        assert len(journals_dataset().records) == 86
        assert len(units_dataset().records) == 4

    def test_expected_trace_for_top_journal(self):
        corpus = reference_corpus()
        row = next(r for r in corpus.golden_journals if r.name == "Scientometrics")
        assert row.displayed["T"] == "1466.6"
        assert row.rank == 1 and row.group == GROUP_LIS


class TestDisplayedPrecision:
    def test_tolerance_from_decimals(self):
        assert displayed_tolerance("310") == Decimal("0.5")
        assert displayed_tolerance("333.12") == Decimal("0.005")
        assert displayed_tolerance("0.0935") == Decimal("0.00005")
        assert displayed_tolerance("-43") == Decimal("0.5")

    def test_boundary_half_unit_passes(self):
        # 6.125 displayed as 6.13 sits exactly half a unit away
        assert matches_displayed(6.125, "6.13")

    def test_outside_tolerance_fails(self):
        assert not matches_displayed(6.136, "6.13")
        assert not matches_displayed(333.2, "333.12")

    def test_sign_sensitive(self):
        assert matches_displayed(-43.0041, "-43")
        assert not matches_displayed(43.0041, "-43")


class TestValidateCorpus:
    def test_full_corpus_passes(self):
        report = validate_corpus()
        assert report.ok
        assert len(report.cells) == 312
        assert report.failures == ()

    def test_sections_present(self):
        tables = {cell.table for cell in validate_corpus().cells}
        assert tables == {"journals", "universities", "authors", "worked"}

    def test_perturbed_golden_value_fails_that_cell(self):
        corpus = reference_corpus()
        target = corpus.golden_journals[0]
        tampered_row = replace(target, displayed={**target.displayed, "X1": "9.99"})
        tampered = replace(corpus,
                           golden_journals=(tampered_row,) + corpus.golden_journals[1:])
        report = validate_corpus(tampered)
        assert not report.ok
        assert [(c.entity, c.cell) for c in report.failures] == [(target.name, "X1")]

    def test_deterministic(self):
        assert validate_corpus() == validate_corpus()
