"""Bundled reference corpus and its independently tabulated expected values.

The corpus ships two datasets of five-number summary records: 86
journals observed over a two-year window (83 from the library and
information science category plus Nature, Science and PNAS), and four
other units of analysis (two German universities, 2012, and two
individual author track records, 2003-2012).  Alongside the raw inputs
it carries hand-tabulated matrix entries and traces for 27 of those
entities at their originally displayed precision; those serve as golden
values for regression testing.

A displayed value with d decimals is reproduced when the recomputed
number lies within half a unit of the last displayed digit, i.e.
|computed - displayed| <= 0.5 * 10^-d.  Comparisons run in decimal
arithmetic so the boundary cases are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache
from typing import Mapping

from .datasets import DatasetFile
from .indicators import score
from .partition import SummaryRecord

__all__ = [
    "GoldenRow",
    "WorkedExample",
    "ReferenceCorpus",
    "CellCheck",
    "ReferenceReport",
    "reference_corpus",
    "journals_dataset",
    "units_dataset",
    "matches_displayed",
    "displayed_tolerance",
    "validate_corpus",
]

GROUP_LIS = "LIS"
GROUP_MULTI = "multidisciplinary"

MATRIX_CELLS = ("X1", "X2", "X3", "Y1", "Y2", "Y3", "Z1", "Z2", "Z3")

# name, P, h, Pz, C, Ch -- two-year window (2009-2010).  Italic markup in
# the original tabulation is stripped; names are opaque labels.
_JOURNALS = (
    ("MIS Quart", 88, 20, 6, 1133, 575),
    ("J Informetr", 105, 18, 5, 1132, 574),
    ("J Am Med Inform Assn", 247, 24, 26, 2243, 810),
    ("Annu Rev Inform Sci", 24, 7, 5, 159, 129),
    ("J Inf Technol", 69, 8, 18, 227, 107),
    ("Int J Comp-Supp Coll", 45, 10, 9, 276, 170),
    ("Inform Manage-Amster", 99, 13, 8, 662, 251),
    ("J Comput-Mediat Comm", 93, 12, 10, 583, 284),
    ("Inform Syst Res", 87, 13, 10, 572, 272),
    ("J Am Soc Inf Sci Tec", 487, 20, 138, 2404, 712),
    ("Inform Syst J", 56, 9, 11, 274, 140),
    ("Scientometrics", 425, 17, 45, 2247, 435),
    ("MIS Q Exec", 41, 6, 13, 119, 60),
    ("J Assoc Inf Syst", 69, 8, 12, 286, 128),
    ("Libr Inform Sci Res", 85, 10, 29, 263, 128),
    ("J Health Commun", 193, 12, 38, 776, 219),
    ("Telecommun Policy", 131, 10, 29, 475, 147),
    ("Int J Inform Manage", 159, 11, 64, 569, 186),
    ("Eur J Inform Syst", 99, 9, 10, 365, 126),
    ("Int J Geogr Inf Sci", 175, 13, 32, 795, 241),
    ("J Strategic Inf Syst", 43, 7, 10, 175, 97),
    ("Gov Inform Q", 161, 13, 57, 642, 269),
    ("J Manage Inform Syst", 89, 10, 21, 368, 168),
    ("J Inf Sci", 97, 9, 16, 391, 124),
    ("J Knowl Manag", 132, 10, 14, 548, 172),
    ("Inform Soc", 80, 6, 33, 155, 53),
    ("Inform Process Manag", 121, 9, 27, 432, 150),
    ("Soc Sci Comput Rev", 72, 8, 23, 224, 101),
    ("J Doc", 133, 7, 62, 273, 85),
    ("Serials Rev", 93, 4, 63, 64, 18),
    ("J Med Libr Assoc", 170, 8, 86, 287, 76),
    ("Online Inform Rev", 193, 10, 105, 360, 128),
    ("Health Info Libr J", 96, 6, 30, 235, 91),
    ("Learn Publ", 132, 6, 80, 178, 72),
    ("Res Evaluat", 77, 6, 25, 186, 65),
    ("Coll Res Libr", 155, 5, 109, 124, 51),
    ("Libr Quart", 74, 4, 49, 71, 29),
    ("Inform Res", 169, 3, 153, 23, 10),
    ("Portal-Libr Acad", 91, 4, 61, 83, 36),
    ("Inform Organ-Uk", 27, 5, 4, 68, 32),
    ("Inform Technol Peopl", 39, 5, 10, 83, 37),
    ("Data Base Adv Inf Sy", 43, 4, 18, 60, 28),
    ("Libr Resour Tech Ser", 68, 5, 35, 77, 31),
    ("Aslib Proc", 79, 6, 36, 146, 65),
    ("J Scholarly Publ", 67, 3, 45, 50, 20),
    ("Inform Technol Dev", 49, 5, 20, 86, 40),
    ("Soc Sci Inform", 56, 4, 22, 80, 24),
    ("J Acad Libr", 237, 6, 155, 206, 46),
    ("J Libr Inf Sci", 83, 4, 60, 69, 28),
    ("Rev Esp Doc Cient", 61, 3, 42, 40, 14),
    ("Libr Cult Rec", 95, 2, 79, 21, 4),
    ("Ethics Inf Technol", 65, 6, 23, 124, 48),
    ("Libr Hi Tech", 148, 6, 98, 140, 50),
    ("J Glob Inf Manag", 31, 5, 8, 74, 33),
    ("Scientist", 688, 4, 629, 100, 29),
    ("Electron Libr", 214, 7, 128, 224, 71),
    ("Libr Collect Acquis", 51, 3, 32, 52, 29),
    ("Online", 215, 3, 196, 30, 10),
    ("Knowl Man Res Pract", 73, 5, 25, 123, 40),
    ("Malays J Libr Inf Sc", 42, 4, 22, 46, 19),
    ("Aust Acad Res Libr", 103, 4, 84, 46, 19),
    ("Prof Inform", 174, 5, 98, 152, 41),
    ("Libr Trends", 87, 3, 44, 74, 14),
    ("Knowl Organ", 65, 3, 45, 33, 9),
    ("Interlend Doc Supply", 78, 4, 17, 131, 20),
    ("Program-Electron Lib", 92, 4, 63, 59, 17),
    ("Aust Libr J", 214, 2, 200, 26, 9),
    ("Libr J", 8595, 3, 8561, 47, 15),
    ("Libri", 55, 3, 29, 45, 14),
    ("Inform Technol Libr", 64, 3, 57, 47, 12),
    ("Ref User Serv Q", 310, 3, 280, 48, 13),
    ("Can J Inform Lib Sci", 35, 2, 25, 15, 6),
    ("Restaurator", 38, 3, 20, 29, 11),
    ("Inform Dev", 65, 3, 45, 38, 13),
    ("Inform Technol Manag", 34, 3, 16, 31, 9),
    ("Perspect Cienc Inf", 134, 2, 119, 18, 4),
    ("Afr J Libr Arch Info", 29, 2, 23, 11, 6),
    ("Investig Bibliotecol", 65, 1, 61, 4, 1),
    ("Transinformacao", 40, 1, 34, 7, 2),
    ("Z Bibl Bibl", 120, 2, 114, 8, 4),
    ("Econtent", 323, 1, 313, 11, 2),
    ("Libr Inform Sc", 25, 1, 23, 2, 1),
    ("Inform Soc-Estud", 79, 1, 73, 7, 2),
    ("Nature", 5121, 192, 1834, 182649, 66109),
    ("Science", 4955, 171, 1427, 159648, 52076),
    ("PNAS", 8438, 115, 372, 212651, 18871),
)

_MULTI_NAMES = frozenset({"Nature", "Science", "PNAS"})

# name, P, h, Pz, C, Ch -- universities (2012) and authors (2003-2012).
_UNITS = (
    ("Univ Heidelberg", 4715, 21, 3149, 5220, 996),
    ("Univ Hamburg", 1949, 19, 1257, 3185, 1243),
    ("Leydesdorff L", 141, 27, 23, 2183, 1331),
    ("Ye FY", 25, 5, 9, 72, 51),
)

# Hand-tabulated expected values, stored exactly as displayed.  Cells in
# a row: X1, X2, X3, Y1, Y2, Y3, Z1, Z2, Z3, T.
_GOLDEN_JOURNALS = (
    (1, "PNAS", GROUP_MULTI,
     ("1.57", "7492", "16.4", "822.5", "176584", "149.9", "820.9", "169092", "133.5", "176719")),
    (2, "Nature", GROUP_MULTI,
     ("7.2", "1871", "657", "7440", "74359", "4683", "7433", "72488", "4026", "78392")),
    (3, "Science", GROUP_MULTI,
     ("5.9", "2274", "411", "5356", "72483", "3266", "5350", "70208", "2855", "75344")),
    (1, "Scientometrics", GROUP_LIS,
     ("0.68", "310", "4.76", "37.17", "1461.2", "9.486", "36.49", "1151.2", "4.722", "1466.6")),
    (2, "J Am Soc Inf Sci Tec", GROUP_LIS,
     ("0.82", "222.3", "39.1", "66.56", "1190.9", "40.49", "65.73", "968.61", "1.388", "1193.1")),
    (3, "J Am Med Inform Assn", GROUP_LIS,
     ("2.33", "157.1", "2.74", "147.9", "915.51", "24.41", "145.6", "758.39", "21.68", "939.52")),
    (4, "J Health Commun", GROUP_LIS,
     ("0.75", "106", "7.48", "26.72", "399.81", "7.249", "25.98", "293.85", "-0.23", "400.32")),
    (5, "Int J Geogr Inf Sci", GROUP_LIS,
     ("0.97", "96.57", "5.85", "35.93", "386.06", "6.521", "34.96", "289.49", "0.669", "387.69")),
    (6, "J Informetr", GROUP_LIS,
     ("3.09", "64.04", "0.24", "92.73", "275.06", "55.21", "89.65", "211.02", "54.97", "333.12")),
    (7, "MIS Quart", GROUP_LIS,
     ("4.55", "43.68", "0.41", "141.2", "274.81", "27.03", "136.7", "231.13", "26.62", "305.98")),
    (8, "J Knowl Manag", GROUP_LIS,
     ("0.76", "88.36", "1.48", "18.25", "257.99", "9.46", "17.49", "169.62", "7.975", "266.72")),
    (9, "Inform Manage-Amster", GROUP_LIS,
     ("1.71", "61.45", "0.65", "43.14", "255.17", "10.16", "41.44", "193.71", "9.511", "266.39")),
    (10, "Int J Inform Manage", GROUP_LIS,
     ("0.76", "44.38", "25.8", "25.73", "257.8", "7.425", "24.97", "213.42", "-18.3", "240.23")),
    (11, "Telecommun Policy", GROUP_LIS,
     ("0.76", "64.61", "6.42", "21.05", "226.49", "4.651", "20.29", "161.88", "-1.77", "225.49")),
    (12, "Gov Inform Q", GROUP_LIS,
     ("1.05", "51.43", "20.2", "44.49", "216.71", "15.58", "43.44", "165.28", "-4.6", "213.16")),
    (13, "Inform Process Manag", GROUP_LIS,
     ("0.67", "59.71", "6.02", "15.19", "184.08", "11.02", "14.52", "124.37", "4.996", "189.75")),
    (14, "J Comput-Mediat Comm", GROUP_LIS,
     ("1.55", "54.2", "1.08", "35.57", "153.35", "33.62", "34.02", "99.142", "32.54", "187.44")),
    (15, "J Inf Sci", GROUP_LIS,
     ("0.84", "53.44", "2.64", "16.78", "182.32", "4.729", "15.94", "128.88", "2.09", "185.25")),
    (16, "Inform Syst Res", GROUP_LIS,
     ("1.94", "47.08", "1.15", "49.93", "157.34", "18.55", "47.99", "110.26", "17.4", "176.68")),
    (17, "Eur J Inform Syst", GROUP_LIS,
     ("0.82", "64.65", "1.01", "17.98", "156.5", "5.548", "17.16", "91.849", "4.538", "161.85")),
    (18, "J Manage Inform Syst", GROUP_LIS,
     ("1.12", "37.8", "4.96", "27.17", "108.7", "12.57", "26.05", "70.898", "7.61", "117.43")),
    (19, "J Med Libr Assoc", GROUP_LIS,
     ("0.38", "33.98", "43.5", "14.27", "155.13", "0.502", "13.9", "121.15", "-43", "112.5")),
    (20, "J Doc", GROUP_LIS,
     ("0.37", "30.8", "28.9", "8.795", "129.47", "4.747", "8.426", "98.668", "-24.2", "105.68")),
)

_GOLDEN_UNIVERSITIES = (
    (None, "Univ Heidelberg", None,
     ("0.0935", "506.26", "2103", "37.257", "3418", "59.009", "37.163", "2911.8", "-2044", "1374.03")),
    (None, "Univ Hamburg", None,
     ("0.1852", "232.39", "811", "40.917", "1184.1", "244.25", "40.732", "951.71", "-566.5", "617.836")),
)

_GOLDEN_AUTHORS = (
    (None, "Leydesdorff L", None,
     ("5.1702", "58.73", "3.75", "243.45", "332.53", "166.01", "238.28", "273.8", "162.26", "499.956")),
    (None, "Ye FY", None,
     ("1", "4.84", "3.24", "8.6806", "6.125", "9.3889", "7.6806", "1.285", "6.1489", "13.2739")),
)

# Fully worked single-entity matrices, also kept at displayed precision.
# Some traces were displayed at more than one precision; each display is
# a separate claim and all of them are checked.
_WORKED = (
    ("J Informetr",
     ("3.09", "64.04", "0.24", "92.73", "275.06", "55.21", "89.65", "211.02", "54.97"),
     ("333.12",)),
    ("J Am Soc Inf Sci Tec",
     ("0.82", "222.3", "39.1", "66.56", "1190.9", "40.49", "65.73", "968.61", "1.388"),
     ("1193.1",)),
    ("Leydesdorff L",
     ("5.17", "58.73", "3.75", "243.45", "332.53", "166.01", "238.28", "273.8", "162.26"),
     ("499.96", "499.956")),
    ("Ye FY",
     ("1", "4.84", "3.24", "8.68", "6.13", "9.39", "7.68", "1.29", "6.15"),
     ("13.27", "13.2739")),
)


@dataclass(frozen=True)
class GoldenRow:
    """One entity's expected matrix entries and trace, as displayed strings."""

    name: str
    group: str | None
    rank: int | None
    displayed: Mapping[str, str]  # keys X1..Z3 and T


@dataclass(frozen=True)
class WorkedExample:
    """A fully written-out matrix plus one or more trace displays."""

    name: str
    matrix: Mapping[str, str]  # keys X1..Z3
    traces: tuple[str, ...]


@dataclass(frozen=True)
class ReferenceCorpus:
    journals: tuple[SummaryRecord, ...]
    units: tuple[SummaryRecord, ...]
    golden_journals: tuple[GoldenRow, ...]
    golden_universities: tuple[GoldenRow, ...]
    golden_authors: tuple[GoldenRow, ...]
    worked_examples: tuple[WorkedExample, ...]

    def record(self, name: str) -> SummaryRecord:
        for rec in self.journals + self.units:
            if rec.name == name:
                return rec
        raise KeyError(name)


def _golden_rows(raw) -> tuple[GoldenRow, ...]:
    cells = MATRIX_CELLS + ("T",)
    return tuple(
        GoldenRow(name=name, group=group, rank=rank,
                  displayed=dict(zip(cells, displayed)))
        for rank, name, group, displayed in raw
    )


@lru_cache(maxsize=1)
def reference_corpus() -> ReferenceCorpus:
    """The embedded corpus; deterministic and validated at build time."""
    journals = tuple(
        SummaryRecord(name=name, papers=p, h=h, uncited=pz, citations=c,
                      core_citations=ch,
                      group=GROUP_MULTI if name in _MULTI_NAMES else GROUP_LIS)
        for name, p, h, pz, c, ch in _JOURNALS
    )
    units = tuple(
        SummaryRecord(name=name, papers=p, h=h, uncited=pz, citations=c,
                      core_citations=ch)
        for name, p, h, pz, c, ch in _UNITS
    )
    worked = tuple(
        WorkedExample(name=name, matrix=dict(zip(MATRIX_CELLS, matrix)), traces=traces)
        for name, matrix, traces in _WORKED
    )
    return ReferenceCorpus(
        journals=journals,
        units=units,
        golden_journals=_golden_rows(_GOLDEN_JOURNALS),
        golden_universities=_golden_rows(_GOLDEN_UNIVERSITIES),
        golden_authors=_golden_rows(_GOLDEN_AUTHORS),
        worked_examples=worked,
    )


def journals_dataset() -> DatasetFile:
    """The journal corpus as a regular dataset (two-year window)."""
    return DatasetFile(format="summary-csv", records=reference_corpus().journals,
                       source="corpus:journals", window="2009-2010")


def units_dataset() -> DatasetFile:
    """The university/author corpus as a regular dataset."""
    return DatasetFile(format="summary-csv", records=reference_corpus().units,
                       source="corpus:units", window="2012 / 2003-2012")


def displayed_tolerance(displayed: str) -> Decimal:
    """Half a unit in the last displayed decimal place."""
    decimals = -Decimal(displayed).as_tuple().exponent
    return Decimal(5) / (10 ** (decimals + 1))


def matches_displayed(computed: float, displayed: str) -> bool:
    """Exact decimal comparison of |computed - displayed| against the tolerance."""
    with localcontext() as ctx:
        ctx.prec = 60
        return abs(Decimal(computed) - Decimal(displayed)) <= displayed_tolerance(displayed)


@dataclass(frozen=True)
class CellCheck:
    table: str
    entity: str
    cell: str
    computed: float
    displayed: str
    passed: bool


@dataclass(frozen=True)
class ReferenceReport:
    cells: tuple[CellCheck, ...]

    @property
    def ok(self) -> bool:
        return all(cell.passed for cell in self.cells)

    @property
    def failures(self) -> tuple[CellCheck, ...]:
        return tuple(cell for cell in self.cells if not cell.passed)


def _computed_values(corpus: ReferenceCorpus, name: str) -> dict:
    return score(corpus.record(name))._asdict()


def validate_corpus(corpus: ReferenceCorpus | None = None) -> ReferenceReport:
    """Recompute every golden cell and compare at displayed precision.

    Passing a modified corpus (e.g. with a corrected golden value)
    revalidates against the override; the default is the embedded one.
    """
    corpus = corpus or reference_corpus()
    checks: list[CellCheck] = []
    tables = (("journals", corpus.golden_journals),
              ("universities", corpus.golden_universities),
              ("authors", corpus.golden_authors))
    for table, rows in tables:
        for row in rows:
            values = _computed_values(corpus, row.name)
            for cell, displayed in row.displayed.items():
                checks.append(CellCheck(table=table, entity=row.name, cell=cell,
                                        computed=values[cell], displayed=displayed,
                                        passed=matches_displayed(values[cell], displayed)))
    for example in corpus.worked_examples:
        values = _computed_values(corpus, example.name)
        for cell, displayed in example.matrix.items():
            checks.append(CellCheck(table="worked", entity=example.name, cell=cell,
                                    computed=values[cell], displayed=displayed,
                                    passed=matches_displayed(values[cell], displayed)))
        for displayed in example.traces:
            checks.append(CellCheck(table="worked", entity=example.name, cell="T",
                                    computed=values["T"], displayed=displayed,
                                    passed=matches_displayed(values["T"], displayed)))
    return ReferenceReport(cells=tuple(checks))
