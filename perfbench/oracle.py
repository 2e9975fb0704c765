"""Independent correctness oracle for citetrace CLI output.

Every expected number is derived here from the five integers of each
record, in exact integer arithmetic: each indicator is one integer
fraction, rounded once by Python's correctly rounded ``int / int``.
Signs, ties and rank order are decided on the exact fractions.
Correlations are checked against ``scipy.stats``.

Printed floats must lie within ``RTOL`` times the sum of the absolute
terms of the indicator (so a trace near zero is judged against the size
of what cancelled), plus, for table output rounded to four significant
figures, half a unit of the last digit shown.

A row is *wrong* when anything in it disagrees with the oracle.  A wrong
row is *float-level* when every printed number is within tolerance but a
decision taken on those numbers (a sign, an order, a ``T > 0`` filter, a
significance star) differs from the decision on the exact values.  Only
rows that are wrong beyond float level make a check incorrect.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable

RTOL = 1e-9
P_RTOL = 1e-6  # p-values: citetrace uses Student t, scipy partly the beta function

INDICATORS = ("h", "X1", "X2", "X3", "Y1", "Y2", "Y3", "Z1", "Z2", "Z3", "I3X", "I3Y", "T")
FLOAT_INDICATORS = INDICATORS[1:]


@dataclass(frozen=True)
class Expected:
    """One entity's values: exact fractions, their correctly rounded floats,
    and the tolerance scale of each."""

    exact: dict[str, tuple[int, int]]  # key -> (numerator, denominator > 0)
    values: dict[str, float]
    scales: dict[str, float]
    warnings: int  # plausibility bounds [Pt, h*Pt] the tail citations violate

    @property
    def positive(self) -> bool:
        return self.exact["T"][0] > 0


def expected(p: int, h: int, pz: int, c: int, ch: int) -> Expected:
    pt, cc, ce, ct = p - h - pz, h * h, ch - h * h, c - ch
    xs = (h * h, pt * pt, pz * pz)  # numerators over p
    ys = (cc * cc, ct * ct, ce * ce) if c else (0, 0, 0)  # numerators over c
    cden = c or 1
    exact = {"h": (h, 1), "I3X": (sum(xs), p), "I3Y": (sum(ys), cden),
             "T": (xs[0] * cden + (ys[1] + ys[2]) * p - xs[2] * cden, p * cden)}
    scales = {"h": h, "I3X": sum(xs) / p, "I3Y": sum(ys) / cden,
              "T": (xs[0] + xs[2]) / p + (ys[1] + ys[2]) / cden}
    for i in range(3):
        exact[f"X{i + 1}"] = (xs[i], p)
        exact[f"Y{i + 1}"] = (ys[i], cden)
        exact[f"Z{i + 1}"] = (ys[i] * p - xs[i] * cden, p * cden)
        scales[f"X{i + 1}"] = xs[i] / p
        scales[f"Y{i + 1}"] = ys[i] / cden
        scales[f"Z{i + 1}"] = xs[i] / p + ys[i] / cden
    values = {key: num // den if key == "h" else num / den for key, (num, den) in exact.items()}
    return Expected(exact, values, scales, (ct < pt) + (ct > h * pt))


def expected_map(names, rows) -> dict[str, Expected]:
    return {name: expected(*map(int, row)) for name, row in zip(names, rows)}


@dataclass
class Check:
    """Outcome of checking one command's stdout."""

    rows: int = 0
    wrong: set = field(default_factory=set)  # row ids
    float_level: set = field(default_factory=set)  # subset of wrong
    unparseable: str | None = None
    problems: list[str] = field(default_factory=list)

    def flag(self, row, problem: str, float_level: bool) -> None:
        self.wrong.add(row)
        if float_level:
            self.float_level.add(row)
        elif len(self.problems) < 5:
            self.problems.append(problem)

    @property
    def ok(self) -> bool:
        return self.unparseable is None and self.wrong <= self.float_level


TABLE_FIGURES = 4  # significant figures of citetrace's default table output


def half_unit(text: str) -> float:
    """Half a unit in the last place a table shows: its last decimal, or its
    fourth significant figure when that lies left of the decimal point."""
    exponent = Decimal(text).as_tuple().exponent
    return max(0.5 * 10.0 ** exponent, 0.5 * 10.0 ** (1 - TABLE_FIGURES) * abs(float(text)))


def _close(printed: float, exact: float, scale: float, slack: float) -> bool:
    return abs(printed - exact) <= RTOL * scale + slack


def _entity_problems(row: dict, exp: Expected, rounded: bool) -> tuple[list[str], bool]:
    """Problems in one printed entity row; the flag is true when all are float-level."""
    problems = []
    if int(row["h"]) != exp.values["h"]:
        problems.append(f"h {row['h']} != {exp.values['h']}")
    for key in FLOAT_INDICATORS:
        text = str(row[key])
        if not _close(float(text), exp.values[key], exp.scales[key],
                      half_unit(text) if rounded else 0.0):
            problems.append(f"{key} {text} != {exp.values[key]!r}")
    values_ok = not problems
    if row["sign"] != ("positive" if exp.positive else "nonpositive"):
        problems.append(f"sign {row['sign']} but exact T = {exp.exact['T'][0]}/{exp.exact['T'][1]}")
    return problems, values_ok


# ---- parsing ---------------------------------------------------------------

def _table_rows(text: str, leading: int) -> list[dict]:
    """Entity rows of a table: `leading` columns, a name (may hold spaces), 13 numbers, sign."""
    lines = text.splitlines()
    header = lines[0].split()
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) < leading + 15:
            raise ValueError(f"short table row: {line!r}")
        name = " ".join(tokens[leading:-14])
        rows.append(dict(zip(header, tokens[:leading] + [name] + tokens[-14:])))
    return rows


def entity_rows(stdout: bytes, fmt: str, ranked: bool) -> list[dict]:
    text = stdout.decode()
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    return _table_rows(text, 1 if ranked else 0)


def correlate_rows(stdout: bytes, fmt: str) -> list[dict]:
    text = stdout.decode()
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    rows = []
    for line in text.splitlines()[1:]:
        tokens = line.split()
        row = dict(zip(("a", "b", "n", "pearson_r", "p_pearson"), tokens[:5]))
        rest = tokens[5:]
        row["pearson_stars"] = rest.pop(0) if rest and rest[0].startswith("*") else ""
        row["spearman_rho"], row["p_spearman"] = rest[0], rest[1]
        row["spearman_stars"] = rest[2] if len(rest) > 2 else ""
        rows.append(row)
    return rows


# ---- checks ----------------------------------------------------------------

def _parse(check: Check, parser: Callable, *args):
    try:
        return parser(*args)
    except (ValueError, KeyError, IndexError, UnicodeDecodeError, json.JSONDecodeError) as err:
        check.unparseable = f"{type(err).__name__}: {err}"
        return None


def check_compute(stdout: bytes, fmt: str, names: list[str], exp: dict[str, Expected]) -> Check:
    """compute: one row per input record, in input order."""
    check = Check()
    rows = _parse(check, entity_rows, stdout, fmt, False)
    if rows is None:
        return check
    check.rows = max(len(rows), len(names))
    for i in range(check.rows):
        if i >= len(rows) or i >= len(names) or rows[i].get("name") != names[i]:
            check.flag(i, f"row {i}: name or row count differs", False)
            continue
        try:
            problems, values_ok = _entity_problems(rows[i], exp[names[i]], fmt == "table")
        except (KeyError, ValueError) as err:
            problems, values_ok = [f"unreadable cell {err}"], False
        if problems:
            check.flag(i, f"{names[i]}: {'; '.join(problems)}", values_ok)
    return check


def _exact_order(a: Expected, b: Expected) -> int:
    """Sign of T_a - T_b, exactly."""
    (an, ad), (bn, bd) = a.exact["T"], b.exact["T"]
    diff = an * bd - bn * ad
    return (diff > 0) - (diff < 0)


def check_rank(stdout: bytes, fmt: str, names: list[str], exp: dict[str, Expected],
               positive_only: bool) -> Check:
    """rank by T: ranks 1..n, order (-T, name) on exact values, membership, values."""
    check = Check()
    rows = _parse(check, entity_rows, stdout, fmt, True)
    if rows is None:
        return check
    wanted = {n for n in names if exp[n].positive} if positive_only else set(names)
    printed = [row.get("name") for row in rows]
    check.rows = len(rows) + len(wanted - set(printed))
    for name in sorted(wanted - set(printed)):
        tiny = _close(0.0, exp[name].values["T"], exp[name].scales["T"], 0.0)
        check.flag(name, f"{name} missing", tiny)
    if len(set(printed)) != len(printed):
        check.flag("duplicates", "duplicate names in ranking", False)
    previous = None
    for i, row in enumerate(rows):
        name = row.get("name")
        if name not in wanted:
            known = name in exp
            tiny = known and _close(0.0, exp[name].values["T"], exp[name].scales["T"], 0.0)
            check.flag(name, f"{name} should not be listed", tiny)
            if not known:
                continue
        try:
            problems, values_ok = _entity_problems(row, exp[name], fmt == "table")
            if int(row["rank"]) != i + 1:
                problems.append(f"rank {row['rank']} at position {i + 1}")
                values_ok = False
        except (KeyError, ValueError) as err:
            problems, values_ok = [f"unreadable cell {err}"], False
        if problems:
            check.flag(name, f"{name}: {'; '.join(problems)}", values_ok)
        if previous is not None:
            order = _exact_order(exp[previous], exp[name])
            if order < 0 or (order == 0 and previous > name):
                a, b = exp[previous], exp[name]
                near = _close(a.values["T"], b.values["T"], a.scales["T"] + b.scales["T"], 0.0)
                check.flag(name, f"{previous} before {name} breaks (-T, name) order", near)
        previous = name
    return check


def stars(p: float) -> str:
    return "**" if p < 0.01 else "*" if p < 0.05 else ""


def _near_threshold(p: float) -> bool:
    return any(abs(p - t) <= P_RTOL * t for t in (0.01, 0.05))


def check_correlate(stdout: bytes, fmt: str, columns: list[tuple[str, list[float]]]) -> Check:
    """correlate: every pair in order, against scipy.stats on the same columns."""
    from scipy import stats  # only needed here, outside every timed region

    check = Check()
    rows = _parse(check, correlate_rows, stdout, fmt)
    if rows is None:
        return check
    pairs = list(itertools.combinations(columns, 2))
    check.rows = max(len(rows), len(pairs))
    for i in range(check.rows):
        if i >= len(rows) or i >= len(pairs):
            check.flag(i, f"pair {i}: row count differs", False)
            continue
        row, ((a, x), (b, y)) = rows[i], pairs[i]
        pearson_ref, spearman_ref = stats.pearsonr(x, y), stats.spearmanr(x, y)
        problems, decisions = [], []
        try:
            if (row["a"], row["b"], int(row["n"])) != (a, b, len(x)):
                problems.append(f"pair {row['a']},{row['b']},{row['n']} != {a},{b},{len(x)}")
            for kind, r_key, p_key, star_key, ref in (
                    ("pearson", "pearson_r", "p_pearson", "pearson_stars", pearson_ref),
                    ("spearman", "spearman_rho", "p_spearman", "spearman_stars", spearman_ref)):
                r_text, p_text = str(row[r_key]), str(row[p_key])
                r_ref, p_ref = float(ref.statistic), float(ref.pvalue)
                slack = fmt == "table"
                if not _close(float(r_text), r_ref, 1.0, half_unit(r_text) if slack else 0.0):
                    problems.append(f"{kind} r {r_text} != {r_ref!r}")
                if abs(float(p_text) - p_ref) > P_RTOL * p_ref + 1e-12 + (
                        half_unit(p_text) if slack else 0.0):
                    problems.append(f"{kind} p {p_text} != {p_ref!r}")
                if row[star_key] != stars(p_ref):
                    (decisions if _near_threshold(p_ref) else problems).append(
                        f"{kind} stars {row[star_key]!r} for p = {p_ref!r}")
        except (KeyError, ValueError) as err:
            problems.append(f"unreadable cell {err}")
        if problems or decisions:
            check.flag(i, f"{a},{b}: {'; '.join(problems + decisions)}", not problems)
    return check


GOLDEN_CELLS = 312  # in the bundled corpus


def check_validate_reference(stdout: bytes) -> Check:
    """validate-reference: every golden cell passes, and the summary says so."""
    check = Check()
    lines = stdout.decode(errors="replace").splitlines()
    body = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    check.rows = max(len(body), GOLDEN_CELLS)
    for i, line in enumerate(body):
        if line.startswith("FAIL"):
            check.flag(i, line, False)
    summary = f"{GOLDEN_CELLS}/{GOLDEN_CELLS} golden cells within displayed precision"
    if not lines or lines[-1] != summary:
        check.flag("summary", f"summary line {lines[-1] if lines else ''!r}", False)
    if len(body) != GOLDEN_CELLS:
        check.flag("count", f"{len(body)} cell lines, expected {GOLDEN_CELLS}", False)
    return check


def columns_from_compute_csv(stdout: bytes, metrics: bytes, wanted: list[str]) -> list[tuple[str, list[float]]]:
    """The columns correlate should see: citetrace's own indicator floats
    (from a checked compute --output csv) joined by name with the metric file."""
    entities = list(csv.DictReader(io.StringIO(stdout.decode())))
    table = list(csv.reader(io.StringIO(metrics.decode())))
    metric_names = [h.strip() for h in table[0][1:]]
    metric_rows = {row[0].strip(): [float(v) for v in row[1:]] for row in table[1:] if row}
    joined = [e for e in entities if e["name"] in metric_rows]
    columns = []
    for column in wanted:
        if column in INDICATORS:
            columns.append((column, [float(e[column]) for e in joined]))
        else:
            j = metric_names.index(column)
            columns.append((column, [metric_rows[e["name"]][j] for e in joined]))
    return columns
