"""The CLI's column-wise report renderers against the cell-by-cell oracle in
``tests/oracles.py``: byte-identical text for every output format."""

import math
import random
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citetrace.cli import _format_sig, _write_csv, _write_json, _write_table

from oracles import format_sig, write_csv, write_json, write_table

SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max,
                  9.999999999999999e307, 0.5, 2.5, 9.5, 0.05, 999.95, 1e23, 1e16]

names = st.text(alphabet=st.sampled_from(list('ab ,"\n\r{}\\é漢😀\x00')) | st.characters(),
                max_size=8)
ints = st.integers(min_value=-10 ** 300, max_value=10 ** 300) | st.integers(-10, 10 ** 6)
floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
cells = {"str": names, "int": ints, "float": floats, "none": st.none(),
         "mixed": st.one_of(names, ints, floats, st.none())}


@st.composite
def reports(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(cells)), min_size=1, max_size=5))
    headers = draw(st.lists(names.filter(bool), min_size=len(kinds), max_size=len(kinds),
                            unique=True))
    rows = draw(st.lists(st.tuples(*(cells[kind] for kind in kinds)), max_size=6))
    return headers, rows


@settings(max_examples=400, deadline=None)
@given(report=reports(), figures=st.integers(min_value=1, max_value=17))
def test_renderers_match_the_cell_by_cell_oracle(report, figures):
    headers, rows = report
    assert _write_csv(headers, rows) == write_csv(headers, rows)
    assert _write_json(headers, rows) == write_json(headers, rows)
    try:
        expected = write_table(headers, rows, figures)
    except OverflowError:  # the oracle cannot round past the float maximum
        return
    assert _write_table(headers, rows, figures) == expected


def test_empty_reports():
    for headers in (["name"], ["rank", "name", "T"]):
        assert _write_json(headers, []) == write_json(headers, []) == "[]\n"
        assert _write_table(headers, [], 4) == write_table(headers, [], 4)
        assert _write_csv(headers, []) == write_csv(headers, [])


def _sweep_values():
    rng = random.Random(20130601)
    values = list(SPECIAL_FLOATS)
    while len(values) < 8_000:  # random bit patterns, finite only
        value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(value):
            values.append(value)
    for _ in range(6_000):
        values.append(rng.choice((1, -1)) * 10 ** rng.uniform(-30, 30))
    for exponent in range(-30, 31):  # either side of each power of ten
        value = float(f"1e{exponent}")
        for _ in range(50):
            values += [value, -value]
            value = math.nextafter(value, math.inf)
        value = float(f"1e{exponent}")
        for _ in range(50):
            value = math.nextafter(value, 0.0)
            values.append(value)
    return values


def test_format_sig_sweep_matches_oracle():
    overflows = 0
    for value in _sweep_values():
        for figures in range(1, 18):
            try:
                expected = format_sig(value, figures)
            except OverflowError:
                overflows += 1
                # past the float maximum: the exact value rounded half to even
                scale = 10 ** (math.floor(math.log10(abs(value))) - figures + 1)
                expected = str(round(Fraction(value) / scale) * scale)
            assert _format_sig(value, figures) == expected, (value, figures)
    assert overflows > 0


@pytest.mark.parametrize("value, figures, text", [
    (sys.float_info.max, 1, "2" + "0" * 308),
    (-sys.float_info.max, 4, "-1798" + "0" * 305),
    (sys.float_info.max, 17, f"{sys.float_info.max:.0f}"),  # the float nearest its rounding
    (1e23, 1, "99999999999999991611392"),  # round() returns the float nearest 10**23
    (2.5, 1, "2"),
    (3.5, 1, "4"),
])
def test_format_sig_rounds_half_to_even_in_integers(value, figures, text):
    assert _format_sig(value, figures) == text
