"""Tests for table rendering."""

import pytest

from repro.analysis import format_ps, format_table


def test_format_table_alignment():
    text = format_table(
        ["Name", "Value"],
        [("alpha", 1), ("bb", 22_000)],
        title="T",
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert all(len(l) == len(lines[1]) for l in lines[1:])
    assert "22,000" in text
    assert "alpha" in text


def test_format_table_floats():
    text = format_table(["x"], [(0.12345,), (1.5,), (12345.6,), (0.0,)])
    assert "0.1235" in text or "0.1234" in text
    assert "1.50" in text
    assert "12,346" in text
    assert " 0 |" in text  # exact zero renders as plain 0, right-aligned


def test_format_table_row_width_checked():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [(1,)])


def test_format_table_empty_rows():
    text = format_table(["a", "b"], [])
    assert "| a" in text


def test_format_ps_units():
    assert format_ps(500) == "500 ps"
    assert format_ps(1500) == "1.5 ns"
    assert format_ps(2_500_000) == "2.50 us"
    assert format_ps(3_000_000_000) == "3.000 ms"
