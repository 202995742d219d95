"""Unit tests for report formatting."""

from __future__ import annotations

from repro.telemetry.tables import format_series, format_table


def test_format_table_alignment():
    table = format_table(
        ["scheme", "fct"],
        [["Default", 1.5], ["Paraleon", 1.2]],
        title="Example",
    )
    lines = table.splitlines()
    assert lines[0] == "Example"
    assert "scheme" in lines[1] and "fct" in lines[1]
    assert len(lines) == 5
    # Columns align: separator row has the same width as the header row.
    assert len(lines[2]) == len(lines[1])


def test_format_table_widens_for_long_cells():
    table = format_table(["x"], [["averyverylongcellvalue"]])
    header, sep, row = table.splitlines()
    assert len(header) == len(row)


def test_format_series_subsamples():
    pairs = [(i * 0.001, i) for i in range(100)]
    out = format_series("tp", pairs, max_points=10)
    assert out.startswith("tp [t,y]:")
    assert out.count("(") <= 12


def test_number_formatting():
    table = format_table(["v"], [[0.000123], [123456.0], [12.345], [0]])
    assert "0.000123" in table
    assert "1.23e+05" in table
    assert "12.3" in table
