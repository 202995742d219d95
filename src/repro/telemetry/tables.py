"""Monospace table and series rendering primitives.

Shared by the trace summariser (:mod:`repro.telemetry.summary`), the
run-report renderer, the CLI and the benchmark modules, so
`pytest benchmarks/ -s` reads like the evaluation section.  Lives in
the telemetry layer — the lowest consumer — so nothing below the
experiments layer has to import upward just to print a table.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Monospace table with per-column width fitting."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    name: str,
    pairs: Sequence[Tuple[float, float]],
    x_label: str = "t",
    y_label: str = "y",
    max_points: int = 24,
) -> str:
    """Compact (x, y) series dump for figure-style benchmarks."""
    if len(pairs) > max_points:
        step = max(1, len(pairs) // max_points)
        pairs = list(pairs[::step])
    body = "  ".join(f"({_fmt(x)},{_fmt(y)})" for x, y in pairs)
    return f"{name} [{x_label},{y_label}]: {body}"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3g}"
        if magnitude >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)
