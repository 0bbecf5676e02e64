"""Plain-text table and trace-timeline rendering.

Dependency-free renderers shared by the benchmark harness and the
tracing CLI; :func:`format_trace_timeline` draws any object exposing
the :class:`~repro.analysis.tracing.TraceEvent` protocol (``ph``,
``cat``, ``name``, ``ts_ps``, ``dur_ps``, ``args``, ``tid``) without
importing the tracing module.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Sequence, Union

__all__ = [
    "format_table",
    "format_ps",
    "canonical_json",
    "format_trace_timeline",
]

Cell = Union[str, int, float]


def _render(cell: Cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:,.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    if isinstance(cell, int):
        return f"{cell:,}"
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: str = "",
) -> str:
    """Render an aligned fixed-width table (numbers right-aligned)."""
    str_rows = [[_render(c) for c in row] for row in rows]
    cols = len(headers)
    for r in str_rows:
        if len(r) != cols:
            raise ValueError(f"row {r} has {len(r)} cells, expected {cols}")
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(cols)
    ]

    def line(cells, pad=" "):
        parts = []
        for i, c in enumerate(cells):
            parts.append(c.rjust(widths[i]) if _is_numeric(c) else c.ljust(widths[i]))
        return "| " + " | ".join(parts) + " |"

    sep = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    out = []
    if title:
        out.append(title)
    out.append(sep)
    out.append(line(list(headers)))
    out.append(sep)
    for r in str_rows:
        out.append(line(r))
    out.append(sep)
    return "\n".join(out)


def _is_numeric(text: str) -> bool:
    t = text.replace(",", "").replace(".", "").replace("-", "").replace("%", "")
    return t.isdigit()


def canonical_json(data) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline.

    Reports serialized this way are byte-identical across runs and
    platforms for equal inputs — the soak campaign's determinism guard
    compares these strings directly.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ": "), indent=2) + "\n"


def format_ps(ps: int) -> str:
    """Human-readable simulated time."""
    if ps >= 1_000_000_000:
        return f"{ps / 1_000_000_000:.3f} ms"
    if ps >= 1_000_000:
        return f"{ps / 1_000_000:.2f} us"
    if ps >= 1_000:
        return f"{ps / 1_000:.1f} ns"
    return f"{ps} ps"


def format_trace_timeline(events: Iterable, limit: int = 0) -> str:
    """Render trace events as an indented plain-text timeline.

    Events must already be sorted (``Tracer.sorted_events()``); span
    nesting is shown by indentation computed per track from span
    end-times.  ``limit`` truncates to the first N rows (0 = all);
    counter samples are noisy and left out.
    """
    rows: List[Sequence[Cell]] = []
    open_ends: dict = {}  # tid -> stack of span end timestamps
    truncated = 0
    for ev in events:
        if ev.ph == "C":
            continue
        stack = open_ends.setdefault(ev.tid, [])
        while stack and ev.ts_ps >= stack[-1]:
            stack.pop()
        depth = len(stack)
        if ev.ph == "X":
            stack.append(ev.ts_ps + ev.dur_ps)
        if limit and len(rows) >= limit:
            truncated += 1
            continue
        args = ev.args or {}
        arg_text = " ".join(f"{k}={v}" for k, v in args.items() if k not in (
            "ts_ps", "dur_ps", "wall_ns"))
        rows.append(
            (
                format_ps(ev.ts_ps),
                format_ps(ev.dur_ps) if ev.ph == "X" else "-",
                ev.cat,
                "  " * depth + ev.name,
                arg_text,
            )
        )
    if not rows:
        return "(no trace events)"
    table = format_table(["Time", "Duration", "Category", "Event", "Args"], rows)
    if truncated:
        table += f"\n... {truncated} more events (raise the limit to see them)"
    return table
