"""ASCII reporting in the shape the paper presents its results."""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

__all__ = [
    "format_table",
    "format_series_table",
    "format_comparison",
]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width ASCII table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, header has {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(separator)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series_table(
    series: Mapping[str, Sequence[float]],
    index_name: str = "step",
    title: Optional[str] = None,
) -> str:
    """Render several equal-length series as columns keyed by step.

    This is the textual form of a paper figure: one row per x-value, one
    column per plotted line.
    """
    names = list(series)
    if not names:
        raise ValueError("no series given")
    lengths = {len(series[name]) for name in names}
    if len(lengths) != 1:
        raise ValueError(f"series lengths differ: {sorted(lengths)}")
    (length,) = lengths
    headers = [index_name, *names]
    rows = [
        [step, *[series[name][step] for name in names]]
        for step in range(length)
    ]
    return format_table(headers, rows, title=title)


def format_comparison(
    results: Mapping[str, Mapping[str, object]],
    metric: str = "mean_response_time",
    title: Optional[str] = None,
) -> str:
    """Summarise a {scenario: {allocator: EvalResult}} comparison.

    ``metric`` is the name of a zero-argument EvalResult method.
    """
    scenarios = list(results)
    if not scenarios:
        raise ValueError("no scenarios given")
    allocators = list(results[scenarios[0]])
    headers = ["scenario", *allocators]
    rows = []
    for scenario in scenarios:
        row: List = [scenario]
        for allocator in allocators:
            result = results[scenario][allocator]
            row.append(getattr(result, metric)())
        rows.append(row)
    return format_table(headers, rows, title=title)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
