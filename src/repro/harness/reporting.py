"""Plain-text rendering of result tables and bar charts.

The paper's tables and figures are regenerated as aligned ASCII so the
benchmark harness can print them directly; nothing here affects the
numbers themselves.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Align ``rows`` under ``headers``; floats get two decimals.

    Args:
        headers: Column headings, one per column.
        rows: Cell values; each row must match ``headers`` in length.
        title: Optional line printed above the table.

    Returns:
        The table as newline-joined text (first column left-aligned,
        the rest right-aligned).
    """

    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.2f}"
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append(
            "  ".join(cell.rjust(w) if i else cell.ljust(w) for i, (cell, w) in enumerate(zip(row, widths)))
        )
    return "\n".join(lines)


def format_bar_chart(
    series: Mapping[str, Mapping[str, float]],
    title: str = "",
    width: int = 40,
) -> str:
    """Grouped horizontal bars: ``series[group][label] = value``.

    Args:
        series: Mapping of group name to ``{label: value}`` bars.
        title: Optional line printed above the chart.
        width: Character width of the longest bar.

    Returns:
        The chart as newline-joined text, bars scaled to the peak value
        across all groups.
    """
    peak = max(
        (value for group in series.values() for value in group.values()),
        default=1.0,
    )
    label_width = max(
        (len(label) for group in series.values() for label in group),
        default=4,
    )
    lines = [title] if title else []
    for group_name, group in series.items():
        lines.append(f"{group_name}:")
        for label, value in group.items():
            bar = "#" * max(1, int(round(value / peak * width))) if value > 0 else ""
            lines.append(f"  {label.ljust(label_width)} {value:7.2f} |{bar}")
    return "\n".join(lines)


def format_degradations(result) -> str:
    """Failure/degradation summary of a :class:`ProgramResult`.

    Empty string when every region produced a verified schedule, so
    callers can unconditionally print the return value.
    """
    if getattr(result, "ok", True):
        return ""
    lines = [
        f"WARNING: {result.benchmark} on {result.machine_name} "
        f"({result.scheduler_name}) completed with status "
        f"{result.status!r}:"
    ]
    for region in result.failed_regions:
        lines.append(f"  region {region.region_name}: {region.error}")
    ok_regions = result.n_regions - len(result.failed_regions)
    lines.append(
        f"  {ok_regions}/{result.n_regions} regions have verified schedules; "
        "cycle totals cover those regions only"
    )
    return "\n".join(lines)


def format_metrics(metrics: Optional[Mapping], title: str = "run metrics") -> str:
    """Render a :meth:`MetricsRegistry.snapshot
    <repro.observability.metrics.MetricsRegistry.snapshot>` dict.

    Counters print as ``name = value`` lines; histograms as an aligned
    count/mean/min/max table.

    Args:
        metrics: A snapshot dict with ``counters``/``histograms`` keys,
            or ``None``.
        title: Heading line; pass ``""`` to suppress it.

    Returns:
        The rendered block, or an empty string for ``None`` or an empty
        snapshot so callers can unconditionally print the return value.
    """
    if not metrics:
        return ""
    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})
    if not counters and not histograms:
        return ""
    lines = [title] if title else []
    for name, value in sorted(counters.items()):
        lines.append(f"  {name} = {value}")
    if histograms:
        rows = [
            [name, h["count"], h["mean"], h["min"], h["max"]]
            for name, h in sorted(histograms.items())
        ]
        table = format_table(["histogram", "count", "mean", "min", "max"], rows)
        lines.extend("  " + line for line in table.splitlines())
    return "\n".join(lines)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; 0 for an empty sequence."""
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def arithmetic_mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0 for an empty sequence."""
    return sum(values) / len(values) if values else 0.0
