"""Plain-text table rendering for experiment output.

``repro report`` prints each reproduced table/figure as an ASCII
table comparable, row for row, with the paper's charts.
:func:`render_trace_report` turns one telemetry summary (``repro
trace``) into a markdown report.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> str:
    """Render rows as a fixed-width table with a title banner."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [
        f"== {title} ==",
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        sep,
    ]
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def pct(x: float) -> str:
    """Format a speedup ratio as a percent-improvement string."""
    return f"{100.0 * (x - 1.0):+.1f}%"


def _md_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> list[str]:
    """Render a GitHub-flavoured markdown table as a list of lines."""
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(c) for c in row) + " |")
    return lines


def render_trace_report(summary: dict) -> str:
    """Render one telemetry summary (``Telemetry.summary``) as markdown.

    Sections: run header, top-down cycle accounting, prefetch
    usefulness, FDP miss exposure, event histogram.  See
    ``docs/OBSERVABILITY.md`` for how to read each one.
    """
    lines = [
        f"# Trace report: {summary['workload']}",
        "",
        f"- configuration: `{summary['label']}`",
        f"- instructions: {summary['instructions']:,}",
        f"- cycles: {summary['cycles']:,}",
        f"- IPC: {summary['ipc']:.3f}",
        "",
    ]

    accounting = summary.get("cycle_accounting") or {}
    if accounting:
        fractions = summary.get("cycle_accounting_fraction", {})
        lines.append("## Cycle accounting (top-down, sums to total cycles)")
        lines.append("")
        lines += _md_table(
            ["bucket", "cycles", "share"],
            [
                (name, count, f"{100.0 * fractions.get(name, 0.0):.1f}%")
                for name, count in accounting.items()
            ],
        )
        lines.append("")

    prefetch = summary.get("prefetch") or {}
    if prefetch.get("issued"):
        lines.append("## Prefetch usefulness (terminal states, full run)")
        lines.append("")
        lines += _md_table(
            ["state", "count"],
            [
                (name, prefetch[name])
                for name in (
                    "issued",
                    "timely",
                    "late",
                    "unused_evicted",
                    "in_flight_at_end",
                    "resident_untouched_at_end",
                    "redundant_unissued",
                )
            ],
        )
        lines.append("")
        lines.append(
            f"accuracy {100.0 * prefetch['accuracy']:.1f}% | "
            f"coverage {100.0 * prefetch['coverage']:.1f}% | "
            f"timeliness {100.0 * prefetch['timeliness']:.1f}%"
        )
        lines.append("")

    exposure = summary.get("fdp_miss_exposure") or {}
    if any(exposure.values()):
        lines.append("## FDP miss exposure (Fig 14 classification)")
        lines.append("")
        lines += _md_table(["class", "misses"], sorted(exposure.items()))
        lines.append("")

    events = summary.get("events") or {}
    if events:
        lines.append("## Event trace")
        lines.append("")
        lines.append(
            f"{events['emitted']:,} events emitted, {events['retained']:,} retained "
            f"(ring capacity {events['capacity']:,}, {events['dropped']:,} overwritten)"
        )
        lines.append("")
        lines += _md_table(["event", "count"], sorted(events.get("by_kind", {}).items()))
        lines.append("")

    lines.append(f"interval samples: {summary.get('samples', 0)}")
    return "\n".join(lines) + "\n"
