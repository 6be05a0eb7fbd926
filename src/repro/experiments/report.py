"""ASCII rendering for experiment outputs (tables and series).

The benchmark harness prints the same rows/series the paper's figures and
tables report; these helpers keep that output consistent and readable.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str = ""
) -> str:
    """Fixed-width table with a rule under the header."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(cells[0], widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Sequence[float]],
    x_values: Sequence | None = None,
    title: str = "",
    x_label: str = "iteration",
    precision: int = 3,
) -> str:
    """Tabulate several named series against a shared x axis."""
    names = list(series)
    length = max(len(s) for s in series.values())
    xs = list(x_values) if x_values is not None else list(range(1, length + 1))
    headers = [x_label, *names]
    rows = []
    for i in range(length):
        row = [xs[i]]
        for name in names:
            values = series[name]
            row.append(round(values[i], precision) if i < len(values) else "")
        rows.append(row)
    return format_table(headers, rows, title=title)
