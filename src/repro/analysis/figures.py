"""ASCII renderings of the paper's figures (bar charts and CDFs)."""

from __future__ import annotations

from typing import List, Sequence, Tuple


def ascii_cdf(
    series: Sequence[Tuple[str, Sequence[float]]],
    points: Sequence[float],
    unit: str = "s",
    title: str = "",
) -> str:
    """Tabulated CDF: one column per series, one row per threshold."""
    from repro.analysis.stats import fraction_at_or_below

    lines: List[str] = []
    if title:
        lines.append(title)
    names = [name for name, _values in series]
    header = "  <= ".rjust(10) + "".join(n.rjust(22) for n in names)
    lines.append(header)
    for point in points:
        row = f"{point:>8.1f}{unit}"
        for _name, values in series:
            frac = fraction_at_or_below(values, point)
            row += f"{frac * 100:>20.1f}%"
        lines.append(row)
    return "\n".join(lines)
