"""Plain-text rendering of experiment results.

The paper reports line charts (Figs. 4-7); without a plotting dependency
we print the same data as aligned series tables, one row per engine, one
column per query distance — the rows a plot would draw.  Helpers also
emit markdown for EXPERIMENTS.md.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from .harness import RunRecord

__all__ = ["series_table", "records_to_series"]


def records_to_series(records: Iterable[RunRecord],
                      value: str = "modeled_seconds"
                      ) -> tuple[list[float], dict[str, list[float]]]:
    """Pivot records into ``(d_values, {engine: series})``."""
    by_engine: dict[str, dict[float, float]] = defaultdict(dict)
    d_set: set[float] = set()
    for rec in records:
        by_engine[rec.engine][rec.d] = float(getattr(rec, value))
        d_set.add(rec.d)
    d_values = sorted(d_set)
    series = {eng: [vals.get(d, float("nan")) for d in d_values]
              for eng, vals in by_engine.items()}
    return d_values, series


def _fmt(x: float) -> str:
    if x != x:  # NaN
        return "-"
    if x == 0:
        return "0"
    if abs(x) >= 100:
        return f"{x:.0f}"
    if abs(x) >= 1:
        return f"{x:.2f}"
    return f"{x:.4f}"


def series_table(title: str, d_values: Sequence[float],
                 series: dict[str, Sequence[float]],
                 *, unit: str = "s") -> str:
    """Render a response-time-vs-d table (stand-in for a line chart)."""
    name_w = max([len(k) for k in series] + [8])
    col_w = max(max(len(_fmt(v)) for v in [*vals, d])
                for d, vals in zip(d_values,
                                   zip(*series.values()) if series
                                   else [[]] * len(d_values))) + 2 \
        if series else 8
    col_w = max(col_w, 8)
    lines = [title, "=" * len(title)]
    header = f"{'d':>{name_w}} |" + "".join(
        f"{_fmt(d):>{col_w}}" for d in d_values)
    lines.append(header)
    lines.append("-" * len(header))
    for eng in sorted(series):
        row = f"{eng:>{name_w}} |" + "".join(
            f"{_fmt(v):>{col_w}}" for v in series[eng])
        lines.append(row + f"  [{unit}]")
    return "\n".join(lines)
