"""Experiment harness: run the paper's experiments and print the same
rows/series the evaluation section reports.

Each experiment function in :mod:`repro.bench.figures` returns a typed
result object; the helpers here render them as aligned text tables and
ASCII series so the benchmark runs are self-describing (run the figure
tests with ``-s`` to see them; ``tests/golden/figures.json`` holds a
captured seed-0 run, EXPERIMENTS.md the paper comparison).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from ..sim.metrics import TimeSeries


def write_json_report(result: Dict[str, Any], path: str) -> None:
    """Write a benchmark result dict as stable, diff-friendly JSON (the
    BENCH_*.json convention: indented, sorted keys, trailing newline)."""
    with open(path, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")


@dataclass
class Series:
    """One named line in a time-series or CDF figure."""

    name: str
    points: List[Tuple[float, float]]

    @classmethod
    def from_timeseries(cls, name: str, series: TimeSeries) -> "Series":
        return cls(name, list(series))

    def value_near(self, x: float) -> float:
        if not self.points:
            return 0.0
        best = min(self.points, key=lambda p: abs(p[0] - x))
        return best[1]

    def mean_between(self, x0: float, x1: float) -> float:
        values = [y for x, y in self.points if x0 <= x <= x1]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def max_between(self, x0: float, x1: float) -> float:
        values = [y for x, y in self.points if x0 <= x <= x1]
        return max(values) if values else 0.0


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned text table."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([_fmt(value) for value in row])
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = [title, "-" * len(title)]
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return "%.0f" % value
        if abs(value) >= 1:
            return "%.2f" % value
        return "%.4f" % value
    return str(value)


def format_series(title: str, series_list: Sequence[Series],
                  width: int = 64, height: int = 12) -> str:
    """Render overlapping series as a compact ASCII chart plus summary."""
    lines = [title, "-" * len(title)]
    all_points = [p for s in series_list for p in s.points]
    if not all_points:
        lines.append("(no data)")
        return "\n".join(lines)
    xs = [p[0] for p in all_points]
    ys = [p[1] for p in all_points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = 0.0, max(ys) or 1.0
    grid = [[" "] * width for _ in range(height)]
    marks = "0123456789abcdefghijklmnopqrstuvwxyz"
    for index, series in enumerate(series_list):
        mark = marks[index % len(marks)]
        for x, y in series.points:
            col = 0 if x1 == x0 else int((x - x0) / (x1 - x0) * (width - 1))
            row = 0 if y1 == y0 else int((y - y0) / (y1 - y0) * (height - 1))
            grid[height - 1 - row][col] = mark
    lines.append("y: 0 .. %s" % _fmt(y1))
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append("x: %s .. %s" % (_fmt(x0), _fmt(x1)))
    for index, series in enumerate(series_list):
        mark = marks[index % len(marks)]
        lines.append("  [%s] %s" % (mark, series.name))
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Uniform container for one experiment's output."""

    experiment: str
    tables: List[str] = field(default_factory=list)
    series: Dict[str, Series] = field(default_factory=dict)
    scalars: Dict[str, float] = field(default_factory=dict)

    def add_table(self, title: str, headers: Sequence[str],
                  rows: Sequence[Sequence[object]]) -> None:
        self.tables.append(format_table(title, headers, rows))

    def add_series(self, series: Series) -> None:
        self.series[series.name] = series

    def render(self) -> str:
        sections = ["=== %s ===" % self.experiment]
        sections.extend(self.tables)
        if self.series:
            sections.append(format_series(
                "%s (series)" % self.experiment, list(self.series.values())))
        if self.scalars:
            rows = sorted(self.scalars.items())
            sections.append(format_table("scalars", ("name", "value"), rows))
        return "\n\n".join(sections)

    def show(self) -> None:
        print()
        print(self.render())
