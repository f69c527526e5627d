"""EXPERIMENTS.md's measured tables agree with the figure golden.

The Fig. 8(a), Fig. 8(c)/(d) and Fig. 9 tables are typed by hand. Every
cell must read as its scalar in ``tests/golden/figures.json`` rounded
the way the table prints it, so a change that moves a figure number
fails here until the table is updated with the golden.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "figures.json")
                    .read_text(encoding="utf-8"))
DOC = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")


def _section(heading):
    """The text of the ``## heading`` section."""
    parts = DOC.split("\n## %s\n" % heading)
    assert len(parts) == 2, "EXPERIMENTS.md has no section %r" % heading
    return parts[1].split("\n## ", 1)[0]


def _cells(heading):
    """``(row label, column header, cell)`` for every body cell of the
    section's Markdown table."""
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in _section(heading).splitlines()
            if line.startswith("|")]
    header, body = rows[0], rows[2:]
    return [(row[0], column, cell)
            for row in body for column, cell in zip(header[1:], row[1:])]


def _count(value):
    """Tuples/s as the tables print them, in space-separated thousands."""
    return "{:,.0f}".format(value).replace(",", " ")


def _fig8a(row, column):
    match = re.fullmatch(r"TYPHOON\((\d+)\)", column)
    system = "typhoon" + match.group(1) if match else column.lower()
    return "fig8a", "%s_%s" % (system, row.lower()), _count


def _fig8cd(row, column):
    match = re.fullmatch(r"TY\((\d+)\)", column)
    system = "typhoon(%s)" % match.group(1) if match else column.lower()
    figure = {"local": "fig8c", "remote": "fig8d"}[row]
    return figure, "%s_p50_ms" % system, "{:.2f}".format


def _fig9(row, column):
    return "fig9", "%s_local_%s" % (row.lower(), column), _count


TABLES = {
    "Fig. 8(a) — tuple forwarding throughput (no acker)": _fig8a,
    "Fig. 8(c)/(d) — end-to-end latency CDFs": _fig8cd,
    "Fig. 9 — one-to-many (broadcast) throughput": _fig9,
}


@pytest.mark.parametrize("heading", sorted(TABLES))
def test_table_cells_match_the_figure_golden(heading):
    cells = _cells(heading)
    assert len(cells) == 10
    for row, column, cell in cells:
        figure, key, show = TABLES[heading](row, column)
        assert cell == show(GOLDEN[figure][key]), (
            "%s, %s / %s: EXPERIMENTS.md reads %s, the golden %s[%r] "
            "prints as %s" % (heading, row, column, cell, figure, key,
                              show(GOLDEN[figure][key])))


def test_fig9_remote_note_matches_the_figure_golden():
    """The Fig. 9 table prints LOCAL; its note names the one REMOTE
    cell that differs."""
    fig9 = GOLDEN["fig9"]
    differ = {key.replace("_remote_", "_local_") for key in fig9
              if "_remote_" in key
              and fig9[key] != fig9[key.replace("_remote_", "_local_")]}
    assert differ == {"storm_local_4"}
    note = "REMOTE differs only in\nSTORM k=4, %s;" % _count(
        fig9["storm_remote_4"])
    assert note in _section("Fig. 9 — one-to-many (broadcast) throughput")
