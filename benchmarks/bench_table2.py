"""Bench: regenerate Table 2 — permutation census of the sample databases.

Runs the full census over all twelve synthetic SISAP analogues (scaled
sizes: the sample databases are not redistributable, and the generators
in :mod:`repro.datasets` keep each one's metric and distance
distribution, which is what the census depends on) and checks the
paper's qualitative findings:
dictionaries saturate k! at small k, listeria / colors / long realize far
fewer permutations, and `long` stays well below its point count.
"""

from __future__ import annotations

import math

from conftest import write_result

from repro.datasets.sisap import DATABASE_NAMES
from repro.experiments.table2 import format_table2, table2_rows

DICTIONARIES = (
    "Dutch", "English", "French", "German", "Italian", "Norwegian", "Spanish"
)
SMALL_FAMILIES = ("listeria", "long", "colors")


def test_table2_full_census(benchmark, results_dir):
    rows = benchmark.pedantic(table2_rows, rounds=1, iterations=1)
    by_name = {row.name: row for row in rows}
    assert set(by_name) == set(DATABASE_NAMES)

    # Shape criterion 1: dictionaries behave high-dimensionally — k = 3
    # saturates at 3! = 6, k = 4 sits at or near 4! = 24, and k = 5 is a
    # large fraction of 5! (the paper's full-size databases reach 118-120
    # of 120; at analogue scale a single site draw can miss a few cells).
    for name in DICTIONARIES:
        row = by_name[name]
        assert row.counts[3] == 6, name
        assert row.counts[4] >= 20, name
        assert row.counts[5] >= 75, name
    assert max(by_name[n].counts[4] for n in DICTIONARIES) == 24
    assert max(by_name[n].counts[5] for n in DICTIONARIES) >= 100

    # Shape criterion 2: the small families realize far fewer
    # permutations than the dictionaries at every k.
    for k in (6, 8, 12):
        dictionary_floor = min(by_name[n].counts[k] for n in DICTIONARIES)
        for name in SMALL_FAMILIES:
            assert by_name[name].counts[k] < dictionary_floor, (name, k)

    # Shape criterion 3: `long` realizes far fewer permutations than it
    # has points, even though n << sqrt(12!) would predict no collisions
    # (the paper's headline observation).
    long_row = by_name["long"]
    assert long_row.n == 1265
    assert long_row.counts[12] < long_row.n / 2
    assert long_row.n < math.sqrt(math.factorial(12))

    # Shape criterion 4: listeria and colors have low rho, short has a
    # very large one (paper: 0.894, 2.745, 808.7).
    assert by_name["listeria"].rho < 3.0
    assert by_name["colors"].rho < 4.0
    assert by_name["short"].rho > 30.0

    lines = [format_table2(rows), "", "paper values for comparison:"]
    header = ["Database", "paper n", "paper rho"] + [
        f"k={k}" for k in range(3, 13)
    ]
    lines.append("  ".join(h.rjust(9) for h in header))
    for row in rows:
        cells = [row.name, str(row.paper_n), f"{row.paper_rho:.3f}"] + [
            str(row.paper_counts[k]) for k in range(3, 13)
        ]
        lines.append("  ".join(c.rjust(9) for c in cells))
    write_result(results_dir, "table2", "\n".join(lines))


def test_table2_single_database_census_speed(benchmark):
    """Benchmark the census kernel on one vector database."""
    rows = benchmark.pedantic(
        lambda: table2_rows(names=["nasa"], n=2000, rho_pairs=500),
        rounds=1,
        iterations=1,
    )
    assert rows[0].counts[12] >= rows[0].counts[3]
