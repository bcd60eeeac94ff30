"""Bench: ablations of two design choices the permutation census rests on.

1. **Tie-breaking**: the paper's ``Π_y`` breaks distance ties by lower
   site index (stable sort).  On tie-heavy discrete metrics, breaking
   ties the other way changes the census — demonstrating the rule is
   load-bearing, not cosmetic.
2. **Site selection**: random sites versus maxmin-spread sites change the
   *measured* census even though the theoretical maximum is fixed.
"""

from __future__ import annotations

import numpy as np
from conftest import write_result

from repro.core.permutation import (
    count_distinct_permutations,
    permutations_from_distances,
)
from repro.datasets.sisap import load_database
from repro.index import DistPermIndex


def _census_with_tiebreak(distances: np.ndarray, reverse: bool) -> int:
    if not reverse:
        perms = permutations_from_distances(distances)
    else:
        # Break ties by *higher* site index instead: stable-sort the
        # reversed columns, then map indices back.
        k = distances.shape[1]
        reversed_perms = np.argsort(distances[:, ::-1], axis=1, kind="stable")
        perms = (k - 1) - reversed_perms
    return count_distinct_permutations(perms)


def test_tiebreak_ablation_on_discrete_metric(benchmark, results_dir):
    def run():
        database = load_database("English", n=1500)
        rng = np.random.default_rng(0)
        site_indices = rng.choice(len(database.points), size=8, replace=False)
        sites = [database.points[int(i)] for i in site_indices]
        distances = database.metric.to_sites(database.points, sites)
        ties = int(
            (np.sort(distances, axis=1)[:, :-1]
             == np.sort(distances, axis=1)[:, 1:]).sum()
        )
        return (
            _census_with_tiebreak(distances, reverse=False),
            _census_with_tiebreak(distances, reverse=True),
            ties,
        )

    lower, higher, ties = benchmark.pedantic(run, rounds=1, iterations=1)
    # Edit distance is massively tie-heavy; the two rules must actually
    # disagree on the census (they partition tie groups differently).
    assert ties > 0
    assert lower != higher
    write_result(
        results_dir,
        "ablation_tiebreak",
        "\n".join(
            [
                "tie-break ablation (English dictionary, k=8, n=1500):",
                f"  adjacent tie pairs in distance rows: {ties}",
                f"  census, lower-index tie-break (paper): {lower}",
                f"  census, higher-index tie-break:        {higher}",
            ]
        ),
    )


def test_tiebreak_irrelevant_on_continuous_metric(benchmark):
    """Control: with continuous distances ties are measure-zero and the
    census is tie-break independent."""

    def run():
        database = load_database("nasa", n=1500)
        rng = np.random.default_rng(1)
        site_indices = rng.choice(len(database.points), size=8, replace=False)
        sites = [database.points[int(i)] for i in site_indices]
        distances = database.metric.to_sites(database.points, sites)
        return (
            _census_with_tiebreak(distances, reverse=False),
            _census_with_tiebreak(distances, reverse=True),
        )

    lower, higher = benchmark.pedantic(run, rounds=1, iterations=1)
    assert lower == higher


def test_site_selection_ablation(benchmark, results_dir):
    def run():
        database = load_database("nasa", n=3000)
        census = {}
        for strategy in ("random", "maxmin", "first"):
            index = DistPermIndex(
                database.points,
                database.metric,
                n_sites=10,
                site_strategy=strategy,
                rng=np.random.default_rng(2),
            )
            census[strategy] = index.unique_permutations()
        return census

    census = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(count > 0 for count in census.values())
    lines = ["site-selection ablation (nasa, k=10, n=3000):"]
    for strategy, count in census.items():
        lines.append(f"  {strategy:>7}: {count} distinct permutations")
    write_result(results_dir, "ablation_site_selection", "\n".join(lines))
