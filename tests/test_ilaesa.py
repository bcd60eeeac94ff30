"""Tests for permutation-ordered LAESA (the paper's iLAESA suggestion)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.index import PivotIndex
from repro.metrics import EuclideanDistance, LevenshteinDistance


@pytest.fixture(scope="module")
def setup(brute_force):
    rng = np.random.default_rng(33)
    points = rng.random((500, 4))
    queries = rng.random((12, 4))
    metric = EuclideanDistance()
    return points, queries, metric, brute_force(points, metric)


class TestExactness:
    def test_knn_matches_linear(self, setup):
        points, queries, metric, oracle = setup
        index = PivotIndex(
            points, metric, n_pivots=10, candidate_order="permutation",
            rng=np.random.default_rng(1),
        )
        for query in queries:
            for k in (1, 5, 20):
                oracle.check(index.knn_query(query, k), oracle.knn(query, k))

    def test_range_unaffected_by_order_option(self, setup):
        points, queries, metric, oracle = setup
        index = PivotIndex(
            points, metric, n_pivots=10, candidate_order="permutation",
            rng=np.random.default_rng(2),
        )
        for query in queries[:4]:
            oracle.check(
                index.range_query(query, 0.3), oracle.range(query, 0.3)
            )

    def test_string_metric(self, brute_force):
        words = ["hello", "help", "held", "word", "world", "ward",
                 "care", "core", "cart", "carp"] * 10
        metric = LevenshteinDistance()
        oracle = brute_force(words, metric)
        index = PivotIndex(
            words, metric, n_pivots=4, candidate_order="permutation",
            rng=np.random.default_rng(3),
        )
        for query in ("hold", "wars"):
            oracle.check(index.knn_query(query, 5), oracle.knn(query, 5))


class TestBehaviour:
    def test_rejects_unknown_order(self, setup):
        points, _, metric, _ = setup
        with pytest.raises(ValueError):
            PivotIndex(points, metric, candidate_order="sideways")

    def test_pivot_permutations_precomputed_free(self, setup):
        """Deriving pivot permutations from the table must add no metric
        evaluations beyond the standard LAESA build."""
        points, _, metric, _ = setup
        classic = PivotIndex(points, metric, n_pivots=8,
                             pivot_strategy="first")
        ordered = PivotIndex(points, metric, n_pivots=8,
                             pivot_strategy="first",
                             candidate_order="permutation")
        assert ordered.stats.build_distances == classic.stats.build_distances

    def test_cost_same_regime_as_classic(self, setup):
        """Permutation ordering loses the sorted-bound early exit but
        gains earlier radius shrinking; both must stay well below a
        linear scan, within 3x of each other."""
        points, queries, metric, _ = setup
        classic = PivotIndex(points, metric, n_pivots=10,
                             rng=np.random.default_rng(4))
        ordered = PivotIndex(points, metric, n_pivots=10,
                             candidate_order="permutation",
                             rng=np.random.default_rng(4))
        for index in (classic, ordered):
            index.reset_stats()
            for query in queries:
                index.knn_query(query, 3)
        assert ordered.stats.distances_per_query < 0.8 * len(points)
        ratio = (ordered.stats.distances_per_query
                 / classic.stats.distances_per_query)
        assert ratio < 3.0
