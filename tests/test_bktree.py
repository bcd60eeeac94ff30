"""Tests for the Burkhard–Keller tree."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.dictionaries import synthetic_dictionary
from repro.index import BKTree
from repro.metrics import (
    EuclideanDistance,
    HammingDistance,
    LevenshteinDistance,
    PrefixDistance,
)


@pytest.fixture(scope="module")
def dictionary():
    return synthetic_dictionary("English", 400, np.random.default_rng(0))


@pytest.fixture(scope="module")
def oracle(dictionary, brute_force):
    return brute_force(dictionary, LevenshteinDistance())


class TestExactness:
    def test_range_matches_linear(self, dictionary, oracle):
        tree = BKTree(dictionary, LevenshteinDistance())
        for query in ("hello", "aaa", dictionary[17]):
            for radius in (0, 1, 2, 4):
                oracle.check(
                    tree.range_query(query, radius), oracle.range(query, radius)
                )

    def test_knn_matches_linear(self, dictionary, oracle):
        tree = BKTree(dictionary, LevenshteinDistance())
        for query in ("hello", "zzz"):
            for k in (1, 5, 25):
                oracle.check(tree.knn_query(query, k), oracle.knn(query, k))

    def test_duplicates_handled(self):
        words = ["abc", "abd", "abc", "xyz", "abc"]
        tree = BKTree(words, LevenshteinDistance())
        result = tree.range_query("abc", 0)
        assert {n.index for n in result} == {0, 2, 4}

    def test_prefix_metric_supported(self, brute_force):
        words = ["a", "ab", "abc", "b", "ba"]
        tree = BKTree(words, PrefixDistance())
        oracle = brute_force(words, PrefixDistance())
        for radius in (1, 2, 3):
            oracle.check(
                tree.range_query("ab", radius), oracle.range("ab", radius)
            )

    def test_hamming_metric_supported(self):
        words = ["0000", "0001", "0011", "1111", "1010"]
        tree = BKTree(words, HammingDistance())
        result = tree.range_query("0000", 1)
        assert {n.index for n in result} == {0, 1}


class TestCostAndValidation:
    def test_prunes_versus_linear(self, dictionary, oracle):
        tree = BKTree(dictionary, LevenshteinDistance())
        tree.reset_stats()
        for query in ("hello", "query", "test"):
            tree.range_query(query, 1)
        assert tree.stats.distances_per_query < 0.8 * len(dictionary)

    def test_rejects_continuous_metric(self, rng):
        points = rng.random((10, 2))
        with pytest.raises(ValueError):
            BKTree(list(points), EuclideanDistance())

    def test_build_cost_counted(self, dictionary):
        tree = BKTree(dictionary, LevenshteinDistance())
        # Each insertion walks at least one comparison.
        assert tree.stats.build_distances >= len(dictionary) - 1
