"""Tests for the List of Clusters index."""

from __future__ import annotations

import numpy as np
import pytest

from repro.index.listclusters import ListOfClusters
from repro.metrics import EuclideanDistance, LevenshteinDistance


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(21)
    return rng.random((300, 3)), rng.random((8, 3))


class TestExactness:
    def test_range_matches_linear(self, vectors, brute_force):
        points, queries = vectors
        metric = EuclideanDistance()
        index = ListOfClusters(points, metric, bucket_size=12,
                               rng=np.random.default_rng(1))
        oracle = brute_force(points, metric)
        for query in queries:
            for radius in (0.05, 0.2, 0.7):
                oracle.check(
                    index.range_query(query, radius),
                    oracle.range(query, radius),
                )

    def test_knn_matches_linear(self, vectors, brute_force):
        points, queries = vectors
        metric = EuclideanDistance()
        index = ListOfClusters(points, metric, bucket_size=12,
                               rng=np.random.default_rng(2))
        oracle = brute_force(points, metric)
        for query in queries:
            for k in (1, 7, 30):
                oracle.check(index.knn_query(query, k), oracle.knn(query, k))

    def test_strings(self, small_words, brute_force):
        metric = LevenshteinDistance()
        index = ListOfClusters(small_words, metric, bucket_size=4,
                               rng=np.random.default_rng(3))
        oracle = brute_force(small_words, metric)
        for query in ("hold", "genes"):
            for radius in (1, 2, 3):
                oracle.check(
                    index.range_query(query, radius),
                    oracle.range(query, radius),
                )

    def test_self_query_radius_zero(self, vectors):
        points, _ = vectors
        index = ListOfClusters(points, EuclideanDistance(),
                               rng=np.random.default_rng(4))
        result = index.range_query(points[42], 0.0)
        assert any(n.index == 42 for n in result)


class TestStructure:
    def test_every_element_in_exactly_one_place(self, vectors):
        points, _ = vectors
        index = ListOfClusters(points, EuclideanDistance(), bucket_size=10,
                               rng=np.random.default_rng(5))
        seen = []
        for cluster in index.clusters:
            seen.append(cluster.center)
            seen.extend(cluster.bucket)
        assert sorted(seen) == list(range(len(points)))

    def test_bucket_radius_is_max_distance(self, vectors):
        points, _ = vectors
        metric = EuclideanDistance()
        index = ListOfClusters(points, metric, bucket_size=10,
                               rng=np.random.default_rng(6))
        for cluster in index.clusters:
            if not cluster.bucket:
                continue
            distances = [
                metric.distance(points[cluster.center], points[i])
                for i in cluster.bucket
            ]
            assert max(distances) == pytest.approx(cluster.radius)

    def test_bucket_size_respected(self, vectors):
        points, _ = vectors
        index = ListOfClusters(points, EuclideanDistance(), bucket_size=7,
                               rng=np.random.default_rng(7))
        assert all(len(c.bucket) <= 7 for c in index.clusters)

    def test_rejects_bad_bucket_size(self, vectors):
        points, _ = vectors
        with pytest.raises(ValueError):
            ListOfClusters(points, EuclideanDistance(), bucket_size=0)

    def test_prunes_on_small_radius(self, vectors):
        points, queries = vectors
        index = ListOfClusters(points, EuclideanDistance(), bucket_size=16,
                               rng=np.random.default_rng(8))
        index.reset_stats()
        for query in queries:
            index.range_query(query, 0.05)
        assert index.stats.distances_per_query < 0.9 * len(points)
