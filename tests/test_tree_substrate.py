"""Tests for the array-backed tree-index substrate.

The four tree indexes (BK, VP, GH, List of Clusters) store their nodes in
flat numpy arrays built with batched metric calls and answer batched
queries level-synchronously.  These tests pin the structural invariants
of the flat layout, the build-cost accounting of the batched builds, the
duplicate-handling of the BK bulk build, and the degenerate shapes
(tie-heavy chains, single-element databases) the iterative builds must
survive.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.dictionaries import synthetic_dictionary
from repro.index import BKTree, GHTree, ListOfClusters, VPTree
from repro.metrics import EuclideanDistance, LevenshteinDistance


def _signature(neighbors):
    return [(n.index, round(n.distance, 9)) for n in neighbors]


@pytest.fixture(scope="module")
def dictionary():
    return synthetic_dictionary("English", 300, np.random.default_rng(7))


class TestFlatLayout:
    def test_bktree_elements_partition_database(self, dictionary):
        tree = BKTree(dictionary, LevenshteinDistance())
        assert sorted(tree._element.tolist()) == list(range(len(dictionary)))
        # CSR offsets are monotone and cover every child exactly once.
        assert tree._child_offsets[0] == 0
        assert tree._child_offsets[-1] == tree._child_nodes.shape[0]
        assert (np.diff(tree._child_offsets) >= 0).all()
        # Every non-root node is someone's child exactly once.
        assert sorted(tree._child_nodes.tolist()) == list(
            range(1, tree._element.shape[0])
        )

    def test_bktree_child_buckets_sorted_and_unique(self, dictionary):
        tree = BKTree(dictionary, LevenshteinDistance())
        for node in range(tree._element.shape[0]):
            start = int(tree._child_offsets[node])
            stop = int(tree._child_offsets[node + 1])
            buckets = tree._child_buckets[start:stop].tolist()
            assert buckets == sorted(buckets)
            assert len(buckets) == len(set(buckets))

    def test_vptree_vantages_partition_database(self, dictionary):
        tree = VPTree(
            dictionary, LevenshteinDistance(), rng=np.random.default_rng(1)
        )
        assert sorted(tree._vantage.tolist()) == list(range(len(dictionary)))
        internal = tree._inside >= 0
        # Inside children hold points within the stored ball radius.
        assert (tree._radius[internal] >= 0).all()

    def test_ghtree_centers_partition_database(self, dictionary):
        tree = GHTree(
            dictionary, LevenshteinDistance(), rng=np.random.default_rng(2)
        )
        seen = tree._center_a.tolist() + [
            int(b) for b in tree._center_b if b >= 0
        ]
        assert sorted(seen) == list(range(len(dictionary)))

    def test_listclusters_views_match_flat_arrays(self, dictionary):
        index = ListOfClusters(
            dictionary, LevenshteinDistance(), bucket_size=8,
            rng=np.random.default_rng(3),
        )
        views = index.clusters
        assert len(views) == index._centers.shape[0]
        seen = []
        for view in views:
            seen.append(view.center)
            seen.extend(view.bucket)
            assert len(view.bucket) == len(view.bucket_distances)
            if view.bucket_distances:
                assert max(view.bucket_distances) == pytest.approx(view.radius)
        assert sorted(seen) == list(range(len(dictionary)))


class TestBatchedBuildCost:
    """The bulk builds must charge exactly the classic per-pair counts."""

    def test_bktree_counts_one_distance_per_ancestor(self, dictionary):
        tree = BKTree(dictionary, LevenshteinDistance())
        # Each point is compared once against every ancestor element:
        # per node, |point set| - 1 evaluations.
        parent = np.full(tree._element.shape[0], -1, dtype=np.int64)
        for node in range(tree._element.shape[0]):
            start = int(tree._child_offsets[node])
            stop = int(tree._child_offsets[node + 1])
            parent[tree._child_nodes[start:stop]] = node
        expected = 0
        for node in range(tree._element.shape[0]):
            depth = 0
            walk = int(parent[node])
            while walk >= 0:
                depth += 1
                walk = int(parent[walk])
            expected += depth
        assert tree.stats.build_distances == expected

    def test_ghtree_counts_two_rows_per_node(self, dictionary):
        tree = GHTree(
            dictionary, LevenshteinDistance(), rng=np.random.default_rng(4)
        )
        # Every point that is not a centre of its node costs two
        # evaluations at that node; summing over nodes gives the total.
        assert tree.stats.build_distances > 0
        assert tree.stats.build_distances % 2 == 0

    def test_listclusters_counts_match_greedy_scan(self):
        rng = np.random.default_rng(5)
        points = rng.random((60, 3))
        index = ListOfClusters(
            points, EuclideanDistance(), bucket_size=8,
            rng=np.random.default_rng(6),
        )
        # Replay the greedy recurrence: each round evaluates the
        # remaining set once to pick the farthest center and once to
        # rank the bucket.
        expected = 0
        remaining = len(points)
        first = True
        while remaining:
            if not first:
                expected += remaining  # farthest-from-previous selection
            first = False
            remaining -= 1  # the center leaves the pool
            if remaining == 0:
                break
            expected += remaining  # bucket ranking
            remaining -= min(index.bucket_size, remaining)
        assert index.stats.build_distances == expected


class TestDegenerateShapes:
    def test_vptree_survives_all_equal_points(self):
        # Every pairwise distance is zero: the median split degenerates
        # into a chain as long as the database, which the iterative
        # build must absorb without recursion limits.
        words = ["same"] * 300
        tree = VPTree(
            words, LevenshteinDistance(), rng=np.random.default_rng(8)
        )
        result = tree.range_query("same", 0)
        assert {n.index for n in result} == set(range(300))
        assert all(n.distance == 0.0 for n in result)

    def test_single_element_database(self):
        for factory in (
            lambda: BKTree(["one"], LevenshteinDistance()),
            lambda: VPTree(["one"], LevenshteinDistance()),
            lambda: GHTree(["one"], LevenshteinDistance()),
            lambda: ListOfClusters(["one"], LevenshteinDistance()),
        ):
            index = factory()
            assert _signature(index.knn_query("one", 3)) == [(0, 0.0)]
            assert _signature(index.range_batch(["on", "x"], 2)[0]) == [
                (0, 1.0)
            ]
            assert _signature(index.range_query("on", 2)) == [(0, 1.0)]


class TestBKTreeDuplicates:
    """Duplicate elements bucket at distance 0 into a chain; every copy
    must come back from range and kNN queries on both query surfaces."""

    WORDS = ["abc", "abd", "abc", "xyz", "abc", "abcd", "abc"]

    def test_distance_zero_chain(self):
        tree = BKTree(self.WORDS, LevenshteinDistance())
        copies = [i for i, w in enumerate(self.WORDS) if w == "abc"]
        # The duplicates form a chain under bucket 0: each one's node has
        # at most one distance-0 child and they are all reachable.
        chain = []
        node = 0  # the root holds the first "abc"
        while True:
            chain.append(int(tree._element[node]))
            start = int(tree._child_offsets[node])
            stop = int(tree._child_offsets[node + 1])
            zero = [
                int(tree._child_nodes[s])
                for s in range(start, stop)
                if tree._child_buckets[s] == 0
            ]
            assert len(zero) <= 1
            if not zero:
                break
            node = zero[0]
        assert chain == copies

    def test_duplicates_returned_from_all_query_surfaces(self, brute_force):
        tree = BKTree(self.WORDS, LevenshteinDistance())
        oracle = brute_force(self.WORDS, LevenshteinDistance())
        copies = {i for i, w in enumerate(self.WORDS) if w == "abc"}

        ranged = tree.range_query("abc", 0)
        assert {n.index for n in ranged} == copies
        oracle.check(ranged, oracle.range("abc", 0))

        knn = tree.knn_query("abc", len(copies))
        oracle.check(knn, oracle.knn("abc", len(copies)))
        assert {n.index for n in knn} == copies

        oracle.check(tree.range_batch(["abc"], 0)[0], oracle.range("abc", 0))
        oracle.check(
            tree.knn_batch(["abc"], len(copies))[0],
            oracle.knn("abc", len(copies)),
        )

    def test_duplicate_heavy_dictionary(self, brute_force):
        rng = np.random.default_rng(9)
        base = synthetic_dictionary("English", 40, rng)
        words = [w for w in base for _ in range(3)]  # every word 3 times
        tree = BKTree(words, LevenshteinDistance())
        oracle = brute_force(words, LevenshteinDistance())
        for query in (words[0], "zzz", "the"):
            for radius in (0, 1, 2):
                oracle.check(
                    tree.range_query(query, radius), oracle.range(query, radius)
                )
            oracle.check(tree.knn_query(query, 9), oracle.knn(query, 9))


class TestLargerBatchEquivalence:
    """A bigger randomized workload than the fixed equivalence suite:
    batched and looped single-query answers must equal the brute-force
    oracle, with the same evaluation accounts, on a duplicate-carrying
    dictionary."""

    def test_all_trees_on_duplicated_dictionary(self, brute_force):
        rng = np.random.default_rng(10)
        words = synthetic_dictionary("English", 250, rng)
        words = words + words[:50]  # 50 duplicates
        queries = [words[3], "query", "aa", words[100], "zzzzzz"]
        metric = LevenshteinDistance
        factories = [
            lambda pts, m: BKTree(pts, m),
            lambda pts, m: VPTree(pts, m, rng=np.random.default_rng(11)),
            lambda pts, m: GHTree(pts, m, rng=np.random.default_rng(12)),
            lambda pts, m: ListOfClusters(
                pts, m, bucket_size=8, rng=np.random.default_rng(13)
            ),
        ]
        oracle = brute_force(words, metric())
        for factory in factories:
            index = factory(words, metric())
            index.reset_stats()
            looped = [index.knn_query(q, 12) for q in queries]
            looped_stats = (index.stats.queries, index.stats.query_distances)
            index.reset_stats()
            batched = index.knn_batch(queries, 12)
            batched_stats = (index.stats.queries, index.stats.query_distances)
            for query, single, batch in zip(queries, looped, batched):
                oracle.check(single, oracle.knn(query, 12))
                oracle.check(batch, oracle.knn(query, 12))
            assert batched_stats == looped_stats

            index.reset_stats()
            looped_r = [index.range_query(q, 2) for q in queries]
            looped_stats = (index.stats.queries, index.stats.query_distances)
            index.reset_stats()
            batched_r = index.range_batch(queries, 2)
            batched_stats = (index.stats.queries, index.stats.query_distances)
            for query, single, batch in zip(queries, looped_r, batched_r):
                oracle.check(single, oracle.range(query, 2))
                oracle.check(batch, oracle.range(query, 2))
            assert batched_stats == looped_stats
