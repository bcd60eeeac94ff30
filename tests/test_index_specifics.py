"""Per-index behaviour beyond the shared exactness contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.permutation import (
    count_distinct_permutations,
    distance_permutations,
)
from repro.index import (
    AESA,
    DistPermIndex,
    IAESA,
    PivotIndex,
    VPTree,
)
from repro.index.pivots import select_pivots
from repro.metrics import EuclideanDistance


@pytest.fixture(scope="module")
def database():
    rng = np.random.default_rng(11)
    return rng.random((400, 4))


@pytest.fixture(scope="module")
def queries():
    return np.random.default_rng(12).random((10, 4))


class TestPivotSelection:
    def test_first_strategy(self, database):
        assert select_pivots(database, EuclideanDistance(), 3, "first") == [0, 1, 2]

    def test_random_strategy_distinct(self, database):
        pivots = select_pivots(
            database, EuclideanDistance(), 10, "random",
            rng=np.random.default_rng(0),
        )
        assert len(set(pivots)) == 10

    def test_maxmin_spreads_pivots(self, database):
        """maxmin pivots should be farther apart than random ones."""
        metric = EuclideanDistance()
        maxmin = select_pivots(
            database, metric, 5, "maxmin", rng=np.random.default_rng(1)
        )
        random = select_pivots(
            database, metric, 5, "random", rng=np.random.default_rng(1)
        )

        def min_gap(indices):
            pts = database[indices]
            gaps = metric.pairwise(pts)
            return gaps[gaps > 0].min()

        assert min_gap(maxmin) >= min_gap(random)

    def test_rejects_bad_arguments(self, database):
        with pytest.raises(ValueError):
            select_pivots(database, EuclideanDistance(), 0)
        with pytest.raises(ValueError):
            select_pivots(database, EuclideanDistance(), 3, "mystery")


class TestSearchCost:
    def test_pivot_index_prunes(self, database, queries):
        """LAESA must evaluate far fewer distances than a linear scan for
        small radii."""
        metric = EuclideanDistance()
        index = PivotIndex(database, metric, n_pivots=12,
                           rng=np.random.default_rng(2))
        index.reset_stats()
        for query in queries:
            index.range_query(query, 0.1)
        assert index.stats.distances_per_query < 0.7 * len(database)

    def test_aesa_cheaper_than_laesa_on_knn(self, database, queries):
        """The storage-for-search trade: AESA's full matrix buys fewer
        evaluations per query than the pivot table."""
        metric = EuclideanDistance()
        aesa = AESA(database, metric)
        laesa = PivotIndex(database, metric, n_pivots=8,
                           rng=np.random.default_rng(3))
        for index in (aesa, laesa):
            index.reset_stats()
            for query in queries:
                index.knn_query(query, 1)
        assert aesa.stats.distances_per_query < laesa.stats.distances_per_query

    def test_aesa_build_cost_is_quadratic(self, database):
        metric = EuclideanDistance()
        aesa = AESA(database[:100], metric)
        assert aesa.stats.build_distances == 100 * 99 // 2

    def test_laesa_build_cost_linear_in_pivots(self, database):
        metric = EuclideanDistance()
        index = PivotIndex(database[:100], metric, n_pivots=4,
                           pivot_strategy="first")
        assert index.stats.build_distances == 100 * 4

    def test_iaesa_competitive_with_aesa(self, database, queries):
        """iAESA's permutation-based pivot choice should be in the same
        cost regime as AESA (the paper reports it beating AESA on average)."""
        metric = EuclideanDistance()
        aesa = AESA(database, metric)
        iaesa = IAESA(database, metric)
        for index in (aesa, iaesa):
            index.reset_stats()
            for query in queries:
                index.knn_query(query, 1)
        assert iaesa.stats.distances_per_query <= 2.0 * aesa.stats.distances_per_query

    def test_vptree_prunes_on_small_radius(self, database, queries):
        metric = EuclideanDistance()
        tree = VPTree(database, metric, rng=np.random.default_rng(4))
        tree.reset_stats()
        for query in queries:
            tree.range_query(query, 0.05)
        assert tree.stats.distances_per_query < 0.9 * len(database)


class TestDistPermIndex:
    def test_census_matches_core_function(self, database):
        metric = EuclideanDistance()
        index = DistPermIndex(database, metric, n_sites=6,
                              rng=np.random.default_rng(5))
        sites = [database[i] for i in index.site_indices]
        perms = distance_permutations(database, sites, metric)
        assert index.unique_permutations() == count_distinct_permutations(perms)

    def test_distinct_set_size_matches_count(self, database):
        index = DistPermIndex(database, EuclideanDistance(), n_sites=5,
                              rng=np.random.default_rng(6))
        assert len(index.distinct_permutation_set()) == index.unique_permutations()

    def test_explicit_sites(self, database):
        index = DistPermIndex(
            database, EuclideanDistance(), site_indices=[0, 10, 20]
        )
        assert index.site_indices == [0, 10, 20]
        assert index.n_sites == 3

    def test_ids_reconstruct_permutations(self, database):
        index = DistPermIndex(database, EuclideanDistance(), n_sites=5,
                              rng=np.random.default_rng(7))
        np.testing.assert_array_equal(
            index.table[index.ids], index.permutations
        )

    def test_storage_report_uses_measured_census(self, database):
        index = DistPermIndex(database, EuclideanDistance(), n_sites=6,
                              rng=np.random.default_rng(8))
        report = index.storage()
        assert report.realized_permutations == index.unique_permutations()
        assert report.n == len(database)

    def test_full_budget_approx_equals_exact(
        self, database, queries, brute_force
    ):
        metric = EuclideanDistance()
        index = DistPermIndex(database, metric, n_sites=8,
                              rng=np.random.default_rng(9))
        oracle = brute_force(database, metric)
        exact = oracle.knn(queries[0], 5)
        oracle.check(index.knn_query(queries[0], 5), exact)
        oracle.check(
            index.knn_approx(queries[0], 5, budget=len(database)), exact
        )

    def test_budget_caps_evaluations(self, database, queries):
        metric = EuclideanDistance()
        index = DistPermIndex(database, metric, n_sites=8,
                              rng=np.random.default_rng(10))
        index.reset_stats()
        index.knn_approx(queries[0], 5, budget=50)
        # 50 candidates + k site distances for the query permutation.
        assert index.stats.query_distances <= 50 + index.n_sites

    def test_candidate_order_puts_nearby_first(self, database, brute_force):
        """The proximity-preserving order: the budgeted prefix should have
        better recall than a random prefix of the same size."""
        metric = EuclideanDistance()
        index = DistPermIndex(database, metric, n_sites=10,
                              rng=np.random.default_rng(11))
        rng = np.random.default_rng(12)
        hits_perm = 0
        hits_random = 0
        budget = 60
        for _ in range(10):
            query = rng.random(4)
            oracle = brute_force(database, metric)
            true_ids = {i for i, _ in oracle.knn(query, 10)}
            order = index.candidate_order(query)[:budget]
            hits_perm += len(true_ids & {int(i) for i in order})
            random_ids = rng.choice(len(database), size=budget, replace=False)
            hits_random += len(true_ids & {int(i) for i in random_ids})
        assert hits_perm > hits_random

    def test_recall_improves_with_budget(self, database, brute_force):
        metric = EuclideanDistance()
        index = DistPermIndex(database, metric, n_sites=10,
                              rng=np.random.default_rng(13))
        oracle = brute_force(database, metric)
        rng = np.random.default_rng(14)
        recalls = []
        for budget in (20, 100, 400):
            hits = 0
            for i in range(8):
                query = rng.random(4)
                truth = {i for i, _ in oracle.knn(query, 5)}
                got = {n.index for n in index.knn_approx(query, 5, budget=budget)}
                hits += len(truth & got)
            recalls.append(hits)
        assert recalls[0] <= recalls[1] <= recalls[2]
        assert recalls[-1] == 8 * 5  # full budget = exact

    def test_rejects_zero_sites(self, database):
        with pytest.raises(ValueError):
            DistPermIndex(database, EuclideanDistance(), n_sites=0)


class TestDistPermAddPoints:
    """Incremental append must equal a fresh build over the same sites."""

    def _assert_equivalent(self, grown, fresh):
        np.testing.assert_array_equal(grown.codes, fresh.codes)
        np.testing.assert_array_equal(grown.table_codes, fresh.table_codes)
        np.testing.assert_array_equal(grown.ids, fresh.ids)
        np.testing.assert_array_equal(grown.table, fresh.table)
        np.testing.assert_array_equal(
            grown._perm_positions, fresh._perm_positions
        )
        assert grown._perm_positions.dtype == fresh._perm_positions.dtype

    def test_vectors_match_fresh_build(self, database):
        old, new = database[:300], database[300:]
        index = DistPermIndex(old, EuclideanDistance(), n_sites=6,
                              rng=np.random.default_rng(21))
        index.add_points(new)
        fresh = DistPermIndex(database, EuclideanDistance(),
                              site_indices=index.site_indices)
        assert len(index.points) == len(database)
        self._assert_equivalent(index, fresh)

    def test_strings_match_fresh_build(self):
        rng = np.random.default_rng(22)
        words = [
            "".join("abcd"[i] for i in rng.integers(0, 4, size=5))
            for _ in range(150)
        ]
        from repro.metrics import LevenshteinDistance

        index = DistPermIndex(words[:100], LevenshteinDistance(), n_sites=4,
                              rng=np.random.default_rng(23))
        index.add_points(words[100:])
        fresh = DistPermIndex(words, LevenshteinDistance(),
                              site_indices=index.site_indices)
        self._assert_equivalent(index, fresh)

    def test_queries_match_fresh_build(self, database, queries):
        index = DistPermIndex(database[:350], EuclideanDistance(), n_sites=6,
                              rng=np.random.default_rng(24))
        index.add_points(database[350:])
        fresh = DistPermIndex(database, EuclideanDistance(),
                              site_indices=index.site_indices)
        grown_rows = index.knn_approx_batch_arrays(queries, 5, budget=60)
        fresh_rows = fresh.knn_approx_batch_arrays(queries, 5, budget=60)
        np.testing.assert_array_equal(grown_rows.distances,
                                      fresh_rows.distances)
        np.testing.assert_array_equal(grown_rows.indices, fresh_rows.indices)
        np.testing.assert_array_equal(grown_rows.offsets, fresh_rows.offsets)
        # New elements are actually findable: query one exactly.
        hit = index.knn_query(database[-1], 1)
        assert hit[0].index == len(database) - 1
        assert hit[0].distance == 0.0

    def test_census_tracks_growth(self, database):
        index = DistPermIndex(database[:200], EuclideanDistance(), n_sites=6,
                              rng=np.random.default_rng(25))
        index.add_points(database[200:])
        fresh = DistPermIndex(database, EuclideanDistance(),
                              site_indices=index.site_indices)
        assert index.unique_permutations() == fresh.unique_permutations()

    def test_insert_cost_charged_to_build(self, database):
        index = DistPermIndex(database[:300], EuclideanDistance(), n_sites=6,
                              rng=np.random.default_rng(26))
        build_before = index.stats.build_distances
        index.add_points(database[300:])
        added = len(database) - 300
        assert (index.stats.build_distances
                == build_before + added * index.n_sites)
        assert index.metric.count == 0  # queries are not polluted

    def test_empty_append_is_noop(self, database):
        index = DistPermIndex(database, EuclideanDistance(), n_sites=6,
                              rng=np.random.default_rng(27))
        codes = index.codes.copy()
        index.add_points(database[:0])
        np.testing.assert_array_equal(index.codes, codes)

    def test_dimension_mismatch_rejected(self, database):
        index = DistPermIndex(database, EuclideanDistance(), n_sites=6,
                              rng=np.random.default_rng(28))
        with pytest.raises(ValueError):
            index.add_points(np.zeros((2, database.shape[1] + 1)))
