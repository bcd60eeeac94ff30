"""The columnar result plane: arrays == Neighbor lists, everywhere.

ISSUE 8's tentpole replaced the internal ``list[Neighbor]`` result plane
with :class:`~repro.index.base.NeighborArrays` columns end to end —
index kernels, the sharded column merge, and the resident worker wire.
The public API is a thin boundary view over the columns, so the binding
contract is entry-for-entry equality: for every index, metric, and
operation, the ``*_batch_arrays`` columns must decode to exactly the
``Neighbor`` lists the public API returns, and the looped single-query
API and the batch rows both equal the brute-force oracle.  On top of
that, this module pins the sharded merge's ``(distance, index)``
tie-break order, the global-footrule budget split (including its
degrade-mode budget redistribution, checked against the committed
``BENCH_resilience.json`` curve), the resident build path, and the
``reply_bytes`` observability of the array-reply IPC format.
"""

from __future__ import annotations

import json
import pickle
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.index import (
    AESA,
    BKTree,
    DistPermIndex,
    GHTree,
    IAESA,
    LinearScan,
    ListOfClusters,
    PivotIndex,
    ShardedIndex,
    VPTree,
)
from repro.index.base import NeighborArrays
from repro.metrics import EuclideanDistance, LevenshteinDistance
from repro.parallel.faults import FaultSpec
from repro.parallel.workerpool import QueryPolicy

REPO_ROOT = Path(__file__).resolve().parent.parent

INDEX_FACTORIES = {
    "linear": lambda pts, m: LinearScan(pts, m),
    "pivots": lambda pts, m: PivotIndex(
        pts, m, n_pivots=6, rng=np.random.default_rng(1)
    ),
    "aesa": lambda pts, m: AESA(pts, m),
    "iaesa": lambda pts, m: IAESA(pts, m),
    "distperm": lambda pts, m: DistPermIndex(
        pts, m, n_sites=6, rng=np.random.default_rng(2)
    ),
    "vptree": lambda pts, m: VPTree(pts, m, rng=np.random.default_rng(3)),
    "bktree": lambda pts, m: BKTree(pts, m),
    "ghtree": lambda pts, m: GHTree(pts, m, rng=np.random.default_rng(4)),
    "listclusters": lambda pts, m: ListOfClusters(
        pts, m, bucket_size=12, rng=np.random.default_rng(5)
    ),
}


def _signature(neighbors):
    return [(n.index, round(n.distance, 9)) for n in neighbors]


@pytest.fixture(scope="module")
def vector_setup():
    rng = np.random.default_rng(88)
    points = rng.random((150, 3))
    queries = rng.random((7, 3))
    return points, queries, EuclideanDistance


@pytest.fixture(scope="module")
def string_setup():
    rng = np.random.default_rng(89)
    letters = "abc"
    words = list({
        "".join(letters[i] for i in rng.integers(0, 3, size=rng.integers(2, 7)))
        for _ in range(140)
    })
    queries = ["ab", "cba", "aaaa", "bc"]
    return words, queries, LevenshteinDistance


def _assert_well_formed(rows: NeighborArrays, n_queries: int):
    assert rows.distances.dtype == np.float64
    assert rows.indices.dtype == np.int64
    assert rows.offsets.dtype == np.int64
    assert rows.offsets.shape == (n_queries + 1,)
    assert rows.offsets[0] == 0
    assert rows.offsets[-1] == rows.indices.shape[0]
    assert rows.distances.shape == rows.indices.shape
    assert np.all(np.diff(rows.offsets) >= 0)


def _approx_expected(index, oracle, query, k, budget):
    """Budgeted kNN by brute force over the candidate-order prefix
    (the permutation index); every other index is exact."""
    if not isinstance(index, DistPermIndex):
        return oracle.knn(query, k)
    budget = max(k, min(budget, len(index)))
    return oracle.knn(query, k, candidates=index.candidate_order(query)[:budget])


def _assert_arrays_match_lists(index, oracle, queries, *, k, radius, budget):
    """Columns and public lists agree entry for entry; lists and looped
    singles equal the brute-force oracle."""
    cases = [
        (
            index.knn_batch_arrays(queries, k),
            index.knn_batch(queries, k),
            lambda q: index.knn_query(q, k),
            lambda q: oracle.knn(q, k),
        ),
        (
            index.range_batch_arrays(queries, radius),
            index.range_batch(queries, radius),
            lambda q: index.range_query(q, radius),
            lambda q: oracle.range(q, radius),
        ),
        (
            index.knn_approx_batch_arrays(queries, k, budget=budget),
            index.knn_approx_batch(queries, k, budget=budget),
            lambda q: index.knn_approx(q, k, budget=budget),
            lambda q: _approx_expected(index, oracle, q, k, budget),
        ),
    ]
    for rows, lists, single, expected in cases:
        _assert_well_formed(rows, len(queries))
        assert len(lists) == len(queries)
        for q, (query, row) in enumerate(zip(queries, lists)):
            assert _signature(rows.row_list(q)) == _signature(row)
            want = expected(query)
            oracle.check(row, want)
            oracle.check(single(query), want)


@pytest.mark.parametrize("name", INDEX_FACTORIES)
class TestArraysMatchLists:
    """The property grid: every index x metric x op, single + batch."""

    def test_vector_metric(self, name, vector_setup, brute_force):
        if name == "bktree":
            pytest.skip("BKTree requires an integer-valued metric")
        points, queries, metric_cls = vector_setup
        index = INDEX_FACTORIES[name](points, metric_cls())
        _assert_arrays_match_lists(
            index, brute_force(points, metric_cls()), queries,
            k=6, radius=0.35, budget=40,
        )

    def test_string_metric(self, name, string_setup, brute_force):
        words, queries, metric_cls = string_setup
        index = INDEX_FACTORIES[name](words, metric_cls())
        _assert_arrays_match_lists(
            index, brute_force(words, metric_cls()), queries,
            k=8, radius=2, budget=40,
        )


class TestShardedMergeTieBreak:
    """The vectorized column merge keeps global (distance, index) order.

    Levenshtein over short words is tie-saturated: most merged rows mix
    equal distances contributed by different shards, so any merge that
    loses the global ``(distance, index)`` lexicographic order — e.g.
    by leaving results shard-major within an equal-distance run — fails
    against the unsharded answer.
    """

    @staticmethod
    def _setup():
        rng = np.random.default_rng(90)
        letters = "ab"
        words = [
            "".join(letters[i] for i in rng.integers(0, 2, size=n))
            for n in rng.integers(2, 6, size=160)
        ]
        queries = ["ab", "ba", "aabb", "b"]
        return words, queries

    def test_matches_unsharded_under_heavy_ties(self):
        words, queries = self._setup()
        metric = LevenshteinDistance()
        reference = LinearScan(words, metric)
        with ShardedIndex(
            words, metric, LinearScan, n_shards=4, workers=None
        ) as sharded:
            for k in (1, 5, 20):
                assert _signature_rows(
                    sharded.knn_batch(queries, k)
                ) == _signature_rows(reference.knn_batch(queries, k))
            assert _signature_rows(
                sharded.range_batch(queries, 2)
            ) == _signature_rows(reference.range_batch(queries, 2))

    def test_equal_distance_runs_sorted_by_global_index(self):
        words, queries = self._setup()
        metric = LevenshteinDistance()
        with ShardedIndex(
            words, metric, LinearScan, n_shards=4, workers=None
        ) as sharded:
            rows = sharded.knn_batch(queries, 25)
        saw_cross_shard_tie = False
        shard_size = (len(words) + 3) // 4
        for row in rows:
            for a, b in zip(row, row[1:]):
                assert (a.distance, a.index) < (b.distance, b.index)
                if a.distance == b.distance and (
                    a.index // shard_size != b.index // shard_size
                ):
                    saw_cross_shard_tie = True
        assert saw_cross_shard_tie, "setup no longer exercises the merge"


def _signature_rows(rows):
    return [_signature(row) for row in rows]


@pytest.fixture(scope="module")
def split_setup():
    rng = np.random.default_rng(91)
    letters = "abcde"
    words = list({
        "".join(letters[i] for i in rng.integers(0, 5, size=rng.integers(3, 9)))
        for _ in range(600)
    })
    picks = rng.choice(len(words), size=30, replace=False)
    queries = [words[int(i)] for i in picks]
    return words, queries


class TestGlobalBudgetSplit:
    """The global-footrule budget split: selection, errors, determinism."""

    INNER = staticmethod(
        partial(DistPermIndex, n_sites=8, site_strategy="first")
    )

    def test_auto_selects_global_for_distperm(self, split_setup):
        words, _ = split_setup
        with ShardedIndex(
            words, LevenshteinDistance(), self.INNER, n_shards=3,
            workers=None,
        ) as index:
            assert index._budget_split == "auto"
            assert index._use_global_split(50)
            assert not index._use_global_split(None)

    def test_explicit_global_without_footrules_raises(self, split_setup):
        words, _ = split_setup
        with pytest.raises(TypeError, match="footrule"):
            ShardedIndex(
                words, LevenshteinDistance(), LinearScan, n_shards=3,
                workers=None, budget_split="global",
            )

    def test_unknown_split_rejected(self, split_setup):
        words, _ = split_setup
        with pytest.raises(ValueError, match="budget_split"):
            ShardedIndex(
                words, LevenshteinDistance(), self.INNER, n_shards=3,
                workers=None, budget_split="sideways",
            )

    def test_global_allocation_sums_to_budget(self, split_setup):
        """The merged ranking hands out exactly ``budget`` candidate
        slots per query, split across the shards."""
        words, queries = split_setup
        budget = 60
        with ShardedIndex(
            words, LevenshteinDistance(), self.INNER, n_shards=3,
            workers=None, budget_split="global",
        ) as index:
            footrules = [
                shard.query_footrules(queries, budget)
                for shard in index.shards
            ]
            allocations = index._allocate_budget(
                footrules, [0, 1, 2], budget, len(queries)
            )
            total = sum(allocations.values())
            assert np.all(total == budget)
            # The signal is live: not every query splits evenly.
            stacked = np.stack([allocations[s] for s in (0, 1, 2)])
            assert np.any(stacked != budget // 3)

    def test_serial_and_resident_agree(self, split_setup):
        words, queries = split_setup
        metric = LevenshteinDistance()
        with ShardedIndex(
            words, metric, self.INNER, n_shards=3, workers=None,
            budget_split="global",
        ) as serial:
            expected = _signature_rows(
                serial.knn_approx_batch(queries, 5, budget=80)
            )
        with ShardedIndex(
            words, metric, self.INNER, n_shards=3, workers=2,
            resident=True, budget_split="global",
        ) as resident:
            got = _signature_rows(
                resident.knn_approx_batch(queries, 5, budget=80)
            )
        assert got == expected

    def test_per_query_budget_arrays_rejected(self, split_setup):
        words, queries = split_setup
        with ShardedIndex(
            words, LevenshteinDistance(), self.INNER, n_shards=3,
            workers=None,
        ) as index:
            with pytest.raises(TypeError, match="per-query budget"):
                index.knn_approx_batch(
                    queries, 5, budget=np.full(len(queries), 20)
                )


class TestDegradeBudgetRedistribution:
    """Losing a shard redistributes its budget share under the global split.

    The committed ``BENCH_resilience.json`` curve was measured with the
    proportional split, where a dead shard's budget share is simply
    gone: the degraded answer retains only ~0.49-0.59 of full recall.
    The global split re-ranks over the surviving shards' footrules, so
    the whole budget is spent on live candidates and degraded recall
    must beat the unredistributed baseline (a proportional split over
    the same surviving shards at the same total budget).
    """

    #: The degraded recall measured before budget redistribution
    #: (proportional split, PR 7's committed BENCH_resilience.json):
    #: a dead shard's budget share was simply lost, so the degraded
    #: fraction decayed from 0.59 to 0.49 of full recall as budget grew.
    PROPORTIONAL_DEGRADED = {
        100: 0.110, 250: 0.1428, 500: 0.1822, 1000: 0.2394, 2000: 0.3142,
    }

    def test_committed_curve_beats_unredistributed_baseline(self):
        committed = json.loads(
            (REPO_ROOT / "BENCH_resilience.json").read_text()
        )
        curve = committed["degraded_recall_curve"]
        assert [p["budget"] for p in curve] == [100, 250, 500, 1000, 2000]
        for point in curve:
            baseline = self.PROPORTIONAL_DEGRADED[point["budget"]]
            assert point["recall_degraded"] > baseline
            # Redistribution also stops the fraction's decay with
            # budget (it fell to 0.4874 at budget 2000 without it).
            assert point["degraded_fraction"] >= 0.5

    def test_redistribution_beats_unredistributed_baseline(self, split_setup):
        words, queries = split_setup
        metric = LevenshteinDistance()
        k, budget, n_shards = 10, 120, 3
        exact = LinearScan(words, metric).knn_batch(queries, k)
        exact_ids = [{n.index for n in row} for row in exact]

        def recall(rows):
            return float(np.mean([
                len({n.index for n in row} & ids) / len(ids)
                for row, ids in zip(rows, exact_ids)
            ]))

        faults = [FaultSpec("kill", shard=0, request=1, generation=0)]
        policy = QueryPolicy(retries=0, on_partial="degrade")
        recalls = {}
        for split in ("proportional", "global"):
            with ShardedIndex(
                words, metric, self.INNER, n_shards=n_shards,
                resident=True, policy=policy, faults=list(faults),
                budget_split=split,
            ) as index:
                rows = index.knn_approx_batch(queries, k, budget=budget)
                assert index.stats.degraded
                assert index.stats.shards_answered == n_shards - 1
                recalls[split] = recall(rows)
        assert recalls["global"] >= recalls["proportional"]

    INNER = staticmethod(
        partial(DistPermIndex, n_sites=8, site_strategy="first")
    )


class TestResidentBuild:
    """Resident workers build their own shards (no stateless executor)."""

    def test_resident_build_matches_serial(self, split_setup):
        words, queries = split_setup
        metric = LevenshteinDistance()
        inner = partial(DistPermIndex, n_sites=8, site_strategy="first")
        with ShardedIndex(
            words, metric, inner, n_shards=3, workers=None
        ) as serial:
            expected = _signature_rows(serial.knn_batch(queries, 5))
            expected_build = serial.stats.build_distances
        with ShardedIndex(
            words, metric, inner, n_shards=3, workers=2, resident=True
        ) as resident:
            assert resident.stats.build_distances == expected_build
            got = _signature_rows(resident.knn_batch(queries, 5))
        assert got == expected

    def test_respawn_rebuilds_from_build_source(self, split_setup):
        """A killed worker rebuilds its shard deterministically."""
        words, queries = split_setup
        metric = LevenshteinDistance()
        faults = [FaultSpec("kill", shard=1, request=1, generation=0)]
        with ShardedIndex(
            words, metric, LinearScan, n_shards=3, workers=2,
            resident=True, faults=faults,
        ) as faulted:
            first = _signature_rows(faulted.knn_batch(queries, 5))
            second = _signature_rows(faulted.knn_batch(queries, 5))
        with ShardedIndex(
            words, metric, LinearScan, n_shards=3, workers=None
        ) as serial:
            expected = _signature_rows(serial.knn_batch(queries, 5))
        assert first == expected
        assert second == expected


class TestReplyBytesObservability:
    """The array-reply wire is visible (and cheaper than pickled lists)."""

    def test_stats_and_report_carry_reply_bytes(self, split_setup):
        from repro.experiments.harness import run_query_workload

        words, queries = split_setup
        metric = LevenshteinDistance()
        with ShardedIndex(
            words, metric, LinearScan, n_shards=3, workers=2,
            resident=True,
        ) as index:
            rows = index.knn_batch(queries, 5)
            stats = index.stats
            assert stats.reply_bytes > 0
            assert stats.shard_reply_bytes is not None
            assert len(stats.shard_reply_bytes) == 3
            assert all(b is not None and b > 0
                       for b in stats.shard_reply_bytes)
            # Each shard ships three arrays; the supervisor accounts
            # exactly their byte sizes.
            assert stats.reply_bytes >= sum(stats.shard_reply_bytes)

            report = run_query_workload(index, queries, kind="knn", k=5)
            assert report.reply_bytes > 0
            assert report.shard_reply_bytes is not None
            assert report.results == tuple(tuple(r) for r in rows)

    def test_array_replies_beat_pickled_neighbor_lists(self, split_setup):
        """The CI bench-smoke claim, asserted in-suite as well."""
        words, queries = split_setup
        metric = LevenshteinDistance()
        with ShardedIndex(
            words, metric, LinearScan, n_shards=3, workers=2,
            resident=True,
        ) as index:
            index.reset_stats()
            index.knn_batch(queries, 10)
            shipped = index.stats.reply_bytes
            # What the pre-columnar wire shipped: each worker pickled
            # its shard's per-query Neighbor lists.
            pickled_baseline = sum(
                len(pickle.dumps(
                    shard.knn_batch(queries, 10), pickle.HIGHEST_PROTOCOL
                ))
                for shard in index.shards
            )
        assert shipped < pickled_baseline

    def test_serial_execution_reports_no_reply_bytes(self, split_setup):
        words, queries = split_setup
        with ShardedIndex(
            words, LevenshteinDistance(), LinearScan, n_shards=3,
            workers=None,
        ) as index:
            index.knn_batch(queries, 5)
            assert index.stats.reply_bytes == 0
            assert index.stats.shard_reply_bytes is None


class TestNeighborArraysUnit:
    """Direct unit coverage of the columnar container's invariants."""

    def test_round_trip_and_rows(self):
        lists = [
            [],
            [(0.5, 3), (0.5, 7), (1.0, 1)],
            [(0.0, 2)],
        ]
        rows = NeighborArrays.from_lists(
            [[_neighbor(d, i) for d, i in row] for row in lists]
        )
        _assert_well_formed(rows, 3)
        assert [
            [(n.distance, n.index) for n in rows.row_list(q)]
            for q in range(3)
        ] == lists
        assert rows.to_lists() == [
            [_neighbor(d, i) for d, i in row] for row in lists
        ]

    def test_sorted_rows_breaks_ties_by_index(self):
        rows = NeighborArrays(
            distances=np.array([2.0, 1.0, 1.0, 1.0]),
            indices=np.array([5, 9, 2, 7]),
            offsets=np.array([0, 3, 4]),
        ).sorted_rows()
        assert rows.indices.tolist() == [2, 9, 5, 7]
        assert rows.distances.tolist() == [1.0, 1.0, 2.0, 1.0]

    def test_trim_keeps_first_k_per_row(self):
        rows = NeighborArrays(
            distances=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
            indices=np.array([0, 1, 2, 3, 4]),
            offsets=np.array([0, 3, 5]),
        ).trim(2)
        assert rows.indices.tolist() == [0, 1, 3, 4]
        assert rows.offsets.tolist() == [0, 2, 4]

    def test_pickle_round_trip(self):
        rows = NeighborArrays(
            distances=np.array([1.0, 2.0]),
            indices=np.array([4, 1]),
            offsets=np.array([0, 2]),
        )
        clone = pickle.loads(pickle.dumps(rows))
        assert clone.to_lists() == rows.to_lists()


def _neighbor(distance, index):
    from repro.index.base import Neighbor

    return Neighbor(index=index, distance=float(distance))
