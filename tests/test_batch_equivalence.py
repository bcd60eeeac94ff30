"""Both query surfaces against a brute-force oracle.

Every index answers through one batch engine; single queries are batches
of one.  For every index and for both a vectorized metric (Euclidean) and
discrete, tie-heavy metrics (the string family), the batched API and the
looped single-query API must each equal the brute-force oracle (a double
loop over ``metric.distance``, see ``conftest.py``) — same neighbor
indices in the same ``(distance, index)`` order, distances within 1e-12 —
and the :class:`~repro.index.base.SearchStats` accounts must agree: one
query entry per element of the batch and the same total distance
evaluations either way.
"""

from __future__ import annotations

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
    VPTree,
)
from repro.metrics import (
    EuclideanDistance,
    HammingDistance,
    LevenshteinDistance,
    PrefixDistance,
)

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
    "ghtree": lambda pts, m: GHTree(pts, m, rng=np.random.default_rng(4)),
    "listclusters": lambda pts, m: ListOfClusters(
        pts, m, bucket_size=12, rng=np.random.default_rng(5)
    ),
}


@pytest.fixture(scope="module")
def vector_setup():
    rng = np.random.default_rng(77)
    points = rng.random((180, 3))
    queries = rng.random((9, 3))
    return points, queries, EuclideanDistance


@pytest.fixture(scope="module")
def string_setup():
    rng = np.random.default_rng(78)
    letters = "abc"
    words = list({
        "".join(letters[i] for i in rng.integers(0, 3, size=rng.integers(2, 7)))
        for _ in range(150)
    })
    queries = ["ab", "cba", "aaaa", "bc"]
    return words, queries, LevenshteinDistance


def _string_database(metric_cls):
    """A tie-heavy word database and queries suited to the metric.

    Hamming needs uniform lengths; the edit metrics get the mixed-length
    set so the Levenshtein banded range path and prefix LCP both see
    length variation.
    """
    rng = np.random.default_rng(78)
    letters = "abc"
    if metric_cls is HammingDistance:
        words = list({
            "".join(letters[i] for i in rng.integers(0, 3, size=5))
            for _ in range(150)
        })
        queries = ["ababa", "ccccc", "abcab", "bbbbb"]
    else:
        words = list({
            "".join(
                letters[i] for i in rng.integers(0, 3, size=rng.integers(2, 7))
            )
            for _ in range(150)
        })
        queries = ["ab", "cba", "aaaa", "bc"]
    return words, queries


STRING_METRICS = {
    "levenshtein": LevenshteinDistance,
    "prefix": PrefixDistance,
    "hamming": HammingDistance,
}


def _approx_oracle(index, oracle, query, k, budget):
    """Budgeted kNN by brute force over the index's candidate prefix.

    The permutation index evaluates the ``budget`` best-ranked
    candidates of its public :meth:`candidate_order`; every other index
    ignores the budget and is exact.
    """
    if not isinstance(index, DistPermIndex):
        return oracle.knn(query, k)
    budget = len(index) if budget is None else max(k, min(budget, len(index)))
    return oracle.knn(query, k, candidates=index.candidate_order(query)[:budget])


def _assert_surfaces_match_oracle(
    index, oracle, queries, *, k, radius=None, budget=None
):
    """Single-query loop and batch agree with the oracle and each other."""
    ops = [
        (
            lambda q: index.knn_query(q, k),
            lambda qs: index.knn_batch(qs, k),
            lambda q: oracle.knn(q, k),
        ),
        (
            lambda q: index.knn_approx(q, k, budget=budget),
            lambda qs: index.knn_approx_batch(qs, k, budget=budget),
            lambda q: _approx_oracle(index, oracle, q, k, budget),
        ),
    ]
    if radius is not None:
        ops.append((
            lambda q: index.range_query(q, radius),
            lambda qs: index.range_batch(qs, radius),
            lambda q: oracle.range(q, radius),
        ))
    for single, batch, expected in ops:
        index.reset_stats()
        looped = [single(q) for q in queries]
        looped_stats = (index.stats.queries, index.stats.query_distances)
        index.reset_stats()
        batched = batch(queries)
        batched_stats = (index.stats.queries, index.stats.query_distances)
        assert len(batched) == len(queries)
        for query, one, row in zip(queries, looped, batched):
            want = expected(query)
            oracle.check(one, want)
            oracle.check(row, want)
        assert batched_stats == looped_stats


def _assert_batch_matches_loop(
    index_factory, points, queries, metric_cls, k, radius, oracle_cls
):
    index = index_factory(points, metric_cls())
    _assert_surfaces_match_oracle(
        index, oracle_cls(points, metric_cls()), queries, k=k, radius=radius
    )


@pytest.mark.parametrize("name", INDEX_FACTORIES)
class TestVectorizedMetricEquivalence:
    def test_batch_matches_loop(self, name, vector_setup, brute_force):
        points, queries, metric_cls = vector_setup
        _assert_batch_matches_loop(
            INDEX_FACTORIES[name], points, queries, metric_cls,
            k=7, radius=0.35, oracle_cls=brute_force,
        )

    def test_knn_approx_batch_matches_loop(
        self, name, vector_setup, brute_force
    ):
        points, queries, metric_cls = vector_setup
        index = INDEX_FACTORIES[name](points, metric_cls())
        _assert_surfaces_match_oracle(
            index, brute_force(points, metric_cls()), queries,
            k=5, budget=40,
        )


@pytest.mark.parametrize("metric_name", STRING_METRICS)
@pytest.mark.parametrize("name", INDEX_FACTORIES)
class TestTieHeavyMetricEquivalence:
    """Discrete distances make ties pervasive: the hard tie-breaking case.

    Every string metric runs through every index: the engine routes
    through the encoded kernels (including Levenshtein's banded range
    matrix) and the metrics' small-matrix scalar loop, and both query
    surfaces must equal the oracle answer for answer.
    """

    def test_batch_matches_loop(self, name, metric_name, brute_force):
        metric_cls = STRING_METRICS[metric_name]
        words, queries = _string_database(metric_cls)
        _assert_batch_matches_loop(
            INDEX_FACTORIES[name], words, queries, metric_cls,
            k=9, radius=2, oracle_cls=brute_force,
        )


@pytest.mark.parametrize("name", ["distperm", "vptree"])
class TestMyersPathEquivalence:
    """Both surfaces against the oracle with the Myers kernel armed.

    Gene-like strings (4-letter alphabet, lengths 40–90) make the cost
    model pick the bit-parallel blocked kernel for every matrix the index
    computes; DistPermIndex plus one tree then exercise build, k-NN,
    range, and approximate queries end to end on that path.
    """

    @staticmethod
    def _genes():
        rng = np.random.default_rng(81)
        letters = "acgt"
        words = [
            "".join(letters[i] for i in rng.integers(0, 4, size=n))
            for n in rng.integers(40, 90, size=120)
        ]
        queries = [words[5][:50] + "tt", words[30], "acgt" * 12, ""]
        return words, queries

    def test_plan_picks_myers(self, name):
        from repro.metrics.encoding import (
            encode_strings,
            levenshtein_kernel_plan,
        )

        words, queries = self._genes()
        kernel, _ = levenshtein_kernel_plan(
            encode_strings(queries), encode_strings(words)
        )
        assert kernel == "myers"

    def test_batch_matches_loop(self, name, brute_force):
        words, queries = self._genes()
        _assert_batch_matches_loop(
            INDEX_FACTORIES[name], words, queries, LevenshteinDistance,
            k=7, radius=30, oracle_cls=brute_force,
        )

    def test_knn_approx_batch_matches_loop(self, name, brute_force):
        words, queries = self._genes()
        index = INDEX_FACTORIES[name](words, LevenshteinDistance())
        _assert_surfaces_match_oracle(
            index, brute_force(words, LevenshteinDistance()), queries,
            k=5, budget=40,
        )


@pytest.mark.parametrize("name", INDEX_FACTORIES)
class TestSelfQueryEquivalence:
    """Queries drawn from the database itself: the vectorized Euclidean
    path must report an exact 0.0 self-distance (the dot-product matrix
    formula cancels catastrophically there), on both surfaces."""

    def test_database_points_as_queries(
        self, name, vector_setup, brute_force
    ):
        points, _, metric_cls = vector_setup
        index = INDEX_FACTORIES[name](points, metric_cls())
        oracle = brute_force(points, metric_cls())
        queries = points[[3, 57, 121]]
        batched = index.knn_batch(queries, 4)
        looped = [index.knn_query(query, 4) for query in queries]
        for query, single, batch in zip(queries, looped, batched):
            assert batch[0].distance == 0.0
            assert single[0].distance == 0.0
            oracle.check(batch, oracle.knn(query, 4))
            oracle.check(single, oracle.knn(query, 4))


class TestBatchEdgeCases:
    def test_empty_query_batch(self, vector_setup):
        points, _, metric_cls = vector_setup
        index = LinearScan(points, metric_cls())
        assert index.knn_batch(np.empty((0, 3)), 3) == []
        assert index.range_batch(np.empty((0, 3)), 0.5) == []
        assert index.stats.queries == 0

    def test_k_larger_than_database(self, vector_setup):
        points, queries, metric_cls = vector_setup
        index = LinearScan(points, metric_cls())
        results = index.knn_batch(queries, len(points) + 10)
        assert all(len(r) == len(points) for r in results)

    def test_rejects_bad_arguments(self, vector_setup):
        points, queries, metric_cls = vector_setup
        index = LinearScan(points, metric_cls())
        with pytest.raises(ValueError):
            index.knn_batch(queries, 0)
        with pytest.raises(ValueError):
            index.range_batch(queries, -0.5)
        with pytest.raises(ValueError):
            index.knn_approx_batch(queries, 0)

    def test_stats_one_entry_per_query(self, vector_setup):
        points, queries, metric_cls = vector_setup
        index = LinearScan(points, metric_cls())
        index.reset_stats()
        index.knn_batch(queries, 3)
        assert index.stats.queries == len(queries)
        index.range_batch(queries, 0.2)
        assert index.stats.queries == 2 * len(queries)


class TestDistPermBudgetedBatch:
    """The permutation index selects its budgeted candidates with
    argpartition — the candidate *set* and the final answers must match
    a brute-force scan of the stable candidate-order prefix exactly."""

    @pytest.fixture(scope="class")
    def string_index(self, string_setup):
        words, queries, metric_cls = string_setup
        index = DistPermIndex(
            words, metric_cls(), n_sites=5, rng=np.random.default_rng(11)
        )
        return index, queries

    @pytest.mark.parametrize("budget", [1, 5, 30, 10_000])
    def test_budgeted_batch_matches_loop_on_ties(
        self, string_index, budget, string_setup, brute_force
    ):
        index, queries = string_index
        words, _, metric_cls = string_setup
        _assert_surfaces_match_oracle(
            index, brute_force(words, metric_cls()), queries,
            k=6, budget=budget,
        )

    def test_full_budget_equals_exact_including_tie_indices(
        self, string_index, string_setup, brute_force
    ):
        """Regression for budget-scan tie-breaking: with budget = n the
        approximate search must return the *same indices* as the exact
        oracle, not just the same distances — discrete metrics tie
        constantly, so any divergence from the ``sorted(Neighbor)``
        order would show up here."""
        index, queries = string_index
        words, _, metric_cls = string_setup
        oracle = brute_force(words, metric_cls())
        n = len(index)
        for query in queries:
            exact = oracle.knn(query, 8)
            oracle.check(index.knn_query(query, 8), exact)
            oracle.check(index.knn_approx(query, 8, budget=n), exact)
            oracle.check(
                index.knn_approx_batch([query], 8, budget=n)[0], exact
            )

    def test_approx_batch_budget_caps_evaluations(self, string_index):
        index, queries = string_index
        index.reset_stats()
        index.knn_approx_batch(queries, 3, budget=20)
        per_query = (20 + index.n_sites) * len(queries)
        assert index.stats.query_distances == per_query


class TestBKTreeBatchFallback:
    """BKTree on its native discrete-metric workload: both surfaces
    against the oracle."""

    @pytest.mark.parametrize("metric_name", STRING_METRICS)
    def test_batch_matches_loop(self, metric_name, brute_force):
        metric_cls = STRING_METRICS[metric_name]
        words, queries = _string_database(metric_cls)
        _assert_batch_matches_loop(
            lambda pts, m: BKTree(pts, m), words, queries, metric_cls,
            k=5, radius=1, oracle_cls=brute_force,
        )
