"""Pinned distance-evaluation counts: the paper's cost measure, frozen.

Every index answers through one batch engine, and single queries run as
batches of one.  The evaluations a query spends are the cost measure of
the similarity-search literature, so they must not drift when engine
code changes: the table below holds the per-query counts of every index
x {knn, range, knn_approx} x {8-d Euclidean, Levenshtein words}, as
recorded from the scalar single-query engines these indexes carried
before answering everything through the batch engine (where batch and
single-query counts already agreed).  Both query surfaces must reproduce
them: the single-query API query by query, the batch API in total.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.datasets.dictionaries import synthetic_dictionary
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
from repro.metrics import EuclideanDistance, LevenshteinDistance

K = 5
BUDGET = 40


def _vectors():
    rng = np.random.default_rng(2008)
    return rng.random((300, 8)), list(rng.random((6, 8))), EuclideanDistance, 0.6


def _words():
    words = synthetic_dictionary("English", 300, np.random.default_rng(2009))
    queries = ["the", "query", "distance", "permutation", "zzz", words[7]]
    return words, queries, LevenshteinDistance, 2


WORKLOADS = {"vectors": _vectors, "words": _words}

FACTORIES = {
    "linear": lambda p, m: LinearScan(p, m),
    "vptree": lambda p, m: VPTree(p, m, rng=np.random.default_rng(3)),
    "ghtree": lambda p, m: GHTree(p, m, rng=np.random.default_rng(4)),
    "bktree": lambda p, m: BKTree(p, m),
    "listclusters": lambda p, m: ListOfClusters(
        p, m, bucket_size=12, rng=np.random.default_rng(5)
    ),
    "aesa": lambda p, m: AESA(p, m),
    "iaesa": lambda p, m: IAESA(p, m),
    "pivots": lambda p, m: PivotIndex(
        p, m, n_pivots=6, rng=np.random.default_rng(1)
    ),
    "distperm": lambda p, m: DistPermIndex(
        p, m, n_sites=6, rng=np.random.default_rng(2)
    ),
    "sharded-linear": lambda p, m: ShardedIndex(p, m, n_shards=3),
    "sharded-distperm": lambda p, m: ShardedIndex(
        p, m,
        partial(DistPermIndex, n_sites=6, rng=np.random.default_rng(2)),
        n_shards=3,
    ),
}

#: Per-query evaluation counts, keyed by (workload, index, op).
PINNED = {
    ('vectors', 'linear', 'knn'): (300, 300, 300, 300, 300, 300),
    ('vectors', 'linear', 'range'): (300, 300, 300, 300, 300, 300),
    ('vectors', 'linear', 'knn_approx'): (300, 300, 300, 300, 300, 300),
    ('vectors', 'vptree', 'knn'): (287, 290, 294, 287, 279, 283),
    ('vectors', 'vptree', 'range'): (276, 277, 250, 265, 234, 258),
    ('vectors', 'vptree', 'knn_approx'): (287, 290, 294, 287, 279, 283),
    ('vectors', 'ghtree', 'knn'): (300, 300, 300, 300, 300, 300),
    ('vectors', 'ghtree', 'range'): (300, 300, 300, 300, 300, 300),
    ('vectors', 'ghtree', 'knn_approx'): (300, 300, 300, 300, 300, 300),
    ('vectors', 'listclusters', 'knn'): (261, 262, 237, 249, 234, 207),
    ('vectors', 'listclusters', 'range'): (249, 201, 186, 186, 185, 169),
    ('vectors', 'listclusters', 'knn_approx'): (261, 262, 237, 249, 234, 207),
    ('vectors', 'aesa', 'knn'): (25, 93, 147, 79, 112, 102),
    ('vectors', 'aesa', 'range'): (39, 66, 72, 36, 74, 52),
    ('vectors', 'aesa', 'knn_approx'): (25, 93, 147, 79, 112, 102),
    ('vectors', 'iaesa', 'knn'): (28, 94, 153, 80, 126, 102),
    ('vectors', 'iaesa', 'range'): (40, 64, 77, 39, 72, 52),
    ('vectors', 'iaesa', 'knn_approx'): (28, 94, 153, 80, 126, 102),
    ('vectors', 'pivots', 'knn'): (146, 222, 283, 249, 225, 223),
    ('vectors', 'pivots', 'range'): (216, 186, 225, 191, 154, 162),
    ('vectors', 'pivots', 'knn_approx'): (146, 222, 283, 249, 225, 223),
    ('vectors', 'distperm', 'knn'): (300, 300, 300, 300, 300, 300),
    ('vectors', 'distperm', 'range'): (300, 300, 300, 300, 300, 300),
    ('vectors', 'distperm', 'knn_approx'): (46, 46, 46, 46, 46, 46),
    ('vectors', 'sharded-linear', 'knn'): (300, 300, 300, 300, 300, 300),
    ('vectors', 'sharded-linear', 'range'): (300, 300, 300, 300, 300, 300),
    ('vectors', 'sharded-linear', 'knn_approx'): (300, 300, 300, 300, 300, 300),
    ('vectors', 'sharded-distperm', 'knn'): (300, 300, 300, 300, 300, 300),
    ('vectors', 'sharded-distperm', 'range'): (300, 300, 300, 300, 300, 300),
    ('vectors', 'sharded-distperm', 'knn_approx'): (76, 76, 76, 76, 76, 76),
    ('words', 'linear', 'knn'): (300, 300, 300, 300, 300, 300),
    ('words', 'linear', 'range'): (300, 300, 300, 300, 300, 300),
    ('words', 'linear', 'knn_approx'): (300, 300, 300, 300, 300, 300),
    ('words', 'vptree', 'knn'): (300, 300, 300, 300, 300, 300),
    ('words', 'vptree', 'range'): (285, 296, 266, 137, 288, 266),
    ('words', 'vptree', 'knn_approx'): (300, 300, 300, 300, 300, 300),
    ('words', 'ghtree', 'knn'): (300, 300, 300, 300, 300, 300),
    ('words', 'ghtree', 'range'): (282, 291, 300, 300, 270, 292),
    ('words', 'ghtree', 'knn_approx'): (300, 300, 300, 300, 300, 300),
    ('words', 'bktree', 'knn'): (297, 300, 300, 297, 298, 297),
    ('words', 'bktree', 'range'): (54, 120, 174, 120, 52, 161),
    ('words', 'bktree', 'knn_approx'): (297, 300, 300, 297, 298, 297),
    ('words', 'listclusters', 'knn'): (294, 300, 300, 299, 240, 300),
    ('words', 'listclusters', 'range'): (237, 244, 247, 241, 98, 250),
    ('words', 'listclusters', 'knn_approx'): (294, 300, 300, 299, 240, 300),
    ('words', 'aesa', 'knn'): (43, 169, 275, 296, 70, 13),
    ('words', 'aesa', 'range'): (22, 61, 63, 30, 35, 3),
    ('words', 'aesa', 'knn_approx'): (43, 169, 275, 296, 70, 13),
    ('words', 'iaesa', 'knn'): (47, 171, 277, 293, 71, 20),
    ('words', 'iaesa', 'range'): (24, 60, 67, 33, 36, 3),
    ('words', 'iaesa', 'knn_approx'): (47, 171, 277, 293, 71, 20),
    ('words', 'pivots', 'knn'): (207, 244, 300, 300, 138, 295),
    ('words', 'pivots', 'range'): (148, 154, 194, 65, 41, 204),
    ('words', 'pivots', 'knn_approx'): (207, 244, 300, 300, 138, 295),
    ('words', 'distperm', 'knn'): (300, 300, 300, 300, 300, 300),
    ('words', 'distperm', 'range'): (300, 300, 300, 300, 300, 300),
    ('words', 'distperm', 'knn_approx'): (46, 46, 46, 46, 46, 46),
    ('words', 'sharded-linear', 'knn'): (300, 300, 300, 300, 300, 300),
    ('words', 'sharded-linear', 'range'): (300, 300, 300, 300, 300, 300),
    ('words', 'sharded-linear', 'knn_approx'): (300, 300, 300, 300, 300, 300),
    ('words', 'sharded-distperm', 'knn'): (300, 300, 300, 300, 300, 300),
    ('words', 'sharded-distperm', 'range'): (300, 300, 300, 300, 300, 300),
    ('words', 'sharded-distperm', 'knn_approx'): (76, 76, 76, 76, 76, 76),
}


def _run(index, op, radius):
    return {
        "knn": (
            lambda q: index.knn_query(q, K),
            lambda qs: index.knn_batch(qs, K),
        ),
        "range": (
            lambda q: index.range_query(q, radius),
            lambda qs: index.range_batch(qs, radius),
        ),
        "knn_approx": (
            lambda q: index.knn_approx(q, K, budget=BUDGET),
            lambda qs: index.knn_approx_batch(qs, K, budget=BUDGET),
        ),
    }[op]


@pytest.mark.parametrize(
    "workload, name",
    sorted({(workload, name) for workload, name, _ in PINNED}),
)
def test_counts_match_pinned(workload, name):
    points, queries, metric_cls, radius = WORKLOADS[workload]()
    index = FACTORIES[name](points, metric_cls())
    try:
        for op in ("knn", "range", "knn_approx"):
            pinned = PINNED[(workload, name, op)]
            single, batch = _run(index, op, radius)
            counts = []
            for query in queries:
                before = index.stats.query_distances
                single(query)
                counts.append(index.stats.query_distances - before)
            assert tuple(counts) == pinned, op
            before = index.stats.query_distances
            batch(queries)
            assert index.stats.query_distances - before == sum(pinned), op
    finally:
        close = getattr(index, "close", None)
        if close is not None:
            close()


@pytest.mark.parametrize(
    "factory",
    [
        lambda p, m: LinearScan(p, m),
        lambda p, m: ShardedIndex(p, m, n_shards=3),
    ],
    ids=["linear", "sharded-linear"],
)
def test_exact_index_approx_batch_spends_knn_batch_evaluations(factory):
    """An index without a budgeted mode answers ``knn_approx_batch`` with
    its ``knn_batch`` engine: same answers, exactly the same
    evaluations."""
    points, queries, metric_cls, _ = _vectors()
    index = factory(points, metric_cls())
    try:
        index.reset_stats()
        exact = index.knn_batch_arrays(queries, K)
        spent = index.stats.query_distances
        index.reset_stats()
        approx = index.knn_approx_batch_arrays(queries, K, budget=BUDGET)
        assert index.stats.query_distances == spent == len(points) * len(
            queries
        )
        assert approx.indices.tobytes() == exact.indices.tobytes()
        assert approx.offsets.tobytes() == exact.offsets.tobytes()
        assert approx.distances.tobytes() == exact.distances.tobytes()
    finally:
        close = getattr(index, "close", None)
        if close is not None:
            close()
