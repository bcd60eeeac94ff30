"""Bench: batched query engine versus looped scalar single-query search.

The batch engine's reason to exist: the same workload (same answers,
same distance-evaluation counts) served at a multiple of the queries per
second, because metric evaluations collapse into a few vectorized
``batch_distances`` calls and the permutation index computes one footrule
matrix for the whole query set.  The library keeps only the batch engine
(single queries are batches of one), so the looped baseline is the
scalar engine it replaced, reproduced here: one ``metric.distance`` call
per candidate and a top-``k`` pick by ``(distance, index)``.  It is timed
on a query subsample (its per-query cost is flat, so queries/sec is
unaffected) to keep the bench fast at 100k points.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import List

import numpy as np
from conftest import write_result

from repro.datasets.vectors import uniform_vectors
from repro.experiments.harness import run_query_workload
from repro.index import DistPermIndex, LinearScan
from repro.metrics import EuclideanDistance

DIM = 8
N_QUERIES = 1000
LOOP_SAMPLE = 30


@dataclass
class LoopedReport:
    n_queries: int
    queries_per_second: float
    distances_per_query: float
    indices: List[List[int]]


def _looped(index, queries, *, kind, k, budget=None):
    """The scalar single-query engine: ``metric.distance`` per candidate.

    Candidates are every point for exact kNN and, for the permutation
    index's approximate kNN, the ``budget`` best of its
    :meth:`~repro.index.distperm.DistPermIndex.candidate_order` (whose
    query permutation costs the ``n_sites`` site evaluations).
    """
    metric = index.metric  # counting wrapper: evaluations are charged
    before = metric.count
    indices = []
    start = time.perf_counter()
    for query in queries:
        if kind == "knn":
            candidates = range(len(index.points))
        else:
            candidates = index.candidate_order(query)[:budget].tolist()
        best = heapq.nsmallest(
            k, ((metric.distance(query, index.points[i]), i) for i in candidates)
        )
        indices.append([i for _, i in best])
    elapsed = time.perf_counter() - start
    return LoopedReport(
        n_queries=len(queries),
        queries_per_second=len(queries) / elapsed,
        distances_per_query=(metric.count - before) / len(queries),
        indices=indices,
    )


def _speedup(index, queries, **workload):
    batched = run_query_workload(index, queries, **workload)
    looped = _looped(index, queries[:LOOP_SAMPLE], **workload)
    # Same answers either way on the overlapping prefix.
    for single, batch in zip(looped.indices, batched.results):
        assert [n.index for n in batch] == single
    return batched, looped, batched.queries_per_second / looped.queries_per_second


def test_distperm_knn_approx_batch_speedup(benchmark, results_dir):
    """The acceptance workload: approximate kNN on 10k Euclidean points."""

    def run():
        rng = np.random.default_rng(31)
        points = uniform_vectors(10_000, DIM, rng)
        queries = rng.random((N_QUERIES, DIM))
        index = DistPermIndex(points, EuclideanDistance(), n_sites=16,
                              rng=np.random.default_rng(32))
        return _speedup(index, queries, kind="knn-approx", k=10, budget=500)

    batched, looped, speedup = benchmark.pedantic(run, rounds=1, iterations=1)
    assert batched.distances_per_query == looped.distances_per_query
    assert speedup >= 5.0
    lines = [
        "distperm knn_approx, n=10000, d=8, 16 sites, budget=500, k=10:",
        f"  looped single-query: {looped.queries_per_second:10.1f} q/s "
        f"({looped.n_queries} queries timed)",
        f"  batched engine:      {batched.queries_per_second:10.1f} q/s "
        f"({batched.n_queries} queries)",
        f"  speedup:             {speedup:10.1f}x",
        f"  distances/query:     {batched.distances_per_query:10.1f} "
        "(identical either way)",
    ]
    write_result(results_dir, "batch_distperm_speedup", "\n".join(lines))


def test_linear_scan_batch_speedup(benchmark, results_dir):
    """Exhaustive kNN: the distance-matrix formulation at three scales."""

    def run():
        rows = []
        for n_points in (1_000, 10_000, 100_000):
            rng = np.random.default_rng(41)
            points = uniform_vectors(n_points, DIM, rng)
            queries = rng.random((N_QUERIES, DIM))
            index = LinearScan(points, EuclideanDistance())
            batched, looped, speedup = _speedup(
                index, queries, kind="knn", k=10
            )
            rows.append((n_points, looped.queries_per_second,
                         batched.queries_per_second, speedup))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    # Vectorization must win at every scale on Euclidean vectors.
    assert all(speedup > 1.0 for _, _, _, speedup in rows)
    lines = [f"linear-scan exact 10-NN, d={DIM}, {N_QUERIES} queries "
             f"(loop timed on {LOOP_SAMPLE}):"]
    for n_points, loop_qps, batch_qps, speedup in rows:
        lines.append(
            f"  n={n_points:>6}: loop {loop_qps:10.1f} q/s   "
            f"batch {batch_qps:10.1f} q/s   speedup {speedup:6.1f}x"
        )
    write_result(results_dir, "batch_linear_speedup", "\n".join(lines))
