"""Shared experiment machinery: site draws, trials, query workloads, tables.

Besides the permutation-census helpers, this module hosts the search
workload runner used by the benches and the ``repro search`` CLI: a query
set is pushed through an index's batched API and both cost measures are
reported — distance evaluations per query, the literature's metric, and
queries per second, the production measure the batch engine optimizes.

Every entry point takes the library-wide ``workers=`` / ``shards=``
parameters (:mod:`repro.parallel`): censuses shard the database and merge
exact partial counts; the workload runner can wrap any index in a
:class:`~repro.index.sharded.ShardedIndex` for fan-out/merge execution.
Results are identical for every ``workers`` / ``shards`` combination.
"""

from __future__ import annotations

import inspect
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

import numpy as np

from repro.index.base import Index, Neighbor
from repro.index.sharded import ShardedIndex, shard_index
from repro.metrics.base import Metric
from repro.parallel.census import sharded_census
from repro.parallel.executor import get_executor
from repro.parallel.sharedmem import SharedDataset

__all__ = [
    "unique_permutation_count",
    "permutation_count_trials",
    "TrialResult",
    "QueryWorkloadReport",
    "run_query_workload",
    "format_table",
]


def unique_permutation_count(
    points: Sequence[Any],
    sites: Sequence[Any],
    metric: Metric,
    *,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
) -> int:
    """Count distinct distance permutations of ``points`` w.r.t. ``sites``.

    The census shards over the database rows and merges exact partial
    counts (:func:`repro.parallel.census.sharded_census`); the result is
    identical for every ``workers`` / ``shards`` setting.
    """
    censuses, _ = sharded_census(
        points, sites, metric, workers=workers, shards=shards
    )
    return censuses[len(sites)].distinct


@dataclass(frozen=True)
class TrialResult:
    """Aggregate of repeated random-site permutation counts."""

    counts: Tuple[int, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.counts))

    @property
    def max(self) -> int:
        return int(np.max(self.counts))

    @property
    def min(self) -> int:
        return int(np.min(self.counts))


def permutation_count_trials(
    points: Sequence[Any],
    metric: Metric,
    k: int,
    n_trials: int = 10,
    rng: Optional[np.random.Generator] = None,
    *,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    executor=None,
    dataset: Optional[SharedDataset] = None,
) -> TrialResult:
    """Repeat the permutation census with fresh random site draws.

    Sites are drawn uniformly without replacement from the database, as in
    the SISAP pivots code the paper's ``distperm`` index modifies.  Returns
    the per-trial counts (Table 3 reports their mean and max).

    With ``workers`` the trial censuses run on a process pool: every
    trial's site draw happens up front (so draws match the serial order
    exactly), the database is published to shared memory once, and each
    trial's census shards over the rows and merges.  Counts are identical
    for every ``workers`` / ``shards`` setting.  Callers looping many
    cells over one pool (Table 3) pass ``executor=`` (and optionally a
    pre-published ``dataset=``) to amortize pool startup and dataset
    publication; both stay owned by the caller.
    """
    n = len(points)
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= {n}, got k={k}")
    rng = rng if rng is not None else np.random.default_rng()
    trial_sites = [
        [points[int(i)] for i in rng.choice(n, size=k, replace=False)]
        for _ in range(n_trials)
    ]
    counts = []
    own_executor = executor is None
    executor = executor if executor is not None else get_executor(workers)
    own_dataset = dataset is None
    if dataset is None:
        dataset = (
            SharedDataset.publish(points)
            if executor.workers
            else SharedDataset.local(points)
        )
    try:
        for sites in trial_sites:
            censuses, _ = sharded_census(
                points,
                sites,
                metric,
                executor=executor,
                shards=shards,
                dataset=dataset,
            )
            counts.append(censuses[k].distinct)
    finally:
        if own_dataset:
            dataset.unlink()
        if own_executor:
            executor.close()
    return TrialResult(tuple(counts))


@dataclass(frozen=True)
class QueryWorkloadReport:
    """Outcome of one query workload over an index.

    ``results[i]`` is the answer list for ``queries[i]``; the two cost
    measures are distance evaluations per query (hardware-independent)
    and queries per second (wall clock).  ``degraded`` /
    ``shards_answered`` mirror the index's resilience stats after the
    workload (resident sharded execution only — ``shards_answered`` is
    ``None`` elsewhere): whether any answer in this workload was merged
    from fewer than all shards, and how many shards the last fan-out
    heard from.  ``reply_bytes`` totals the result-payload bytes shipped
    from resident workers over the workload (0 when no worker wire was
    involved) and ``shard_reply_bytes`` is the last fan-out's per-shard
    breakdown, ``None`` per shard that never replied.
    """

    kind: str
    n_queries: int
    elapsed_seconds: float
    distance_evaluations: int
    results: Tuple[Tuple[Neighbor, ...], ...]
    degraded: bool = False
    shards_answered: Optional[int] = None
    reply_bytes: int = 0
    shard_reply_bytes: Optional[Tuple[Optional[int], ...]] = None

    @property
    def queries_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.n_queries / self.elapsed_seconds

    @property
    def distances_per_query(self) -> float:
        return (
            self.distance_evaluations / self.n_queries
            if self.n_queries
            else 0.0
        )


def run_query_workload(
    index: Index,
    queries: Sequence[Any],
    *,
    kind: str = "knn",
    k: int = 10,
    radius: float = 1.0,
    budget: Optional[int] = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    inner_factory: Optional[Callable[[Sequence[Any], Metric], Index]] = None,
    resident: bool = False,
    policy=None,
) -> QueryWorkloadReport:
    """Drive a query set through an index and report both cost measures.

    ``kind`` selects the operation: ``"knn"`` (exact), ``"range"``, or
    ``"knn-approx"`` (budgeted); the batch API answers the whole set in
    one call.  The index's query stats are reset first so the report
    reflects exactly this workload.

    ``shards`` / ``workers`` run the workload through the sharded
    execution layer: unless ``index`` already is a
    :class:`~repro.index.sharded.ShardedIndex`, it is wrapped via
    :func:`~repro.index.sharded.shard_index` (rebuilding per-shard inner
    indexes of the same type, or of ``inner_factory``; the rebuild cost
    is not part of the report).  Exact answers are identical either way;
    the wrapper's pool and shared memory are released before returning.
    ``resident`` / ``policy`` select and configure the supervised
    worker runtime for the wrapper (see
    :mod:`repro.parallel.workerpool`); after the workload, inspect
    ``index.stats.degraded`` / ``shards_answered`` for whether any
    answer was partial.
    """
    if kind not in ("knn", "range", "knn-approx"):
        raise ValueError(f"unknown workload kind {kind!r}")
    if (resident or policy is not None) and (
        shards is None and workers is None
    ) and not isinstance(index, ShardedIndex):
        raise ValueError(
            "resident/policy require sharded execution: pass shards= "
            "(or workers=), or a ShardedIndex built with resident=True"
        )
    wrapped: Optional[ShardedIndex] = None
    if (shards is not None or workers is not None) and not isinstance(
        index, ShardedIndex
    ):
        if inner_factory is None:
            # type(index)(points, metric) drops any constructor
            # configuration (site counts, pivot counts, seeds) the passed
            # index was built with — loud is better than silently
            # measuring a differently-configured index.
            extra = [
                parameter.name
                for parameter in list(
                    inspect.signature(type(index).__init__).parameters.values()
                )[3:]
                if parameter.kind
                not in (
                    inspect.Parameter.VAR_POSITIONAL,
                    inspect.Parameter.VAR_KEYWORD,
                )
            ]
            if extra:
                warnings.warn(
                    f"run_query_workload rebuilds {type(index).__name__} "
                    f"shards with default {', '.join(extra)}; pass "
                    "inner_factory= to preserve the index configuration",
                    stacklevel=2,
                )
        wrapped = shard_index(
            index,
            n_shards=shards if shards is not None else max(1, workers or 1),
            workers=workers,
            inner_factory=inner_factory,
            resident=resident,
            policy=policy,
        )
        index = wrapped
    try:
        return _run_workload(
            index, queries, kind=kind, k=k, radius=radius,
            budget=budget,
        )
    finally:
        if wrapped is not None:
            wrapped.close()


def _run_workload(
    index: Index,
    queries: Sequence[Any],
    *,
    kind: str,
    k: int,
    radius: float,
    budget: Optional[int],
) -> QueryWorkloadReport:
    index.reset_stats()
    start = time.perf_counter()
    if kind == "knn":
        results = index.knn_batch(queries, k)
    elif kind == "range":
        results = index.range_batch(queries, radius)
    else:
        results = index.knn_approx_batch(queries, k, budget=budget)
    elapsed = time.perf_counter() - start
    return QueryWorkloadReport(
        kind=kind,
        n_queries=len(queries),
        elapsed_seconds=elapsed,
        distance_evaluations=index.stats.query_distances,
        results=tuple(tuple(r) for r in results),
        degraded=index.stats.degraded,
        shards_answered=index.stats.shards_answered,
        reply_bytes=index.stats.reply_bytes,
        shard_reply_bytes=index.stats.shard_reply_bytes,
    )


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], min_width: int = 6
) -> str:
    """Render an aligned plain-text table (right-aligned numeric style)."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [
        max(min_width, max(len(row[col]) for row in cells))
        for col in range(len(headers))
    ]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
