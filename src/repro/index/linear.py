"""Naive linear scan: the correctness oracle and cost baseline.

"The naive algorithm for proximity search measures the distance from the
query point to each object in the database in turn" — every other index is
validated against this one and judged by how many of those ``n`` distance
evaluations it avoids.

The query engine is a direct distance-matrix formulation: one chunked
:meth:`~repro.metrics.base.Metric.batch_distances` call per query block
plus ``np.argpartition`` top-k extraction, which on vectorized metrics
replaces ``n`` Python-level metric calls per query with a handful of
array operations for the whole batch (or for a single query).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.index.base import Index, NeighborArrays
from repro.index.batching import exhaustive_knn_batch, exhaustive_range_batch

__all__ = ["LinearScan"]


class LinearScan(Index):
    """Exhaustive scan; exact by construction."""

    def _build(self) -> None:
        pass  # nothing to precompute

    def _range_batch_impl(
        self, queries: Sequence[Any], radius: float
    ) -> NeighborArrays:
        return exhaustive_range_batch(self.metric, queries, self.points, radius)

    def _knn_batch_impl(
        self, queries: Sequence[Any], k: int
    ) -> NeighborArrays:
        return exhaustive_knn_batch(self.metric, queries, self.points, k)
