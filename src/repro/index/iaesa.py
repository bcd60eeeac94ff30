"""iAESA: AESA with permutation-based pivot selection (Figueroa et al.).

Identical storage and elimination rule to AESA, but the *next* candidate
to evaluate is chosen by the similarity (Spearman footrule) between the
candidate's distance permutation of the already-evaluated pivots and the
query's — the paper notes this pivot-selection idea is the part of iAESA
that would apply even to LAESA.  Fewer distance evaluations than AESA on
average; same exact results.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence

import numpy as np

from repro.index.base import Index, Neighbor, NeighborArrays
from repro.index.batching import PRUNE_SAFETY, heaps_to_arrays, offer

__all__ = ["IAESA"]


class IAESA(Index):
    """Improved AESA: permutation-similarity pivot selection."""

    def _build(self) -> None:
        self.matrix = self.metric.pairwise(self.points)

    def _select_next(
        self,
        alive: np.ndarray,
        lower: np.ndarray,
        used: List[int],
        query_distances: List[float],
    ) -> int:
        candidates = np.flatnonzero(alive)
        if len(used) < 2:
            # Not enough pivots for a meaningful permutation; fall back to
            # the AESA rule (smallest lower bound).
            return int(candidates[np.argmin(lower[candidates])])
        pivot_array = np.asarray(used)
        query_order = np.argsort(
            np.asarray(query_distances), kind="stable"
        )
        # Rank position of each used pivot in the query's permutation.
        query_positions = np.empty(len(used), dtype=np.int64)
        query_positions[query_order] = np.arange(len(used))
        candidate_distances = self.matrix[np.ix_(candidates, pivot_array)]
        candidate_orders = np.argsort(candidate_distances, axis=1, kind="stable")
        positions = np.empty_like(candidate_orders)
        rows = np.arange(len(candidates))[:, None]
        positions[rows, candidate_orders] = np.arange(len(used))[None, :]
        footrules = np.abs(positions - query_positions[None, :]).sum(axis=1)
        return int(candidates[np.argmin(footrules)])

    def _eliminate(
        self, query: Any, visit: Callable[[int, float], float]
    ) -> None:
        """Run the elimination loop for one query.

        ``visit(pivot, distance)`` records each evaluation and returns
        the current elimination threshold (``inf`` while nothing can be
        eliminated yet).
        """
        n = len(self.points)
        lower = np.zeros(n)
        alive = np.ones(n, dtype=bool)
        used: List[int] = []
        query_distances: List[float] = []
        while alive.any():
            pivot = self._select_next(alive, lower, used, query_distances)
            alive[pivot] = False
            d = self.metric.distance(query, self.points[pivot])
            used.append(pivot)
            query_distances.append(d)
            np.maximum(lower, np.abs(d - self.matrix[pivot]), out=lower)
            alive &= lower <= visit(pivot, d)

    # The pivot choice of each step depends on the query's whole history
    # and scores every live candidate, so queries run one at a time.

    def _range_batch_impl(
        self, queries: Sequence[Any], radius: float
    ) -> NeighborArrays:
        rows: List[List[Neighbor]] = []
        threshold = radius + PRUNE_SAFETY * (1.0 + radius)
        for query in queries:
            row: List[Neighbor] = []

            def visit(pivot: int, d: float) -> float:
                if d <= radius:
                    row.append(Neighbor(d, pivot))
                return threshold

            self._eliminate(query, visit)
            rows.append(row)
        return NeighborArrays.from_lists(rows)

    def _knn_batch_impl(
        self, queries: Sequence[Any], k: int
    ) -> NeighborArrays:
        heaps: List[List[tuple]] = []
        for query in queries:
            heap: List[tuple] = []

            def visit(pivot: int, d: float) -> float:
                offer(heap, k, d, pivot)
                if len(heap) < k:
                    return np.inf
                kth = -heap[0][0]
                return kth + PRUNE_SAFETY * (1.0 + kth)

            self._eliminate(query, visit)
            heaps.append(heap)
        return heaps_to_arrays(heaps)

    def storage_floats(self) -> int:
        """Stored scalars: the full matrix, as for AESA."""
        n = len(self.points)
        return n * (n - 1) // 2
