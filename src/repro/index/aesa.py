"""AESA: the full pairwise-matrix baseline of Vidal Ruiz.

Stores all ``n(n-1)/2`` pairwise distances.  At query time candidates are
eliminated through the triangle-inequality lower bound
``lb(x) = max_used |d(q, c) - d(c, x)|``; the next candidate evaluated is
always the one with the smallest bound.  Search cost per query is famously
close to constant — paid for with quadratic storage, which is why the
paper calls pure AESA impractical and why LAESA and permutation indexes
exist.

Queries run in rounds: each query's pivot trajectory is fully determined
by its own history, so queries that choose the *same* pivot in the same
round (every query starts at the same pivot, and trajectories fragment
only gradually) are evaluated together with one
:meth:`~repro.metrics.base.Metric.batch_distances` call.  Every query
spends exactly the evaluations of the classic one-query algorithm.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.index.base import Index, NeighborArrays
from repro.index.batching import (
    PRUNE_SAFETY,
    heaps_to_arrays,
    offer,
    rows_from_pairs,
)

__all__ = ["AESA"]


class AESA(Index):
    """Approximating–Eliminating Search Algorithm with full distance matrix."""

    def _build(self) -> None:
        self.matrix = self.metric.pairwise(self.points)

    def _eliminate(
        self,
        queries: Sequence[Any],
        visit: Callable[[int, int, float], float],
    ) -> None:
        """Run the AESA elimination loop for every query.

        Each round, every still-active query picks its candidate with the
        smallest lower bound; queries that picked the same pivot share
        one :meth:`~repro.metrics.base.Metric.batch_distances` call.
        ``visit(query, pivot, distance)`` records the evaluation and
        returns the query's elimination threshold (``inf`` while nothing
        can be eliminated yet).

        Bounds only grow and thresholds only shrink, so a candidate is
        alive exactly while its current bound is within the current
        threshold: no elimination mask is kept.  Evaluated candidates
        get an infinite bound, the next pivot is the plain argmin (first
        index among equal bounds), and a query is done once that bound
        exceeds its threshold.
        """
        lower = np.zeros((len(queries), len(self.points)))
        thresholds = [np.inf] * len(queries)
        active = list(range(len(queries)))
        while active:
            groups: Dict[int, List[int]] = {}
            for qi in active:
                bound = lower[qi]
                pivot = int(bound.argmin())
                smallest = float(bound[pivot])
                if smallest < np.inf and smallest <= thresholds[qi]:
                    groups.setdefault(pivot, []).append(qi)
            active = []
            for pivot, members in groups.items():
                distances = self.metric.batch_distances(
                    [queries[qi] for qi in members], [self.points[pivot]]
                )[:, 0]
                row = self.matrix[pivot]
                for qi, d in zip(members, distances.tolist()):
                    bound = lower[qi]
                    np.maximum(bound, np.abs(d - row), out=bound)
                    bound[pivot] = np.inf
                    thresholds[qi] = visit(qi, pivot, d)
                    active.append(qi)

    def _range_batch_impl(
        self, queries: Sequence[Any], radius: float
    ) -> NeighborArrays:
        hits: List[Tuple[int, int, float]] = []
        threshold = radius + PRUNE_SAFETY * (1.0 + radius)

        def visit(qi: int, pivot: int, d: float) -> float:
            if d <= radius:
                hits.append((qi, pivot, d))
            return threshold

        self._eliminate(queries, visit)
        query_ids, indices, distances = zip(*hits) if hits else ((), (), ())
        return rows_from_pairs(len(queries), query_ids, indices, distances)

    def _knn_batch_impl(
        self, queries: Sequence[Any], k: int
    ) -> NeighborArrays:
        heaps: List[List[tuple]] = [[] for _ in range(len(queries))]

        def visit(qi: int, pivot: int, d: float) -> float:
            heap = heaps[qi]
            offer(heap, k, d, pivot)
            if len(heap) < k:
                return np.inf
            kth = -heap[0][0]
            return kth + PRUNE_SAFETY * (1.0 + kth)

        self._eliminate(queries, visit)
        return heaps_to_arrays(heaps)

    def storage_floats(self) -> int:
        """Stored scalars: the full ``n x n`` matrix (upper triangle counted once)."""
        n = len(self.points)
        return n * (n - 1) // 2
