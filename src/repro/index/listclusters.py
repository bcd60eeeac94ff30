"""List of Clusters (Chávez & Navarro): compact exact index.

A sequence of (center, covering-radius, bucket) clusters built greedily:
each center absorbs its ``bucket_size`` nearest remaining elements.  At
query time a cluster is scanned only if the query ball intersects its
covering ball, and — the structure's signature trick — the search *stops*
if the query ball lies entirely inside the cluster ball, because
construction order guarantees later elements are outside it.  Designed for
the same high-dimensional regime the paper's databases live in.

The cluster list lives in flat arrays (center ids, covering radii, and a
CSR bucket table of element ids with their stored center distances); the
build evaluates each greedy step as one batched distance row.  Queries
proceed cluster-by-cluster — the structure's levels — offering each
cluster's center to every still-active query in one grouped call, then
evaluating the triangle-filtered (query, bucket element) pairs with
:func:`~repro.index.batching.frontier_distances`.  Within a cluster the
kNN pruning radius is fixed at its post-center value, so the bucket
filter is one vectorized comparison.  Stored radii and bucket distances
come from the vectorized build, so every bound carries
:data:`~repro.index.batching.PRUNE_SAFETY` slack against last-ulp drift
of the query-time distances; slack only admits extra candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.index.base import Index, NeighborArrays
from repro.index.batching import (
    PRUNE_SAFETY,
    BatchKnnState,
    expand_csr,
    frontier_distances,
    rows_from_pairs,
    take_points,
)
from repro.metrics.base import Metric

__all__ = ["ListOfClusters"]


@dataclass
class _Cluster:
    """Read-only view of one cluster, materialized from the flat arrays."""

    center: int
    radius: float
    bucket: List[int]
    bucket_distances: List[float]  # distances center -> bucket element


class ListOfClusters(Index):
    """List of Clusters with fixed bucket size; exact range and kNN."""

    def __init__(
        self,
        points: Sequence[Any],
        metric: Metric,
        bucket_size: int = 16,
        rng: Optional[np.random.Generator] = None,
    ):
        if bucket_size < 1:
            raise ValueError("bucket_size must be >= 1")
        self.bucket_size = bucket_size
        self._rng = rng if rng is not None else np.random.default_rng(0)
        super().__init__(points, metric)

    def _build(self) -> None:
        remaining = list(range(len(self.points)))
        centers: List[int] = []
        radii: List[float] = []
        offsets: List[int] = [0]
        bucket_items: List[int] = []
        bucket_dists: List[float] = []
        while remaining:
            # Next center: the element farthest from the previous center
            # (first center random) — the heuristic of the original paper.
            if not centers:
                pick = int(self._rng.integers(0, len(remaining)))
            else:
                row = self.metric.batch_distances(
                    [self.points[centers[-1]]],
                    take_points(
                        self.points, np.asarray(remaining, dtype=np.int64)
                    ),
                )[0]
                pick = int(np.argmax(row))
            center = remaining.pop(pick)
            centers.append(center)
            if not remaining:
                radii.append(0.0)
                offsets.append(len(bucket_items))
                break
            distances = self.metric.batch_distances(
                [self.points[center]],
                take_points(self.points, np.asarray(remaining, dtype=np.int64)),
            )[0]
            take = min(self.bucket_size, len(remaining))
            order = np.argsort(distances, kind="stable")[:take]
            bucket = [remaining[int(i)] for i in order]
            bucket_items.extend(bucket)
            bucket_dists.extend(float(distances[int(i)]) for i in order)
            radii.append(float(distances[int(order[-1])]))
            offsets.append(len(bucket_items))
            chosen = set(bucket)
            remaining = [i for i in remaining if i not in chosen]
        self._centers = np.asarray(centers, dtype=np.int64)
        # Center elements gathered once: a cluster's center is then a
        # one-element slice, not a per-visit gather.
        self._center_points = take_points(self.points, self._centers)
        self._radii = np.asarray(radii, dtype=np.float64)
        self._bucket_offsets = np.asarray(offsets, dtype=np.int64)
        self._bucket_items = np.asarray(bucket_items, dtype=np.int64)
        self._bucket_dists = np.asarray(bucket_dists, dtype=np.float64)

    @property
    def clusters(self) -> List[_Cluster]:
        """The cluster sequence as materialized read-only views."""
        views = []
        for c in range(self._centers.shape[0]):
            start = int(self._bucket_offsets[c])
            stop = int(self._bucket_offsets[c + 1])
            views.append(
                _Cluster(
                    int(self._centers[c]),
                    float(self._radii[c]),
                    [int(i) for i in self._bucket_items[start:stop]],
                    [float(d) for d in self._bucket_dists[start:stop]],
                )
            )
        return views

    # ------------------------------------------------------------------
    # Query scan, cluster by cluster over the still-active queries.
    # ------------------------------------------------------------------

    def _center_distances(
        self, queries: Sequence[Any], active: np.ndarray, c: int
    ) -> np.ndarray:
        return self.metric.batch_distances(
            take_points(queries, active), self._center_points[c : c + 1]
        )[:, 0]

    def _bucket_pairs(
        self,
        query_ids: np.ndarray,
        clusters: np.ndarray,
        d_center: np.ndarray,
        radius: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Triangle-filtered (query, bucket element) pairs at ``radius``.

        One entry of ``query_ids``/``clusters``/``d_center`` per visited
        (query, cluster) pair: the bucket is scanned only if the query
        ball meets the cluster ball, and an element survives only if the
        stored center distance does not already exclude it.
        """
        eps = PRUNE_SAFETY * (1.0 + radius)
        scanning = np.flatnonzero(
            d_center <= self._radii[clusters] + radius + eps
        )
        owner, slots = expand_csr(self._bucket_offsets, clusters[scanning])
        owner = scanning[owner]
        keep = (
            np.abs(d_center[owner] - self._bucket_dists[slots])
            <= radius + eps
        )
        return query_ids[owner[keep]], self._bucket_items[slots[keep]]

    def _range_batch_impl(
        self, queries: Sequence[Any], radius: float
    ) -> NeighborArrays:
        # The cluster walk needs only center distances (the containment
        # cut never looks at bucket elements), so the bucket candidates
        # of every visited (query, cluster) pair are evaluated together
        # after the walk.
        n_queries = len(queries)
        eps = PRUNE_SAFETY * (1.0 + radius)
        visited: List[np.ndarray] = []
        center_d: List[np.ndarray] = []
        active = np.arange(n_queries, dtype=np.int64)
        for c in range(self._centers.shape[0]):
            if active.size == 0:
                break
            d_center = self._center_distances(queries, active, c)
            visited.append(active)
            center_d.append(d_center)
            active = active[~(d_center + radius < self._radii[c] - eps)]
        if not visited:
            return NeighborArrays.empty(n_queries)
        query_ids = np.concatenate(visited)
        clusters = np.repeat(
            np.arange(len(visited)), [ids.shape[0] for ids in visited]
        )
        d_center = np.concatenate(center_d)
        pair_queries, pair_items = self._bucket_pairs(
            query_ids, clusters, d_center, radius
        )
        pair_d = frontier_distances(
            self.metric, queries, self.points, pair_queries, pair_items
        )
        query_ids = np.concatenate([query_ids, pair_queries])
        indices = np.concatenate([self._centers[clusters], pair_items])
        distances = np.concatenate([d_center, pair_d])
        hits = distances <= radius
        return rows_from_pairs(
            n_queries, query_ids[hits], indices[hits], distances[hits]
        )

    def _knn_batch_impl(
        self, queries: Sequence[Any], k: int
    ) -> NeighborArrays:
        n_queries = len(queries)
        state = BatchKnnState(n_queries, k)
        active = np.arange(n_queries, dtype=np.int64)
        offsets = self._bucket_offsets.tolist()
        radii = self._radii.tolist()
        for c in range(self._centers.shape[0]):
            if active.size == 0:
                break
            d_center = self._center_distances(queries, active, c)
            state.offer_pairs(
                active, self._centers[c].repeat(active.shape[0]), d_center
            )
            # The bucket filter of _bucket_pairs on one cluster's slice,
            # at each query's post-center radius plus its float slack.
            bounds = state.radii[active]
            limit = bounds + PRUNE_SAFETY * (1.0 + bounds)
            scanning = d_center <= radii[c] + limit
            start, stop = offsets[c], offsets[c + 1]
            if stop > start and scanning.any():
                keep = (
                    np.abs(d_center[:, None] - self._bucket_dists[start:stop])
                    <= limit[:, None]
                )
                keep &= scanning[:, None]
                rows, cols = np.nonzero(keep)
                if rows.shape[0]:
                    pair_queries = active[rows]
                    pair_items = self._bucket_items[start + cols]
                    pair_d = frontier_distances(
                        self.metric, queries, self.points,
                        pair_queries, pair_items,
                    )
                    state.offer_pairs(pair_queries, pair_items, pair_d)
            # Containment cut; it needs the query inside the cluster ball.
            if (d_center < radii[c]).any():
                bounds = state.radii[active]
                eps = PRUNE_SAFETY * (1.0 + bounds)
                active = active[~(d_center + bounds < radii[c] - eps)]
        return state.results()
