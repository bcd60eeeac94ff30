"""Vectorized batch-query helpers shared by index implementations.

The batched query path works on full query-to-database distance matrices:
one :meth:`~repro.metrics.base.Metric.batch_distances` call per chunk of
queries instead of one Python-level metric call per (query, point) pair.
Top-k extraction uses ``np.argpartition`` with an explicit boundary-tie
repair so that every index keeps the ``k`` lexicographically smallest
``(distance, index)`` pairs — the ``sorted(Neighbor)`` order of the
public API.

Chunking bounds peak memory: a chunk never materializes more than about
``_TARGET_CHUNK_ELEMENTS`` matrix entries, so a million-point database
queried with a hundred thousand queries still runs in bounded space.

The tree indexes (BK, VP, GH, List of Clusters) have a different shape of
batch work: a *sparse frontier* of surviving (query, vantage) pairs per
traversal level rather than a dense block.  :func:`frontier_distances`
evaluates such a frontier by grouping pairs on whichever side has fewer
distinct members — one ``batch_distances`` call per group, so vectorized
metric kernels fire while the evaluation count charged to
:class:`~repro.metrics.base.CountingMetric` stays exactly one per pair.
:class:`BatchKnnState` carries the per-query bounded heaps and pruning
radii such a traversal maintains, with the ``(-distance, -index)``
tie-breaking of :func:`offer`.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.index.base import NeighborArrays
from repro.metrics.base import Metric

__all__ = [
    "query_chunks",
    "offer",
    "heaps_to_arrays",
    "smallest_k_indices",
    "top_k_arrays",
    "range_arrays",
    "rows_from_pairs",
    "exhaustive_knn_batch",
    "exhaustive_range_batch",
    "take_points",
    "expand_csr",
    "frontier_distances",
    "BatchKnnState",
    "PRUNE_SAFETY",
]


def offer(heap: List[tuple], k: int, distance: float, index: int) -> None:
    """Offer one ``(distance, index)`` pair to a bounded max-heap.

    The heap keeps the ``k`` lexicographically smallest pairs as
    ``(-distance, -index)`` items, so ties break exactly as in the
    ``sorted(Neighbor)`` order of the public API regardless of offer
    order.
    """
    item = (-distance, -index)
    if len(heap) < k:
        heapq.heappush(heap, item)
    elif item > heap[0]:
        heapq.heapreplace(heap, item)


def heaps_to_arrays(heaps: Sequence[List[tuple]]) -> NeighborArrays:
    """Convert per-query bounded max-heaps into CSR result columns."""
    counts = np.asarray([len(heap) for heap in heaps], dtype=np.int64)
    offsets = np.zeros(len(heaps) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    distances = np.empty(total, dtype=np.float64)
    indices = np.empty(total, dtype=np.int64)
    pos = 0
    for heap in heaps:
        for nd, ni in heap:
            distances[pos] = -nd
            indices[pos] = -ni
            pos += 1
    return NeighborArrays(distances, indices, offsets)


#: Float-safety slack for prune and elimination bounds: stored build-time
#: distances (tree radii, AESA matrices, pivot tables) and fresh
#: query-time distances may come from differently shaped kernel blocks
#: whose last-ulp rounding differs, so comparisons against stored values
#: get ``PRUNE_SAFETY * (1 + bound)`` of slack.  Slack only ever admits
#: extra candidates; results stay exact.
PRUNE_SAFETY = 1e-9

#: Upper bound on the number of distance-matrix entries materialized per
#: chunk of queries (~32 MB of float64 at the default).
_TARGET_CHUNK_ELEMENTS = 4_194_304


def query_chunks(
    n_queries: int, n_points: int
) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` query ranges bounding matrix-chunk memory."""
    rows = max(1, _TARGET_CHUNK_ELEMENTS // max(1, n_points))
    for start in range(0, n_queries, rows):
        yield start, min(start + rows, n_queries)


def take_points(points: Sequence[Any], indices: np.ndarray) -> Sequence[Any]:
    """Gather ``points[indices]``, fancy-indexing arrays, looping otherwise."""
    if isinstance(points, np.ndarray):
        return points[indices]
    return [points[i] for i in np.asarray(indices).tolist()]


def expand_csr(
    offsets: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten the CSR rows ``rows`` of a table with row ``offsets``.

    Returns ``(owner, slots)``: for every entry of every selected row,
    the position of its row within ``rows`` and its slot in the table's
    flat columns, rows in the given order and entries in table order.
    """
    counts = offsets[rows + 1] - offsets[rows]
    owner = np.repeat(np.arange(rows.shape[0]), counts)
    starts = offsets[rows] - (np.cumsum(counts) - counts)
    slots = np.arange(owner.shape[0]) + np.repeat(starts, counts)
    return owner, slots


def smallest_k_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` lexicographically smallest ``(value, index)``.

    ``np.argpartition`` alone breaks ties at the k-th value arbitrarily;
    the repair step collects *every* entry at or below the partition
    boundary and resolves ties by lower index, matching the
    ``sorted(Neighbor)`` order of the public API exactly.  The
    result is sorted by ``(value, index)``.
    """
    n = values.shape[0]
    if k >= n:
        candidates = np.arange(n)
    else:
        part = np.argpartition(values, k - 1)[:k]
        boundary = values[part].max()
        candidates = np.flatnonzero(values <= boundary)
    order = np.lexsort((candidates, values[candidates]))[:k]
    return candidates[order]


def rows_from_pairs(
    n_queries: int,
    query_ids: np.ndarray,
    db_ids: np.ndarray,
    distances: np.ndarray,
) -> NeighborArrays:
    """Group flat ``(query, database, distance)`` triplets into CSR rows.

    The tree range traversals accumulate hits level by level as parallel
    arrays in no particular order; this groups them by query with one
    stable argsort.  Rows come back unsorted within — the public API's
    ``sorted_rows`` pass imposes the ``(distance, index)`` order.
    """
    query_ids = np.asarray(query_ids, dtype=np.int64)
    counts = np.bincount(query_ids, minlength=n_queries)
    offsets = np.zeros(n_queries + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    order = np.argsort(query_ids, kind="stable")
    return NeighborArrays(
        np.asarray(distances, dtype=np.float64)[order],
        np.asarray(db_ids, dtype=np.int64)[order],
        offsets,
    )


def top_k_arrays(distances: np.ndarray, k: int) -> NeighborArrays:
    """Per-row exact top-k of a distance matrix, as sorted columns.

    The vectorized, all-rows-at-once counterpart of
    :func:`smallest_k_indices` with identical semantics: per row, the
    ``k`` lexicographically smallest ``(value, column)`` pairs sorted by
    ``(value, column)``, boundary ties resolved by lower column.
    """
    n_queries, n = distances.shape
    if n_queries == 0:
        return NeighborArrays.empty(0)
    if n_queries == 1:
        cols = smallest_k_indices(distances[0], k)
        return NeighborArrays(
            distances[0, cols], cols, np.asarray([0, cols.shape[0]])
        )
    if k >= n:
        rows = np.repeat(np.arange(n_queries, dtype=np.int64), n)
        cols = np.tile(np.arange(n, dtype=np.int64), n_queries)
        vals = distances.ravel()
    else:
        part = np.argpartition(distances, k - 1, axis=1)[:, :k]
        boundary = np.take_along_axis(distances, part, axis=1).max(axis=1)
        rows, cols = np.nonzero(distances <= boundary[:, None])
        vals = distances[rows, cols]
    order = np.lexsort((cols, vals, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    counts = np.bincount(rows, minlength=n_queries)
    rank = np.arange(rows.shape[0], dtype=np.int64)
    starts = np.zeros(n_queries, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    rank -= np.repeat(starts, counts)
    keep = rank < k
    offsets = np.zeros(n_queries + 1, dtype=np.int64)
    np.cumsum(np.minimum(counts, k), out=offsets[1:])
    return NeighborArrays(vals[keep], cols[keep], offsets)


def range_arrays(distances: np.ndarray, radius: float) -> NeighborArrays:
    """Per-row range hits (``distance <= radius``) of a matrix as columns."""
    n_queries = distances.shape[0]
    rows, cols = np.nonzero(distances <= radius)
    vals = distances[rows, cols]
    counts = np.bincount(rows, minlength=n_queries)
    offsets = np.zeros(n_queries + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return NeighborArrays(vals, cols, offsets)


def exhaustive_knn_batch(
    metric: Metric, queries: Sequence[Any], points: Sequence[Any], k: int
) -> NeighborArrays:
    """Exact batched kNN by chunked exhaustive distance matrices."""
    parts: List[NeighborArrays] = []
    for start, stop in query_chunks(len(queries), len(points)):
        block = metric.batch_distances(queries[start:stop], points)
        parts.append(top_k_arrays(block, k))
    return NeighborArrays.concat(parts)


def exhaustive_range_batch(
    metric: Metric,
    queries: Sequence[Any],
    points: Sequence[Any],
    radius: float,
) -> NeighborArrays:
    """Exact batched range search by chunked exhaustive distance matrices.

    Uses :meth:`~repro.metrics.base.Metric.batch_distances_within`, whose
    contract fits range filtering exactly: every entry at or under the
    radius is the true distance, and entries beyond it only need to stay
    beyond it — which lets metrics with a banded kernel (Levenshtein)
    skip the full DP on pairs the query discards.
    """
    parts: List[NeighborArrays] = []
    for start, stop in query_chunks(len(queries), len(points)):
        block = metric.batch_distances_within(
            queries[start:stop], points, radius
        )
        parts.append(range_arrays(block, radius))
    return NeighborArrays.concat(parts)


def _single_key(keys: np.ndarray) -> bool:
    """Whether a nonempty key array holds one distinct value.

    The common shape of small batches (one query, or one vantage shared
    by every pair) — checked in one pass so it skips the sort.
    """
    return keys.shape[0] == 1 or bool((keys == keys[0]).all())


def _groups(
    keys: np.ndarray, single: bool = False
) -> Iterator[Tuple[Union[np.ndarray, slice], int]]:
    """Yield ``(positions, key)`` for each distinct value of ``keys``.

    ``positions`` index ``keys``; a single distinct key (``single`` says
    the caller already knows) yields the whole range as a slice, so its
    gathers are views.
    """
    if keys.shape[0] == 0:
        return
    if single or _single_key(keys):
        yield slice(None), int(keys[0])
        return
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(
        np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    )
    stops = np.r_[starts[1:], keys.shape[0]]
    for start, stop in zip(starts, stops):
        yield order[start:stop], int(sorted_keys[start])


def frontier_distances(
    metric: Metric,
    queries: Sequence[Any],
    points: Sequence[Any],
    query_ids: np.ndarray,
    point_ids: np.ndarray,
) -> np.ndarray:
    """Distances for a sparse frontier of ``(query, point)`` pairs.

    ``query_ids[i]`` indexes ``queries`` and ``point_ids[i]`` indexes
    ``points``; the result holds ``d(queries[query_ids[i]],
    points[point_ids[i]])`` per pair.  Pairs are grouped on whichever
    side repeats more (early tree levels share a handful of vantage
    points across every query; deep fragmented levels share each query
    across many nodes) and every group becomes one
    :meth:`~repro.metrics.base.Metric.batch_distances` call, so the
    evaluation count stays exactly the number of pairs — one per
    visited ``(query, point)`` pair, as in the classic one-query
    traversal — while vectorized kernels do the work.
    """
    query_ids = np.asarray(query_ids, dtype=np.int64)
    point_ids = np.asarray(point_ids, dtype=np.int64)
    out = np.empty(query_ids.shape[0], dtype=np.float64)
    if out.shape[0] == 0:
        return out
    single_point = _single_key(point_ids)
    single_query = not single_point and _single_key(query_ids)
    by_point = single_point or (
        not single_query
        and np.unique(point_ids).shape[0] <= np.unique(query_ids).shape[0]
    )
    if by_point:
        for positions, point in _groups(point_ids, single=single_point):
            block = metric.batch_distances(
                take_points(queries, query_ids[positions]),
                [points[point]],
            )
            out[positions] = block[:, 0]
    else:
        for positions, query in _groups(query_ids, single=single_query):
            block = metric.batch_distances(
                [queries[query]],
                take_points(points, point_ids[positions]),
            )
            out[positions] = block[0]
    return out


#: :meth:`BatchKnnState.offer_pairs` pre-filters groups of more than
#: this many pairs with numpy; smaller groups (a single query's frontier,
#: one center) cost fewer Python heap offers than the skip's numpy calls.
_OFFER_SKIP_MIN = 16


class BatchKnnState:
    """Per-query bounded heaps and pruning radii for batched kNN.

    A level-synchronous tree traversal offers every frontier distance of
    a level, then prunes the next level with the post-level radii.  The
    heaps are :func:`offer`'s ``(-distance, -index)`` bounded max-heaps,
    so final contents are independent of offer order and tie-break as
    ``sorted(Neighbor)`` does.
    """

    def __init__(self, n_queries: int, k: int):
        self.k = k
        self.heaps: List[List[tuple]] = [[] for _ in range(n_queries)]
        #: Per-query k-th best distance so far (inf while unfilled).
        self.radii = np.full(n_queries, np.inf)

    def offer_pairs(
        self,
        query_ids: np.ndarray,
        db_ids: np.ndarray,
        distances: np.ndarray,
    ) -> None:
        """Offer one ``(distance, database index)`` candidate per pair.

        In groups of more than :data:`_OFFER_SKIP_MIN` pairs, pairs whose
        distance already exceeds a full heap's k-th best are skipped
        wholesale (their offers would be no-ops); pairs tied with the
        boundary still go through the heap so index tie-breaking stays
        exact.
        """
        k = self.k
        query_ids = np.asarray(query_ids, dtype=np.int64)
        for positions, qi in _groups(query_ids):
            heap = self.heaps[qi]
            group_d = distances[positions]
            group_i = db_ids[positions]
            if len(heap) == k and group_d.shape[0] > _OFFER_SKIP_MIN:
                keep = group_d <= -heap[0][0]
                group_d = group_d[keep]
                group_i = group_i[keep]
            for d, i in zip(group_d.tolist(), group_i.tolist()):
                offer(heap, k, d, i)
            if len(heap) == k:
                self.radii[qi] = -heap[0][0]

    def results(self) -> NeighborArrays:
        """The accumulated answers as CSR columns (rows unsorted)."""
        return heaps_to_arrays(self.heaps)
