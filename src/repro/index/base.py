"""Common index interface: exact range / kNN queries with cost accounting.

Every index has one query engine: the batch hooks ``_range_batch_impl``,
``_knn_batch_impl`` and (optionally) ``_knn_approx_batch_impl``, which
answer a whole query set as :class:`NeighborArrays` columns.  Two public
surfaces sit on top of them:

**Batched** — :meth:`Index.range_batch`, :meth:`Index.knn_batch`, and
:meth:`Index.knn_approx_batch` (and their ``*_batch_arrays`` column
forms) answer a query set in one call.  Vectorized indexes amortize
metric evaluations into a few
:meth:`~repro.metrics.base.Metric.batch_distances` calls.

**Single-query** — :meth:`Index.range_query`, :meth:`Index.knn_query`,
and :meth:`Index.knn_approx` run the same hooks on a batch of one, so
both surfaces return the same neighbor sets with the same ``(distance,
index)`` tie-breaking and spend the same distance evaluations.
:class:`SearchStats` keeps one entry per query either way, so the
evaluation costs reported by experiments do not depend on which surface
drove the search.

One caveat bounds that equivalence: a vectorized metric may compute a
distance through a floating-point formula whose rounding depends on the
block shape (the Euclidean dot-product identity), so distances can
differ in the last ulp between a batch of one and a larger batch.
Candidate *sets* and tie-breaking on equal computed distances are
unaffected, but two distinct points at *exactly* equal true distance can
resolve to either equidistant neighbor.  Discrete metrics (strings,
trees, matrices) are bit-identical.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.metrics.base import CountingMetric, Metric

__all__ = ["Neighbor", "NeighborArrays", "SearchStats", "Index"]


@dataclass(frozen=True, order=True)
class Neighbor:
    """One query answer: database index plus its distance to the query."""

    distance: float
    index: int


class NeighborArrays:
    """Columnar neighbor results for a ragged batch of queries.

    The internal result plane of every index: three flat arrays in CSR
    layout instead of per-row ``list[Neighbor]`` objects.  Row ``q``'s
    neighbors live at ``[offsets[q], offsets[q + 1])`` of the parallel
    ``distances`` (float64) and ``indices`` (int64) columns; ``offsets``
    has ``n_queries + 1`` entries starting at 0.  Columns stay array-
    native end to end — through the batched index kernels, the sharded
    column merge, and the worker IPC channel — and are converted to
    ``Neighbor`` lists only at the public API boundary.
    """

    __slots__ = ("distances", "indices", "offsets")

    def __init__(
        self,
        distances: np.ndarray,
        indices: np.ndarray,
        offsets: np.ndarray,
    ):
        self.distances = np.asarray(distances, dtype=np.float64).reshape(-1)
        self.indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        self.offsets = np.asarray(offsets, dtype=np.int64).reshape(-1)

    def __reduce__(self):
        return (type(self), (self.distances, self.indices, self.offsets))

    def __repr__(self) -> str:
        return (
            f"NeighborArrays(n_queries={self.n_queries}, "
            f"n_results={self.indices.shape[0]})"
        )

    @property
    def n_queries(self) -> int:
        return self.offsets.shape[0] - 1

    def counts(self) -> np.ndarray:
        """Per-query result counts (``np.diff`` of the offsets)."""
        return self.offsets[1:] - self.offsets[:-1]

    @classmethod
    def empty(cls, n_queries: int) -> "NeighborArrays":
        return cls(
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
            np.zeros(n_queries + 1, dtype=np.int64),
        )

    @classmethod
    def from_lists(
        cls, rows: Sequence[Sequence[Neighbor]]
    ) -> "NeighborArrays":
        """Build columns from per-query ``Neighbor`` lists."""
        counts = np.asarray([len(row) for row in rows], dtype=np.int64)
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        distances = np.empty(total, dtype=np.float64)
        indices = np.empty(total, dtype=np.int64)
        pos = 0
        for row in rows:
            for neighbor in row:
                distances[pos] = neighbor.distance
                indices[pos] = neighbor.index
                pos += 1
        return cls(distances, indices, offsets)

    def row_list(self, row: int) -> List[Neighbor]:
        """Row ``row`` as a ``Neighbor`` list, in stored order."""
        start, stop = int(self.offsets[row]), int(self.offsets[row + 1])
        return [
            Neighbor(float(d), int(i))
            for d, i in zip(self.distances[start:stop],
                            self.indices[start:stop])
        ]

    def to_lists(self) -> List[List[Neighbor]]:
        """The public-API boundary view: per-query ``Neighbor`` lists."""
        return [self.row_list(q) for q in range(self.n_queries)]

    def row_ids(self) -> np.ndarray:
        """Query id of each stored entry (``repeat`` of the CSR counts)."""
        return np.repeat(
            np.arange(self.n_queries, dtype=np.int64), self.counts()
        )

    def sorted_rows(self) -> "NeighborArrays":
        """Each row sorted by ``(distance, index)`` — the public order."""
        if self.n_queries == 1:
            # One row (a single query): no row key to sort by.
            order = np.lexsort((self.indices, self.distances))
        else:
            order = np.lexsort((self.indices, self.distances, self.row_ids()))
        return NeighborArrays(
            self.distances[order], self.indices[order], self.offsets
        )

    def trim(self, k: int) -> "NeighborArrays":
        """Keep the first ``k`` stored entries of each row."""
        if self.indices.shape[0] <= k:
            return self  # no row can hold more than k entries
        counts = self.counts()
        rank = np.arange(self.indices.shape[0], dtype=np.int64)
        rank -= np.repeat(self.offsets[:-1], counts)
        keep = rank < k
        offsets = np.zeros_like(self.offsets)
        np.cumsum(np.minimum(counts, k), out=offsets[1:])
        return NeighborArrays(
            self.distances[keep], self.indices[keep], offsets
        )

    @classmethod
    def concat(
        cls, parts: Sequence["NeighborArrays"]
    ) -> "NeighborArrays":
        """Stack batches along the query axis (row-wise concatenation)."""
        if not parts:
            return cls.empty(0)
        if len(parts) == 1:
            return parts[0]
        distances = np.concatenate([p.distances for p in parts])
        indices = np.concatenate([p.indices for p in parts])
        pieces = [np.zeros(1, dtype=np.int64)]
        base = 0
        for p in parts:
            pieces.append(p.offsets[1:] + base)
            base += int(p.offsets[-1])
        return cls(distances, indices, np.concatenate(pieces))


#: An approximate-kNN budget: one scalar cap for the whole batch, or a
#: per-query int array (the sharded global-footrule split allocates one
#: candidate budget per query per shard).
Budget = Union[None, int, np.ndarray]


@dataclass
class SearchStats:
    """Distance evaluations spent building and querying an index.

    The fields past ``queries`` report on *resilience* and worker IPC
    and are populated only by sharded resident-mode queries
    (:class:`~repro.index.sharded.ShardedIndex` over a supervised worker
    pool): ``shards_answered`` counts the shards whose answers made the
    most recent merge, ``degraded`` is ``True`` when any query since the
    last :meth:`~Index.reset_stats` returned without all shards (a
    partial answer under ``on_partial="degrade"``), and
    ``shard_latencies_s`` holds the most recent fan-out's per-shard wall
    latencies (``None`` entries for shards that never answered).
    Elsewhere they stay at their defaults.
    """

    build_distances: int = 0
    query_distances: int = 0
    queries: int = 0
    shards_answered: Optional[int] = None
    degraded: bool = False
    shard_latencies_s: Optional[Tuple[Optional[float], ...]] = None
    #: Total bytes of worker replies (inline pickles plus shared-memory
    #: payloads) received since the last reset; resident mode only.
    reply_bytes: int = 0
    #: The most recent fan-out's per-shard reply sizes in bytes (``None``
    #: entries for shards that never answered); resident mode only.
    shard_reply_bytes: Optional[Tuple[Optional[int], ...]] = None

    @property
    def distances_per_query(self) -> float:
        return self.query_distances / self.queries if self.queries else 0.0


class Index(ABC):
    """Base class for proximity-search indexes.

    Subclasses implement :meth:`_range_batch_impl` and
    :meth:`_knn_batch_impl`, and may override
    :meth:`_knn_approx_batch_impl`; the public methods validate
    arguments and keep the distance-evaluation accounts.
    ``self.metric`` is a :class:`~repro.metrics.base.CountingMetric`
    wrapping the supplied metric, so every evaluation anywhere in the
    index is counted.
    """

    def __init__(self, points: Sequence[Any], metric: Metric):
        if len(points) == 0:
            raise ValueError("cannot index an empty database")
        self.points = points
        self.metric = CountingMetric(metric)
        self.stats = SearchStats()
        self._build()
        self.stats.build_distances = self.metric.count
        self.metric.reset()

    @abstractmethod
    def _build(self) -> None:
        """Construct the index; metric evaluations are charged to build."""

    # ------------------------------------------------------------------
    # Query engine hooks.  Each answers a whole query set and returns a
    # :class:`NeighborArrays` (rows need not be sorted; the public
    # methods sort and cut).  Single queries run as batches of one.
    # ------------------------------------------------------------------

    @abstractmethod
    def _range_batch_impl(
        self, queries: Sequence[Any], radius: float
    ) -> NeighborArrays:
        """Every point within ``radius`` of each query (inclusive)."""

    @abstractmethod
    def _knn_batch_impl(
        self, queries: Sequence[Any], k: int
    ) -> NeighborArrays:
        """The ``k`` nearest points of each query (``k <= len(points)``)."""

    def _knn_approx_batch_impl(
        self, queries: Sequence[Any], k: int, budget: Budget
    ) -> NeighborArrays:
        """Default approximate kNN: exact search, ``budget`` ignored.

        Budget-aware indexes (the permutation index) override this with a
        real recall-versus-evaluations trade-off.
        """
        return self._knn_batch_impl(queries, k)

    # ------------------------------------------------------------------
    # Public single-query API: views of one row of a batch of one.
    # ------------------------------------------------------------------

    def _batch_of_one(self, query: Any) -> Sequence[Any]:
        """``query`` as a one-query batch shaped like the database.

        Over an array database the batch is a one-row array, so the
        engine's gathers and the metric's array conversion stay cheap.
        """
        if isinstance(self.points, np.ndarray):
            return np.asarray(query)[None]
        return [query]

    def range_query(self, query: Any, radius: float) -> List[Neighbor]:
        """Return every database element within ``radius`` of ``query``.

        Results are sorted by distance (ties by index) and *exact*: the
        same set a linear scan returns.
        """
        return self.range_batch_arrays(
            self._batch_of_one(query), radius
        ).row_list(0)

    def knn_query(self, query: Any, k: int) -> List[Neighbor]:
        """Return the ``k`` nearest database elements, sorted by distance."""
        return self.knn_batch_arrays(self._batch_of_one(query), k).row_list(0)

    def knn_approx(
        self, query: Any, k: int, budget: Optional[int] = None
    ) -> List[Neighbor]:
        """Return (approximately) the ``k`` nearest elements under a budget.

        ``budget`` caps the number of true distance evaluations spent on
        candidates.  Exact indexes ignore it; the permutation index trades
        recall for evaluations along it.
        """
        return self.knn_approx_batch_arrays(
            self._batch_of_one(query), k, budget
        ).row_list(0)

    # ------------------------------------------------------------------
    # Public batched API.  The array methods are the primary surface —
    # results stay columnar from the kernels out — and the list methods
    # are thin boundary views over them.
    # ------------------------------------------------------------------

    def range_batch_arrays(
        self, queries: Sequence[Any], radius: float
    ) -> NeighborArrays:
        """Batched range search as columns, rows sorted by (d, index)."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        before = self.metric.count
        arrays = self._range_batch_impl(queries, radius).sorted_rows()
        self.stats.query_distances += self.metric.count - before
        self.stats.queries += arrays.n_queries
        return arrays

    def knn_batch_arrays(
        self, queries: Sequence[Any], k: int
    ) -> NeighborArrays:
        """Batched kNN as columns: ``k`` sorted entries per row."""
        if k < 1:
            raise ValueError("k must be >= 1")
        k = min(k, len(self.points))
        before = self.metric.count
        arrays = self._knn_batch_impl(queries, k).sorted_rows().trim(k)
        self.stats.query_distances += self.metric.count - before
        self.stats.queries += arrays.n_queries
        return arrays

    def knn_approx_batch_arrays(
        self, queries: Sequence[Any], k: int, budget: Budget = None
    ) -> NeighborArrays:
        """Batched approximate kNN as columns under an evaluation budget.

        ``budget`` may be a scalar cap shared by every query or a
        per-query int array (one entry per query); the sharded
        global-footrule split drives the latter.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        k = min(k, len(self.points))
        before = self.metric.count
        arrays = (
            self._knn_approx_batch_impl(queries, k, budget)
            .sorted_rows()
            .trim(k)
        )
        self.stats.query_distances += self.metric.count - before
        self.stats.queries += arrays.n_queries
        return arrays

    def range_batch(
        self, queries: Sequence[Any], radius: float
    ) -> List[List[Neighbor]]:
        """Batched :meth:`range_query`: one sorted result list per query.

        Equivalent to ``[self.range_query(q, radius) for q in queries]``
        — including :class:`SearchStats` accounting, which records one
        query per element of ``queries`` — but vectorized subclasses
        answer the whole batch with a few ``batch_distances`` calls.
        """
        return self.range_batch_arrays(queries, radius).to_lists()

    def knn_batch(
        self, queries: Sequence[Any], k: int
    ) -> List[List[Neighbor]]:
        """Batched :meth:`knn_query`: one sorted ``k``-list per query."""
        return self.knn_batch_arrays(queries, k).to_lists()

    def knn_approx_batch(
        self, queries: Sequence[Any], k: int, budget: Budget = None
    ) -> List[List[Neighbor]]:
        """Batched :meth:`knn_approx` under a per-query evaluation budget."""
        return self.knn_approx_batch_arrays(queries, k, budget).to_lists()

    def reset_stats(self) -> None:
        """Zero the query-cost accounts (build cost is preserved)."""
        self.stats.query_distances = 0
        self.stats.queries = 0
        self.stats.shards_answered = None
        self.stats.degraded = False
        self.stats.shard_latencies_s = None
        self.stats.reply_bytes = 0
        self.stats.shard_reply_bytes = None
        self.metric.reset()

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={len(self.points)})"
