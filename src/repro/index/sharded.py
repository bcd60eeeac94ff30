"""Sharded index: partition the database, fan queries out, merge answers.

:class:`ShardedIndex` splits a database into ``S`` balanced contiguous
shards, builds any inner index type over each shard, and answers every
query in the :class:`~repro.index.base.Index` API — ``knn`` / ``range`` /
``knn_approx``, single and batched — by fanning the query set out to the
shards and merging the per-shard answers.  Shard-local neighbor indices
are offset back into global database positions, and because the shards
are contiguous ranges, per-shard ``(distance, index)`` orderings merge
into exactly the global ordering: exact queries return answers identical
to the unsharded index — same neighbor sets, same tie-breaking — for any
shard count and any worker count.  The one caveat is inherited from the
batched engine (see :mod:`repro.index.base`): vectorized *float* metrics
compute through matrix kernels whose rounding can depend on the matrix
width, so Euclidean distances can differ from the unsharded index in the
last ulp; discrete metrics (strings, trees, matrices) share one integer
code path and are bit-identical.

Cost accounting is aggregated: every inner index wraps its own
:class:`~repro.metrics.base.CountingMetric`, and the fan-out charges the
sum of per-shard evaluation deltas to the sharded index's own counter, so
:class:`~repro.index.base.SearchStats` reads the same totals the
unsharded equivalent would report for exhaustive inner indexes (the sum
over a partition of the database is the whole database).  Budgeted
``knn_approx`` splits the budget across shards under one of two
policies (``budget_split``): *proportional* to shard size (rounding up,
each shard keeping at least ``k``), or — for distance-permutation
inners — a *global footrule split* that merges every shard's candidate
ranks into one ordering and budgets each shard exactly its share of the
global top, recovering most of the recall an independent per-shard
split gives up (see :meth:`ShardedIndex._global_fanout`).

Answers move as columns, not objects: every shard returns a
:class:`~repro.index.base.NeighborArrays` (or a footrule-rank matrix),
the merge is a vectorized CSR scatter with one scalar index rebase per
shard, and resident workers ship those same arrays across the process
boundary — inline for small replies, via one-shot shared-memory
segments for large ones — so no pickled ``Neighbor`` list ever crosses
the query path.

Execution runs through :mod:`repro.parallel`: the serial backend builds
and queries shards in order in-process (zero overhead, the reference
semantics), while a process pool builds shards from a zero-copy
shared-memory view of the database and serves queries from per-worker
shard replicas, published once as shared-memory payloads rather than
re-shipped per call.  Results are deterministic — identical across
``workers`` settings — because the fan-out/merge is ordered by shard.

``resident=True`` selects a third query engine: the supervised
worker-pool runtime (:mod:`repro.parallel.workerpool`).  One pinned
process per shard holds that shard resident — bounding memory to one
shard copy per worker, where the stateless pool can replicate up to
``S`` shards into each — and the fan-out enforces the index's
:class:`~repro.parallel.workerpool.QueryPolicy`: per-query deadlines,
crash detection, respawn-and-retry, and (under
``on_partial="degrade"``) honest partial answers merged from the
surviving shards, with :class:`~repro.index.base.SearchStats` carrying
``shards_answered`` / ``degraded`` / per-shard latencies.  Builds still
use ``workers``; residency is a query-path property.

Two practical notes: inner factories must be picklable for pool
execution (a class, ``functools.partial``, or module-level function, not
a lambda) and deterministic (seed any randomness inside the factory, do
not share a mutable generator across shards, or serial and pool builds
will diverge); and nesting a ``ShardedIndex`` inside a ``ShardedIndex``
is unsupported.
"""

from __future__ import annotations

import math
import pickle
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.index.base import Budget, Index, NeighborArrays
from repro.index.linear import LinearScan
from repro.metrics.base import Metric
from repro.parallel.census import shard_ranges
from repro.parallel.executor import Executor, get_executor, serial_workers
from repro.parallel.faults import FaultSpec
from repro.parallel.sharedmem import SharedDataset
from repro.parallel.workerpool import (
    BuildShardSource,
    FileShardSource,
    QueryPolicy,
    ShmShardSource,
    WorkerPool,
)

__all__ = ["ShardedIndex", "shard_index"]

InnerFactory = Callable[[Sequence[Any], Metric], Index]


def _combine(a: Optional[float], b: Optional[float]) -> Optional[float]:
    """Sum two optional per-shard figures across fan-out phases."""
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _run_shard_op(
    shard: Index, op: str, queries: Sequence[Any], arg: Any, budget: Budget
) -> Any:
    """Run one batched op on one shard, returning its column result.

    The single dispatch shared by all three engines (serial loop,
    stateless pool task, resident worker), so every engine produces the
    same per-shard columns: :class:`~repro.index.base.NeighborArrays`
    for the query ops, the footrule matrix for ``"footrules"`` (whose
    per-shard candidate limit rides the budget slot).
    """
    if op == "range":
        return shard.range_batch_arrays(queries, arg)
    if op == "knn":
        return shard.knn_batch_arrays(queries, arg)
    if op == "footrules":
        return shard.query_footrules(queries, budget)
    return shard.knn_approx_batch_arrays(queries, arg, budget=budget)


def _build_shard_task(
    dataset: SharedDataset,
    start: int,
    stop: int,
    factory: InnerFactory,
    metric: Metric,
) -> Tuple[type, dict]:
    """Build one shard's inner index in a worker; return its state.

    The shard's points come from the shared dataset (sliced in place);
    the returned state omits them so only the index payload travels back
    — the parent reattaches its own shard view.
    """
    points = dataset.resolve()[start:stop]
    index = factory(points, metric)
    state = dict(index.__dict__)
    state.pop("points")
    return type(index), state


def _query_shard_task(
    payload: SharedDataset,
    op: str,
    queries_dataset: SharedDataset,
    arg: Any,
    budget: Budget,
) -> Tuple[Any, int]:
    """Answer one shard's slice of a batched op in a stateless worker.

    The shard index is unpickled from its shared-memory payload once per
    worker process (cached), so repeated batches pay no per-call
    shipping.  Returns shard-local result columns plus the
    distance-evaluation delta, measured by the shard's own counter.
    """
    shard: Index = payload.resolve()
    queries = queries_dataset.resolve()
    before = shard.metric.count
    results = _run_shard_op(shard, op, queries, arg, budget)
    return results, shard.metric.count - before


class ShardedIndex(Index):
    """Partition any database across per-shard inner indexes.

    ``inner_factory(points, metric) -> Index`` builds each shard's index
    (default: :class:`~repro.index.linear.LinearScan`); ``n_shards``
    bounds the shard count (capped at ``len(points)``); ``workers``
    follows the library-wide convention (``None``/``0``/``"serial"`` for
    in-process execution, a positive integer for a process pool used for
    both builds and queries).  Close the index (or use it as a context
    manager) when a pool is attached, to release worker processes and
    shared-memory payloads.

    ``resident=True`` serves queries from one supervised, pinned worker
    process per shard (see :mod:`repro.parallel.workerpool`); ``policy``
    is the :class:`~repro.parallel.workerpool.QueryPolicy` those
    fan-outs enforce (default: unbounded deadline, one retry, exact
    answers) and ``faults`` injects deterministic worker failures for
    tests and benches (default: read from ``REPRO_FAULTS``).

    ``budget_split`` picks how a ``knn_approx`` budget is divided across
    shards: ``"proportional"`` gives each shard a share proportional to
    its size, ``"global"`` ranks every shard's candidates by their
    distance-permutation footrule in one merged ordering and budgets
    each shard its share of the global top (see :meth:`_global_fanout`),
    and ``"auto"`` (default) uses the global split whenever every inner
    index supports it (exposes ``query_footrules``) and falls back to
    proportional otherwise.
    """

    def __init__(
        self,
        points: Sequence[Any],
        metric: Metric,
        inner_factory: InnerFactory = LinearScan,
        *,
        n_shards: int = 4,
        workers: Optional[int] = None,
        resident: bool = False,
        policy: Optional[QueryPolicy] = None,
        faults: Optional[Sequence[FaultSpec]] = None,
        budget_split: str = "auto",
    ):
        if n_shards < 1:
            raise ValueError(f"need n_shards >= 1, got {n_shards}")
        # First, before anything can fail: close() may run on any
        # partially-built state, and under the query service it can be
        # reached from the drain path and teardown concurrently.
        self._close_lock = threading.Lock()
        self._inner_factory = inner_factory
        self._requested_shards = n_shards
        self._init_runtime(workers, resident, policy, faults, budget_split)
        try:
            super().__init__(points, metric)
        except BaseException:
            # A failed build (or a worker-pool spawn failure) must not
            # strand shared-memory segments or child processes behind a
            # half-constructed object only ``__del__`` might reap.
            self.close()
            raise

    def _init_runtime(
        self, workers, resident=False, policy=None, faults=None,
        budget_split="auto",
    ) -> None:
        """Set the execution-state attributes (also used by the loader)."""
        serial_workers(workers)  # validate the spec early
        if policy is not None and not isinstance(policy, QueryPolicy):
            raise TypeError(
                f"policy must be a QueryPolicy, got {type(policy).__name__}"
            )
        if budget_split not in ("auto", "proportional", "global"):
            raise ValueError(
                "budget_split must be 'auto', 'proportional', or "
                f"'global', got {budget_split!r}"
            )
        self._workers = workers
        self._resident = bool(resident)
        self._policy = policy if policy is not None else QueryPolicy()
        self._faults = faults
        self._budget_split = budget_split
        self._executor: Optional[Executor] = None
        self._query_payloads: Optional[List[SharedDataset]] = None
        self._worker_pool: Optional[WorkerPool] = None
        self._points_payload: Optional[SharedDataset] = None
        #: Set by the loader for disk-backed indexes; resident workers
        #: then reload shard state from this payload file on respawn.
        self._payload_path: Optional[str] = None
        #: How loaded shards (and their resident workers) hold the
        #: packed code section: decoded in RAM or memory-mapped.
        self._payload_backing: str = "ram"
        self._payload_cache_bytes: Optional[int] = None
        self._payload_block_elements: Optional[int] = None

    # ------------------------------------------------------------------
    # Build.
    # ------------------------------------------------------------------

    def _build(self) -> None:
        ranges = shard_ranges(len(self.points), self._requested_shards)
        self.shard_offsets = [start for start, _ in ranges] + [len(self.points)]
        raw_metric = self.metric.inner
        if serial_workers(self._workers):
            # Serial builds also cover resident indexes with serial
            # workers: their pinned pool spawns lazily on first query,
            # loading from the shards built (and published) here.
            self.shards: List[Index] = [
                self._inner_factory(self.points[start:stop], raw_metric)
                for start, stop in ranges
            ]
        elif self._resident:
            self._build_resident(ranges, raw_metric)
        else:
            dataset = SharedDataset.publish(self.points)
            try:
                built = self._get_executor().map(
                    _build_shard_task,
                    [
                        (dataset, start, stop, self._inner_factory, raw_metric)
                        for start, stop in ranges
                    ],
                )
            finally:
                dataset.unlink()
            self.shards = []
            for (start, stop), (cls, state) in zip(ranges, built):
                shard = cls.__new__(cls)
                shard.__dict__.update(state)
                shard.points = self.points[start:stop]
                self.shards.append(shard)
        # Charge aggregate shard build cost to this index's own counter,
        # which Index.__init__ is about to read into stats.
        self.metric.count += sum(s.stats.build_distances for s in self.shards)
        if self._budget_split == "global" and not all(
            hasattr(shard, "query_footrules") for shard in self.shards
        ):
            raise TypeError(
                "budget_split='global' needs inner indexes that expose "
                "query_footrules() (distance-permutation indexes); got "
                f"{type(self.shards[0]).__name__}"
            )

    def _build_resident(
        self, ranges: Sequence[Tuple[int, int]], raw_metric: Metric
    ) -> None:
        """Build the shards inside their pinned workers (resident mode).

        Residency extends to the build path when a process pool is
        requested: each worker constructs its own shard from a zero-copy
        publication of the database and ships the finished structure
        back through the supervised ``"state"`` op — so a worker that
        crashes mid-build is respawned (deterministically rebuilding its
        shard) and the collection retried.  Collection always runs under
        the default exact-answer policy, never ``on_partial="degrade"``:
        a missing shard is acceptable in a query answer, not in the
        index structure.  The parent keeps a mirror of every shard for
        budget planning and serialization; workers keep theirs resident
        for queries.
        """
        if self._points_payload is None:
            self._points_payload = SharedDataset.publish(self.points)
        sources = [
            BuildShardSource(
                self._points_payload, start, stop,
                self._inner_factory, raw_metric,
            )
            for start, stop in ranges
        ]
        self._worker_pool = WorkerPool(sources, faults=self._faults)
        blobs, _, _, _ = self._worker_pool.query(
            "state", (), 0, [None] * len(ranges), QueryPolicy()
        )
        self.shards = []
        for (start, stop), blob in zip(ranges, blobs):
            cls, state = pickle.loads(blob.tobytes())
            shard = cls.__new__(cls)
            shard.__dict__.update(state)
            shard.points = self.points[start:stop]
            self.shards.append(shard)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # Fan-out execution.
    # ------------------------------------------------------------------

    def _get_executor(self) -> Executor:
        if self._executor is None:
            self._executor = get_executor(self._workers)
        return self._executor

    def _ensure_worker_pool(self) -> WorkerPool:
        """Spawn the pinned worker-per-shard pool on first resident query.

        Each worker gets a *source* it can reload its shard from on
        every (re)spawn: the owner's shared-memory publication of the
        built shard, or — for disk-backed indexes restored by
        ``load_sharded`` — the Corollary-8 payload file plus a
        shared-memory view of the full point set (so respawns reread
        only the packed codes, never the database).
        """
        if self._worker_pool is None:
            if self._payload_path is not None:
                if self._points_payload is None:
                    self._points_payload = SharedDataset.publish(self.points)
                raw_metric = self.metric.inner
                sources: List[Any] = [
                    FileShardSource(
                        self._payload_path,
                        s,
                        self._points_payload,
                        self.shard_offsets[s],
                        self.shard_offsets[s + 1],
                        raw_metric,
                        backing=self._payload_backing,
                        cache_bytes=self._payload_cache_bytes,
                        block_elements=self._payload_block_elements,
                    )
                    for s in range(self.n_shards)
                ]
            else:
                sources = [
                    ShmShardSource(payload)
                    for payload in self._publish_shards()
                ]
            self._worker_pool = WorkerPool(sources, faults=self._faults)
        return self._worker_pool

    def _split_budget(self, k: int, budget: Optional[int]) -> List[Optional[int]]:
        """Per-shard budgets, proportional to shard size (rounded up).

        Each shard keeps at least ``min(k, shard size)`` so every shard
        can still surface ``k`` candidates for the global merge; the
        ceiling rounding over-allocates by at most one evaluation per
        shard.  ``None`` (exact) stays ``None`` everywhere.
        """
        if budget is None:
            return [None] * self.n_shards
        n = len(self.points)
        out: List[Optional[int]] = []
        for s in range(self.n_shards):
            size = self.shard_offsets[s + 1] - self.shard_offsets[s]
            out.append(max(min(k, size), math.ceil(budget * size / n)))
        return out

    def _execute(
        self,
        op: str,
        queries: Sequence[Any],
        arg: Any,
        budgets: Sequence[Budget],
        active: Optional[Sequence[bool]] = None,
    ) -> Tuple[
        List[Optional[Any]],
        Optional[List[Optional[float]]],
        Optional[List[Optional[int]]],
    ]:
        """Run one batched op on the (active) shards through the engine.

        Returns ``(per_shard, latencies, reply_bytes)``.  ``per_shard``
        holds shard-local column results — ``None`` for shards masked
        out by ``active`` and, in resident degrade mode, shards that
        failed past the policy's bounds.  ``latencies`` / ``reply_bytes``
        are per-shard lists in resident mode and ``None`` for the
        in-process engines (which have no wire).  Evaluation deltas from
        every shard are charged to this index's counter.
        """
        n = self.n_shards
        if active is None:
            active = [True] * n
        if self._resident:
            pool = self._ensure_worker_pool()
            per_shard, deltas, latencies, reply_bytes = pool.query(
                op, queries, arg, budgets, self._policy, active=active
            )
            self.metric.count += sum(deltas)
            return per_shard, latencies, reply_bytes
        if serial_workers(self._workers):
            per_shard = []
            for s, shard in enumerate(self.shards):
                if not active[s]:
                    per_shard.append(None)
                    continue
                before = shard.metric.count
                per_shard.append(
                    _run_shard_op(shard, op, queries, arg, budgets[s])
                )
                self.metric.count += shard.metric.count - before
            return per_shard, None, None
        payloads = self._publish_shards()
        # Per-call payload: ephemeral, so workers copy-and-close
        # instead of caching — repeated batches cannot grow worker
        # memory (the shard replicas above are the only cached state).
        queries_dataset = SharedDataset.publish(
            queries if hasattr(queries, "dtype") else list(queries),
            ephemeral=True,
        )
        try:
            answers = self._get_executor().map(
                _query_shard_task,
                [
                    (payloads[s], op, queries_dataset, arg, budgets[s])
                    for s in range(n)
                    if active[s]
                ],
            )
        finally:
            queries_dataset.unlink()
        per_shard = [None] * n
        answer = iter(answers)
        for s in range(n):
            if active[s]:
                results, delta = next(answer)
                per_shard[s] = results
                self.metric.count += delta
        return per_shard, None, None

    def _note_resident(
        self,
        per_shard: Sequence[Optional[Any]],
        latencies: Sequence[Optional[float]],
        reply_bytes: Sequence[Optional[int]],
    ) -> None:
        """Record resilience and IPC observability from a resident fan-out.

        Shards that failed past the policy's retry/deadline bounds are
        ``None`` in ``per_shard`` (possible only under
        ``on_partial="degrade"``) and are simply absent from the merge —
        a *subset* answer, flagged via ``stats.degraded`` /
        ``stats.shards_answered`` rather than returned silently.
        """
        answered = sum(1 for r in per_shard if r is not None)
        self.stats.shards_answered = answered
        self.stats.shard_latencies_s = tuple(latencies)
        self.stats.shard_reply_bytes = tuple(reply_bytes)
        self.stats.reply_bytes += sum(
            b for b in reply_bytes if b is not None
        )
        if answered < self.n_shards:
            self.stats.degraded = True

    def _merge_columns(
        self, per_shard: Sequence[Optional[NeighborArrays]], n_queries: int
    ) -> NeighborArrays:
        """Vectorized column merge of per-shard answers into global rows.

        One scatter per shard places its distance/index columns into the
        merged CSR layout — the global position of shard ``s``'s
        ``i``-th entry for query ``q`` is the merged row start, plus the
        entries already placed by earlier shards, plus ``i`` — and a
        single scalar add rebases shard-local indices into global
        database positions.  Rows keep shard-major order; the public
        API's final sort restores the global ``(distance, index)``
        order, identical to the unsharded index.
        """
        answered = [
            (s, rows) for s, rows in enumerate(per_shard) if rows is not None
        ]
        if not answered:
            return NeighborArrays.empty(n_queries)
        merged_counts = np.zeros(n_queries, dtype=np.int64)
        for _, rows in answered:
            merged_counts += rows.counts()
        offsets = np.zeros(n_queries + 1, dtype=np.int64)
        np.cumsum(merged_counts, out=offsets[1:])
        distances = np.empty(int(offsets[-1]), dtype=np.float64)
        indices = np.empty(int(offsets[-1]), dtype=np.int64)
        placed = np.zeros(n_queries, dtype=np.int64)
        for s, rows in answered:
            counts = rows.counts()
            within = np.arange(rows.indices.shape[0], dtype=np.int64)
            within -= np.repeat(rows.offsets[:-1], counts)
            target = np.repeat(offsets[:-1] + placed, counts) + within
            distances[target] = rows.distances
            indices[target] = rows.indices + self.shard_offsets[s]
            placed += counts
        return NeighborArrays(distances, indices, offsets)

    def _fanout(
        self,
        op: str,
        queries: Sequence[Any],
        arg: Any,
        budget: Optional[int] = None,
    ) -> NeighborArrays:
        """Run one batched operation on every shard and merge the answers.

        Per-shard results arrive as sorted columns with shard-local
        indices; :meth:`_merge_columns` rebases and concatenates them.
        ``knn-approx`` budgets split proportionally here; the global
        footrule split routes through :meth:`_global_fanout` instead.
        """
        budgets: Sequence[Budget] = (
            self._split_budget(arg, budget)
            if op == "knn-approx"
            else [None] * self.n_shards
        )
        per_shard, latencies, reply_bytes = self._execute(
            op, queries, arg, budgets
        )
        if latencies is not None:
            self._note_resident(per_shard, latencies, reply_bytes)
        return self._merge_columns(per_shard, len(queries))

    def _use_global_split(self, budget: Optional[int]) -> bool:
        """Whether this ``knn_approx`` call takes the global footrule split."""
        if budget is None or self._budget_split == "proportional":
            return False
        supported = all(
            hasattr(shard, "query_footrules") for shard in self.shards
        )
        if self._budget_split == "global":
            if not supported:
                raise TypeError(
                    "budget_split='global' needs inner indexes that "
                    "expose query_footrules() (distance-permutation "
                    f"indexes); got {type(self.shards[0]).__name__}"
                )
            return True
        return supported  # "auto"

    def _allocate_budget(
        self,
        footrules: Sequence[Optional[np.ndarray]],
        survivors: Sequence[int],
        cap: int,
        n_queries: int,
    ) -> Dict[int, np.ndarray]:
        """Rank candidates globally by footrule and split the budget.

        Every surviving shard shipped its per-query ascending centered
        footrule values (see ``DistPermIndex.query_footrules`` for why
        centering makes the values comparable across shards' distinct
        site sets); concatenating them and keeping the ``cap`` smallest
        per query yields the global candidate set this fan-out may
        evaluate.  Exact value ties resolve by the stable sort to the
        lower shard id and lower within-shard rank — a fixed total
        order, so the allocation is deterministic across engines.  A
        shard's allocation is the number of its candidates in that set,
        a per-query int array it spends exactly.  Shards that failed
        the footrule phase are absent from the merge, so their share
        flows to the survivors — degrade-mode budget redistribution
        falls out of the ranking rather than needing a separate code
        path.
        """
        allocations: Dict[int, np.ndarray] = {}
        if not survivors:
            return allocations
        values = np.concatenate(
            [footrules[s] for s in survivors], axis=1
        )
        labels = np.concatenate(
            [
                np.full(footrules[s].shape[1], s, dtype=np.int64)
                for s in survivors
            ]
        )
        take = min(cap, values.shape[1])
        if take < values.shape[1]:
            chosen = np.argsort(values, axis=1, kind="stable")[:, :take]
            chosen_labels = labels[chosen]
        else:
            chosen_labels = np.broadcast_to(labels, values.shape)
        for s in survivors:
            allocations[s] = (chosen_labels == s).sum(axis=1).astype(np.int64)
        return allocations

    def _global_fanout(
        self, queries: Sequence[Any], k: int, budget: int
    ) -> NeighborArrays:
        """Budgeted ``knn_approx`` under the global footrule split.

        Two supervised phases over the same engine.  Phase one asks
        every shard for its per-query ascending *centered* footrule
        values of its best ``min(budget', shard size)`` candidates
        (``budget'`` is the usual clamp ``max(k, min(budget, n))``);
        the owner merges those value arrays into one global ordering
        and allocates each shard the portion of the top ``budget'``
        candidates that live in it.
        Phase two runs the ordinary budgeted scan with those per-query
        per-shard budgets.  Shards whose global allocation is zero for
        every query are skipped outright (their honest answer is empty);
        shards that failed phase one are excluded from phase two and the
        merge, and — because the allocation ranks only surviving shards'
        candidates — their budget share automatically redistributes to
        the survivors.
        """
        n_queries = len(queries)
        cap = max(k, min(int(budget), len(self.points)))
        limits = [
            min(cap, self.shard_offsets[s + 1] - self.shard_offsets[s])
            for s in range(self.n_shards)
        ]
        footrules, lat1, rb1 = self._execute(
            "footrules", queries, None, limits
        )
        survivors = [
            s for s in range(self.n_shards) if footrules[s] is not None
        ]
        allocations = self._allocate_budget(
            footrules, survivors, cap, n_queries
        )
        active = [False] * self.n_shards
        budgets: List[Budget] = [None] * self.n_shards
        for s in survivors:
            budgets[s] = allocations[s]
            active[s] = bool(allocations[s].any())
        per_shard, lat2, rb2 = self._execute(
            "knn-approx", queries, k, budgets, active
        )
        for s in survivors:
            if not active[s]:
                per_shard[s] = NeighborArrays.empty(n_queries)
        if lat1 is not None:
            latencies = [_combine(a, b) for a, b in zip(lat1, lat2)]
            reply_bytes = [_combine(a, b) for a, b in zip(rb1, rb2)]
            self._note_resident(per_shard, latencies, reply_bytes)
        return self._merge_columns(per_shard, n_queries)

    def _publish_shards(self) -> List[SharedDataset]:
        """Publish each built shard once for pool workers to replicate.

        Publication is resumable: payloads append to the tracked list as
        they are created, so if one publish fails (``/dev/shm`` full,
        say) the ones already made stay reachable through ``close()``
        instead of leaking behind a local variable, and a retry picks up
        where the failure left off.
        """
        if self._query_payloads is None:
            self._query_payloads = []
        while len(self._query_payloads) < len(self.shards):
            self._query_payloads.append(
                SharedDataset.publish(self.shards[len(self._query_payloads)])
            )
        return self._query_payloads

    # ------------------------------------------------------------------
    # Index implementation hooks.
    # ------------------------------------------------------------------

    def _range_batch_impl(
        self, queries: Sequence[Any], radius: float
    ) -> NeighborArrays:
        return self._fanout("range", queries, radius)

    def _knn_batch_impl(
        self, queries: Sequence[Any], k: int
    ) -> NeighborArrays:
        return self._fanout("knn", queries, k)

    def _knn_approx_batch_impl(
        self, queries: Sequence[Any], k: int, budget: Budget
    ) -> NeighborArrays:
        if isinstance(budget, np.ndarray):
            raise TypeError(
                "ShardedIndex takes a scalar knn_approx budget; per-query "
                "budget arrays are the *output* of its budget split"
            )
        if self._use_global_split(budget):
            return self._global_fanout(queries, k, budget)
        return self._fanout("knn-approx", queries, k, budget)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release workers and shared-memory payloads (idempotent).

        Safe on partially-built indexes: a constructor that failed
        mid-build calls this before re-raising, at which point any
        subset of the runtime attributes may exist — hence the
        ``getattr`` reads rather than attribute access.

        Re-entrant by construction: every resource is detached from the
        instance before it is released (a second close sees ``None``),
        calls are serialized by a lock (the query service's drain path
        closes from the event-loop thread while test teardown or
        ``__del__`` may close from another), and each stage runs under
        ``try/finally`` — a worker pool that fails to shut down cannot
        leave shared-memory segments stranded behind it.
        """
        lock = getattr(self, "_close_lock", None)
        if lock is not None:
            lock.acquire()
        try:
            pool = getattr(self, "_worker_pool", None)
            payloads = getattr(self, "_query_payloads", None)
            points_payload = getattr(self, "_points_payload", None)
            executor = getattr(self, "_executor", None)
            self._worker_pool = None
            self._query_payloads = None
            self._points_payload = None
            self._executor = None
            try:
                if pool is not None:
                    pool.close()
            finally:
                try:
                    if payloads is not None:
                        for payload in payloads:
                            payload.unlink()
                finally:
                    try:
                        if points_payload is not None:
                            points_payload.unlink()
                    finally:
                        if executor is not None:
                            executor.close()
            # Loaded mmap-backed shards hold open file mappings; release
            # them with the rest of the runtime.
            for shard in getattr(self, "shards", []) or []:
                shard_close = getattr(shard, "close", None)
                if callable(shard_close):
                    shard_close()
        finally:
            if lock is not None:
                lock.release()

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        inner = type(self.shards[0]).__name__ if self.shards else "?"
        return (
            f"ShardedIndex(n={len(self.points)}, shards={self.n_shards}, "
            f"inner={inner}, workers={self._workers!r})"
        )


def shard_index(
    index: Index,
    *,
    n_shards: int,
    workers: Optional[int] = None,
    inner_factory: Optional[InnerFactory] = None,
    resident: bool = False,
    policy: Optional[QueryPolicy] = None,
    faults: Optional[Sequence[FaultSpec]] = None,
    budget_split: str = "auto",
) -> ShardedIndex:
    """Wrap an existing index's database in a :class:`ShardedIndex`.

    Rebuilds per-shard indexes of ``type(index)`` (or ``inner_factory``)
    over the same points and metric.  Index types whose constructors need
    more than ``(points, metric)`` — pivot counts, site counts, seeds —
    should pass an explicit ``inner_factory`` (e.g. a
    ``functools.partial``) to control those parameters per shard.
    ``resident`` / ``policy`` / ``faults`` / ``budget_split`` select and
    configure the supervised worker runtime and the ``knn_approx``
    budget division exactly as on :class:`ShardedIndex`.
    """
    factory = inner_factory if inner_factory is not None else type(index)
    return ShardedIndex(
        index.points,
        index.metric.inner,
        factory,
        n_shards=n_shards,
        workers=workers,
        resident=resident,
        policy=policy,
        faults=faults,
        budget_split=budget_split,
    )
