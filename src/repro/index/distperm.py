"""The paper's ``distperm`` index: distance permutations per element.

Instead of LAESA's ``k`` stored *distances* per element, only the
*permutation* of the ``k`` sites by distance is kept (Chávez, Figueroa,
and Navarro's proximity-preserving order).  Storage drops from
``O(k log n)`` to ``O(k log k)`` bits per element — and, by the paper's
counting results, to ``ceil(log2 N)`` bits with a table of the ``N``
realized permutations (``Θ(d log k)`` in ``d``-dimensional Euclidean
space, Corollary 8).

The in-memory representation is the code engine's: one ``uint64`` Lehmer
rank per element (:func:`~repro.core.permutation.encode_permutations`,
exact through ``k = 20``) plus a ``uint8`` rank-position matrix feeding
the batched footrule kernel through a reused scratch workspace; the
``(n, k)`` row matrix exists only on demand (:attr:`permutations`).

Search with permutations is *approximate*: candidates are visited in order
of Spearman footrule between their stored permutation and the query's, and
a budget caps how many true distances are evaluated.  ``knn_query`` /
``range_query`` remain exact by evaluating every candidate (permutations
admit no correct exclusion bound); the interesting trade-off is
:meth:`knn_approx`'s recall-vs-budget curve, exercised by the search
benchmark.

This is also the measurement instrument for Tables 2 and 3:
:meth:`unique_permutations` is the census the paper computes with
``sort | uniq | wc``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.bitpack import PackedPermutationStore
from repro.core.entropy import EntropyReport, entropy_report
from repro.core.permutation import (
    compact_position_dtype,
    decode_permutations,
    encode_permutations,
    footrule_matrix_batch,
    permutation_positions,
    permutations_from_distances,
)
from repro.core.storage import MappedCodeStore, StorageReport, storage_report
from repro.index.base import Budget, Index, NeighborArrays
from repro.index.batching import (
    exhaustive_knn_batch,
    exhaustive_range_batch,
    query_chunks,
    take_points,
)
from repro.index.pivots import select_pivots
from repro.metrics.base import Metric

__all__ = ["DistPermIndex"]


def _budget_candidates(footrules: np.ndarray, budget: int) -> np.ndarray:
    """Candidate set of one query: the ``budget`` best footrule ranks.

    Matches the prefix of a *stable* argsort exactly: every index whose
    footrule is strictly below the partition boundary, then the
    lowest-numbered indices at the boundary value until the budget is
    filled.  ``np.argpartition`` keeps this O(n) instead of O(n log n).
    """
    n = footrules.shape[0]
    if budget <= 0:
        return np.empty(0, dtype=np.int64)
    if budget >= n:
        return np.arange(n)
    part = np.argpartition(footrules, budget - 1)[:budget]
    boundary = footrules[part].max()
    strict = np.flatnonzero(footrules < boundary)
    at_boundary = np.flatnonzero(footrules == boundary)
    return np.concatenate([strict, at_boundary[: budget - strict.shape[0]]])


class DistPermIndex(Index):
    """Distance-permutation index over ``k`` sites."""

    def __init__(
        self,
        points: Sequence[Any],
        metric: Metric,
        n_sites: int = 8,
        site_indices: Optional[Sequence[int]] = None,
        site_strategy: str = "random",
        rng: Optional[np.random.Generator] = None,
    ):
        if site_indices is None and n_sites < 1:
            raise ValueError("need at least one site")
        self._requested_sites = n_sites
        self._site_indices = (
            list(site_indices) if site_indices is not None else None
        )
        self._site_strategy = site_strategy
        self._rng = rng
        super().__init__(points, metric)

    def _build(self) -> None:
        if self._site_indices is None:
            self._site_indices = select_pivots(
                self.points,
                self.metric,
                min(self._requested_sites, len(self.points)),
                strategy=self._site_strategy,
                rng=self._rng,
            )
        self.site_indices = list(self._site_indices)
        self.sites = [self.points[i] for i in self.site_indices]
        distances = self.metric.to_sites(self.points, self.sites)
        perms = permutations_from_distances(distances)
        # The code representation: one Lehmer rank per element (uint64
        # for k <= 20) instead of a k-column row matrix.  Codes sort
        # lexicographically, so the unique-code table enumerates the same
        # realized permutations, in the same order, as np.unique(axis=0)
        # on rows — and `ids` is byte-identical to the row-view build.
        self.codes = encode_permutations(perms)
        self.table_codes, self.ids = np.unique(
            self.codes, return_inverse=True
        )
        self.table = decode_permutations(self.table_codes, perms.shape[1])
        self._cache_perm_positions(perms)

    @property
    def backing(self) -> str:
        """``"ram"`` (decoded arrays resident) or ``"mmap"`` (disk-backed)."""
        return getattr(self, "_backing", "ram")

    @property
    def code_store(self) -> Optional[MappedCodeStore]:
        """The mapped code section, when ``backing == "mmap"``."""
        return getattr(self, "_code_store", None)

    def close(self) -> None:
        """Release the mapped code section (no-op for RAM backing)."""
        store = getattr(self, "_code_store", None)
        if store is not None:
            store.close()

    def _materialized_codes(self) -> np.ndarray:
        """The full uint64 code array (streamed out of the store on mmap)."""
        if self.backing != "mmap":
            return self.codes
        store = self._code_store
        out = np.empty(store.count, dtype=np.uint64)
        for start, stop, codes in store.iter_blocks():
            out[start:stop] = codes
        return out

    def _distinct_codes(self) -> np.ndarray:
        """Sorted distinct codes; streamed set-union on the mmap path."""
        if self.backing != "mmap":
            return self.table_codes
        distinct = np.empty(0, dtype=np.uint64)
        for _, _, codes in self._code_store.iter_blocks():
            distinct = np.union1d(distinct, codes)
        return distinct

    @property
    def permutations(self) -> np.ndarray:
        """The ``(n, k)`` permutation matrix, materialized from codes.

        Kept as a property so the index itself stores only the code
        array plus the compact rank-position cache; the full row matrix
        exists only while a caller (``--dump``, probe checks, tests)
        actually looks at it.
        """
        if self.backing == "mmap":
            return decode_permutations(self._materialized_codes(), self.n_sites)
        return self.table[self.ids]

    def _cache_perm_positions(
        self, perms: Optional[np.ndarray] = None
    ) -> None:
        """Derive the cached row-wise inverse of the stored permutations.

        The inverse feeds batched footrule against any query set without
        re-inverting, held in the narrowest unsigned dtype
        (``uint8`` through ``k = 256``) so ``footrule_matrix_batch``
        never re-casts or re-derives it.  Shared by :meth:`_build` and
        the ``load_distperm`` loader, so a deserialized index can never
        lag behind the build-time caches.
        """
        if perms is None:
            # Restore path: invert only the (small) distinct-permutation
            # table, cast it narrow, then gather per element — the full
            # (n, k) row matrix is never materialized.
            k = self.table.shape[1]
            table_positions = permutation_positions(self.table).astype(
                compact_position_dtype(k)
            )
            self._perm_positions = table_positions[self.ids]
        else:
            k = perms.shape[1]
            self._perm_positions = permutation_positions(perms).astype(
                compact_position_dtype(k), copy=False
            )
        # Scratch buffers footrule_matrix_batch reuses across queries.
        self._footrule_workspace: dict = {}

    @property
    def n_sites(self) -> int:
        return len(self.site_indices)

    def query_permutation(self, query: Any) -> np.ndarray:
        """Compute the query's distance permutation (k metric evaluations)."""
        distances = self.metric.to_sites([query], self.sites)
        return permutations_from_distances(distances)[0]

    def query_permutations(self, queries: Sequence[Any]) -> np.ndarray:
        """Distance permutations of a whole query set in one ``to_sites`` call."""
        distances = self.metric.to_sites(queries, self.sites)
        return permutations_from_distances(distances)

    def add_points(self, new_points: Sequence[Any]) -> None:
        """Append elements to the index without a full rebuild.

        Online inserts are cheap for this structure because the sites
        are fixed at build time: a new element costs exactly its
        ``n_sites`` site distances (charged to ``build_distances``,
        like the original build), one Lehmer encoding, and a row in the
        rank-position cache.  The realized-permutation table grows by
        set union with the new codes and the per-element ids are
        remapped by binary search, so every attribute — codes, table,
        ids, positions — lands byte-identical to a fresh build of the
        combined database over the same site set.

        The site draw itself is **not** revisited: a growing database
        keeps the permutation space of its original sites, which is the
        trade inserts make against census fidelity (a fresh build could
        draw sites from the new elements too).
        """
        if self.backing == "mmap":
            raise RuntimeError(
                "add_points is not supported on an mmap-backed index; "
                "reload with backing='ram' to append"
            )
        if len(new_points) == 0:
            return
        query_count = self.metric.count
        distances = self.metric.to_sites(new_points, self.sites)
        new_perms = permutations_from_distances(distances)
        new_codes = encode_permutations(new_perms)
        if isinstance(self.points, np.ndarray):
            matrix = np.asarray(new_points, dtype=self.points.dtype)
            if matrix.ndim == 1:
                matrix = matrix.reshape(1, -1)
            if matrix.shape[1] != self.points.shape[1]:
                raise ValueError(
                    f"new points have dimension {matrix.shape[1]}, "
                    f"index has {self.points.shape[1]}"
                )
            self.points = np.concatenate([self.points, matrix])
        else:
            self.points = list(self.points) + list(new_points)
        self.codes = np.concatenate([self.codes, new_codes])
        # Table = union of realized codes; np.unique's inverse on a full
        # rebuild is exactly searchsorted against the sorted uniques, so
        # remapping old ids this way reproduces the fresh build bit for
        # bit.
        self.table_codes = np.unique(
            np.concatenate([self.table_codes, new_codes])
        )
        self.ids = np.searchsorted(self.table_codes, self.codes)
        self.table = decode_permutations(self.table_codes, self.n_sites)
        self._perm_positions = np.concatenate([
            self._perm_positions,
            permutation_positions(new_perms).astype(
                self._perm_positions.dtype, copy=False
            ),
        ])
        self._footrule_workspace = {}
        # The site evaluations are construction work: move them from the
        # query account to the build account, as __init__ does.
        delta = self.metric.count - query_count
        self.metric.count = query_count
        self.stats.build_distances += delta

    def unique_permutations(self) -> int:
        """The census of Tables 2–3: ``|{Π_y : y in database}|``."""
        return int(self._distinct_codes().shape[0])

    def distinct_permutation_set(self) -> Set[Tuple[int, ...]]:
        """The realized permutations themselves."""
        if self.backing == "mmap":
            table = decode_permutations(self._distinct_codes(), self.n_sites)
        else:
            table = self.table
        return {tuple(int(v) for v in row) for row in table}

    def storage(self) -> StorageReport:
        """Measured storage comparison for this database and site set."""
        return storage_report(
            n=len(self.points),
            k=self.n_sites,
            realized_permutations=self.unique_permutations(),
        )

    def packed(self) -> PackedPermutationStore:
        """Materialize the bit-packed table encoding (Corollary 8).

        The returned store holds the realized-permutation code table plus
        per-element ids at ``ceil(log2 N)`` bits each — the
        representation whose size the paper's counting results bound.
        Built straight from the stored code array; no row matrix is
        materialized.
        """
        return PackedPermutationStore.from_codes(
            self._materialized_codes(), self.n_sites
        )

    def entropy(self) -> EntropyReport:
        """Entropy accounting of the permutation-id distribution.

        How far below the fixed-width ``ceil(log2 N)`` an entropy code
        could go on this database (the "more sophisticated structure" the
        paper alludes to for small databases).
        """
        if self.backing == "mmap":
            ids = np.searchsorted(self._distinct_codes(), self._materialized_codes())
            return entropy_report(ids)
        return entropy_report(self.ids)

    def _footrules_matrix(self, query_perms: np.ndarray) -> np.ndarray:
        """Footrule of every query row against every stored permutation.

        RAM backing feeds the resident rank-position cache to
        ``footrule_matrix_batch`` in one call.  With mmap backing, the
        matrix is assembled column-block by column-block over the mapped
        code store — each block is decoded (through the LRU), inverted to
        positions, scored, and written into its output columns.  Footrule
        is per-column-independent integer math, so the assembled matrix
        is byte-identical to the one-shot RAM result.
        """
        if self.backing != "mmap":
            return footrule_matrix_batch(
                None,
                query_perms,
                positions=self._perm_positions,
                workspace=self._footrule_workspace,
            )
        store = self._code_store
        k = self.n_sites
        pos_dtype = compact_position_dtype(k)
        out = np.empty((query_perms.shape[0], store.count), dtype=np.int64)
        for start, stop, codes in store.iter_blocks():
            positions = permutation_positions(
                decode_permutations(codes, k)
            ).astype(pos_dtype, copy=False)
            out[:, start:stop] = footrule_matrix_batch(
                None,
                query_perms,
                positions=positions,
                workspace=self._footrule_workspace,
            )
        return out

    def candidate_order(self, query: Any) -> np.ndarray:
        """Database indices ordered by footrule to the query's permutation.

        This is the proximity-preserving order: elements whose permutation
        agrees with the query's are likely close, so they are evaluated
        first.
        """
        query_perm = self.query_permutation(query)
        footrules = self._footrules_matrix(query_perm.reshape(1, -1))[0]
        return np.argsort(footrules, kind="stable")

    def _clamp_budget(self, k: int, budget: Optional[int]) -> int:
        n = len(self.points)
        return n if budget is None else max(k, min(budget, n))

    # ------------------------------------------------------------------
    # Query engine.  Exact range and kNN must verify every candidate
    # (permutations admit no exclusion bound), so they scan the whole
    # database without spending the site evaluations a query
    # permutation would cost.  Approximate kNN makes one ``to_sites``
    # call for the whole query set, a chunked footrule matrix,
    # argpartition-based candidate selection, and one
    # ``batch_distances`` call per query for verification.
    # ------------------------------------------------------------------

    def _range_batch_impl(
        self, queries: Sequence[Any], radius: float
    ) -> NeighborArrays:
        return exhaustive_range_batch(self.metric, queries, self.points, radius)

    def _knn_batch_impl(
        self, queries: Sequence[Any], k: int
    ) -> NeighborArrays:
        return exhaustive_knn_batch(self.metric, queries, self.points, k)

    def query_footrules(
        self, queries: Sequence[Any], limit: int
    ) -> np.ndarray:
        """Each query's ``limit`` smallest *centered* footrules, ascending.

        The per-shard half of the sharded global-footrule budget split:
        the supervisor merges these value columns across shards to decide
        how many candidates each shard deserves per query.  Raw footrule
        values are not comparable across shards — each shard ranks
        against its own site set, so a lucky site draw shifts a shard's
        whole distribution low and would hoard the merged budget on
        noise.  Centering every row by the query's mean footrule over
        *all* points of this index (a statistic of the full distribution
        the method computes anyway) cancels that per-site-set shift
        while preserving the within-shard ordering, so the merged values
        rank candidates by how unusually close they sit in their own
        shard's permutation space.  Costs one ``to_sites`` call
        (``n_sites`` evaluations per query) — the same site distances a
        subsequent :meth:`knn_approx_batch` pays again, so serial,
        stateless, and resident execution charge identically.
        """
        n = len(self.points)
        limit = max(0, min(int(limit), n))
        out = np.empty((len(queries), limit), dtype=np.float64)
        if limit == 0 or len(queries) == 0:
            return out
        query_perms = self.query_permutations(queries)
        for start, stop in query_chunks(len(queries), n):
            footrules = self._footrules_matrix(query_perms[start:stop])
            means = footrules.mean(axis=1, keepdims=True)
            if limit >= n:
                block = np.sort(footrules, axis=1)
            else:
                block = np.sort(
                    np.partition(footrules, limit - 1, axis=1)[:, :limit],
                    axis=1,
                )
            out[start:stop] = block - means
        return out

    def _knn_approx_batch_impl(
        self, queries: Sequence[Any], k: int, budget: Budget
    ) -> NeighborArrays:
        n = len(self.points)
        row_budgets: Optional[np.ndarray] = None
        if isinstance(budget, np.ndarray):
            # Per-query budgets (the sharded global split): spent as
            # allocated — zero-budget rows stay empty, with no k floor,
            # so the global candidate total matches the requested budget.
            row_budgets = np.minimum(
                np.asarray(budget, dtype=np.int64), n
            )
            if not row_budgets.any():
                return NeighborArrays.empty(len(queries))
        else:
            budget = self._clamp_budget(k, budget)
        query_perms = self.query_permutations(queries)
        dist_parts: List[np.ndarray] = []
        index_parts: List[np.ndarray] = []
        counts = np.zeros(len(queries), dtype=np.int64)
        # Chunking here bounds the (queries x n) footrule *output*;
        # footrule_matrix_batch additionally bounds its 3-d intermediate.
        for start, stop in query_chunks(len(queries), n):
            footrules = self._footrules_matrix(query_perms[start:stop])
            for offset, row in enumerate(footrules):
                q = start + offset
                b = int(row_budgets[q]) if row_budgets is not None else budget
                candidates = _budget_candidates(row, b)
                if candidates.shape[0] == 0:
                    continue
                distances = self.metric.batch_distances(
                    [queries[q]], take_points(self.points, candidates)
                )[0]
                order = np.lexsort((candidates, distances))[:k]
                dist_parts.append(distances[order])
                index_parts.append(candidates[order])
                counts[q] = order.shape[0]
        offsets = np.zeros(len(queries) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if not dist_parts:
            return NeighborArrays.empty(len(queries))
        return NeighborArrays(
            np.concatenate(dist_parts),
            np.concatenate(index_parts).astype(np.int64),
            offsets,
        )
