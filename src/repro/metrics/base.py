"""Abstract metric interface and instrumentation wrappers.

The similarity-search literature measures search cost as the *number of
distance evaluations*, because in the motivating applications (images,
documents, genetic sequences) a single distance computation dominates
everything else.  :class:`CountingMetric` wraps any metric and counts
evaluations so indexes can report that cost faithfully.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional, Sequence

import numpy as np

__all__ = ["Metric", "CountingMetric"]


class Metric(ABC):
    """A distance function ``d`` over some universe of points.

    Subclasses must implement :meth:`distance`.  The default batch methods
    fall back to Python loops; metrics over numpy vectors override
    :meth:`matrix` with vectorized implementations.
    """

    #: Human-readable name used in experiment tables.
    name: str = "metric"

    @abstractmethod
    def distance(self, x: Any, y: Any) -> float:
        """Return ``d(x, y)``."""

    def __call__(self, x: Any, y: Any) -> float:
        return self.distance(x, y)

    def matrix(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        """Return the ``len(xs) x len(ys)`` matrix of pairwise distances."""
        out = np.empty((len(xs), len(ys)), dtype=np.float64)
        for i, x in enumerate(xs):
            out[i] = [self.distance(x, y) for y in ys]
        return out

    def encode(self, points: Sequence[Any]) -> Optional[Any]:
        """Return a reusable batched encoding of ``points``, or ``None``.

        Metrics with a batched kernel (the string family) return an
        encoded, cached form of the collection that
        :meth:`matrix_encoded` consumes; encoding a collection once and
        reusing it across every matrix call is what makes index builds,
        censuses, and batched queries on discrete data cheap.  The
        default returns ``None``: no encoded path, scalar or
        ndarray-vectorized ``matrix`` applies.  Encodings must support
        ``len()`` so instrumentation can count matrix entries.
        """
        return None

    def matrix_encoded(self, xs_encoded: Any, ys_encoded: Any) -> np.ndarray:
        """Distance matrix between two collections encoded by :meth:`encode`.

        Only meaningful for metrics whose :meth:`encode` returns a
        non-``None`` encoding; values must equal :meth:`matrix` on the
        decoded collections entry for entry.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no encoded matrix kernel"
        )

    def batch_distances_within(
        self, queries: Sequence[Any], points: Sequence[Any], radius: float
    ) -> np.ndarray:
        """Distance matrix specialized for range filtering at ``radius``.

        Entries whose true distance is ``<= radius`` are exact; entries
        beyond the radius may be replaced by any *lower bound* that still
        exceeds ``radius``, which lets metrics skip work on pairs a range
        query will discard (the Levenshtein length-gap prefilter and
        early-exit pruning).  The default computes the full exact matrix.
        """
        return self.batch_distances(queries, points)

    def batch_distances(
        self, queries: Sequence[Any], points: Sequence[Any]
    ) -> np.ndarray:
        """Return the ``len(queries) x len(points)`` distance matrix.

        This is the primitive behind every batched query path: row ``i``
        holds the distances from ``queries[i]`` to each point.  The default
        delegates to :meth:`matrix`, so metrics with a vectorized
        ``matrix`` override (the Minkowski family, matrix-backed spaces)
        are vectorized here for free, while string/tree/document metrics
        keep the scalar loop fallback.
        """
        return self.matrix(queries, points)

    def to_sites(self, points: Sequence[Any], sites: Sequence[Any]) -> np.ndarray:
        """Return the ``n x k`` matrix of distances from points to sites.

        This is the primitive underlying distance-permutation computation:
        row ``i`` holds the distances from ``points[i]`` to every site.
        """
        return self.matrix(points, sites)

    def pairwise(self, xs: Sequence[Any]) -> np.ndarray:
        """Return the symmetric all-pairs distance matrix of ``xs``.

        When the subclass overrides :meth:`matrix` with a vectorized
        implementation, the whole matrix is computed in one batched call
        and then symmetrized (exact symmetry and a zero diagonal despite
        float error).  Otherwise only the upper triangle is computed with
        the scalar metric; the lower triangle and the zero diagonal are
        filled in by symmetry.
        """
        if type(self).matrix is not Metric.matrix:
            out = np.asarray(self.matrix(xs, xs), dtype=np.float64)
            out = 0.5 * (out + out.T)
            np.fill_diagonal(out, 0.0)
            return out
        n = len(xs)
        out = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                d = self.distance(xs[i], xs[j])
                out[i, j] = d
                out[j, i] = d
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class CountingMetric(Metric):
    """Wrap a metric and count how many distances have been evaluated.

    Batch calls count one evaluation per matrix entry, matching the cost
    model of the SISAP library where batch operations are loops over the
    scalar metric.
    """

    def __init__(self, inner: Metric):
        self.inner = inner
        self.name = inner.name
        self.count = 0

    def reset(self) -> None:
        """Zero the evaluation counter."""
        self.count = 0

    def distance(self, x: Any, y: Any) -> float:
        self.count += 1
        return self.inner.distance(x, y)

    def matrix(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        self.count += len(xs) * len(ys)
        return self.inner.matrix(xs, ys)

    def batch_distances(
        self, queries: Sequence[Any], points: Sequence[Any]
    ) -> np.ndarray:
        self.count += len(queries) * len(points)
        return self.inner.batch_distances(queries, points)

    def encode(self, points: Sequence[Any]) -> Any:
        # Encoding is preprocessing, not a distance evaluation.
        return self.inner.encode(points)

    def matrix_encoded(self, xs_encoded: Any, ys_encoded: Any) -> np.ndarray:
        self.count += len(xs_encoded) * len(ys_encoded)
        return self.inner.matrix_encoded(xs_encoded, ys_encoded)

    def batch_distances_within(
        self, queries: Sequence[Any], points: Sequence[Any], radius: float
    ) -> np.ndarray:
        # Pruned entries still count: the cost model charges one
        # evaluation per matrix entry, pruned or not, so batched range
        # accounting matches the looped scalar scan exactly.
        self.count += len(queries) * len(points)
        return self.inner.batch_distances_within(queries, points, radius)

    def to_sites(self, points: Sequence[Any], sites: Sequence[Any]) -> np.ndarray:
        self.count += len(points) * len(sites)
        return self.inner.to_sites(points, sites)

    def pairwise(self, xs: Sequence[Any]) -> np.ndarray:
        n = len(xs)
        self.count += n * (n - 1) // 2
        return self.inner.pairwise(xs)

    def __repr__(self) -> str:
        return f"CountingMetric({self.inner!r}, count={self.count})"
