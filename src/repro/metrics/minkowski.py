"""Minkowski ``L_p`` metrics on real vectors.

The paper's Section 4 studies ``d(x, y) = (sum_i |x_i - y_i|^p)^(1/p)`` for
real ``p >= 1`` and ``d(x, y) = max_i |x_i - y_i|`` for ``p = inf``.  These
implementations are fully vectorized and chunk large batch computations so
that a million-point database against a dozen sites never materializes an
``n x m x d`` intermediate.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from repro.metrics.base import Metric

__all__ = [
    "MinkowskiMetric",
    "CityblockDistance",
    "EuclideanDistance",
    "ChebyshevDistance",
    "minkowski_distance",
]

#: Rows per chunk in batch distance computation; bounds peak memory at
#: roughly ``_CHUNK_ROWS * m * d`` floats.
_CHUNK_ROWS = 16384


def minkowski_distance(x: np.ndarray, y: np.ndarray, p: float) -> float:
    """Return the ``L_p`` distance between two vectors.

    ``p`` may be any real number ``>= 1`` or ``math.inf``.
    """
    if p < 1:
        raise ValueError(f"L_p requires p >= 1, got p={p}")
    diff = np.abs(np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64))
    if p == math.inf:
        return float(diff.max()) if diff.size else 0.0
    if p == 1:
        return float(diff.sum())
    if p == 2:
        return float(np.sqrt(np.sum(diff * diff)))
    return float(np.sum(diff**p) ** (1.0 / p))


def _as_2d(points: Union[np.ndarray, Sequence]) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"expected 2-d point array, got shape {arr.shape}")
    return arr


class MinkowskiMetric(Metric):
    """The ``L_p`` metric on ``R^d`` for ``p >= 1`` (``p = math.inf`` allowed)."""

    def __init__(self, p: float):
        if p < 1:
            raise ValueError(f"L_p requires p >= 1, got p={p}")
        self.p = p
        if p == math.inf:
            self.name = "Linf"
        elif p == int(p):
            self.name = f"L{int(p)}"
        else:
            self.name = f"L{p}"

    def distance(self, x, y) -> float:
        return minkowski_distance(x, y, self.p)

    def matrix(self, xs, ys) -> np.ndarray:
        a = _as_2d(xs)
        b = _as_2d(ys)
        if a.shape[1] != b.shape[1]:
            raise ValueError(
                f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
            )
        if a.shape[0] <= _CHUNK_ROWS:
            return self._block(a, b)
        out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
        for start in range(0, a.shape[0], _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, a.shape[0])
            out[start:stop] = self._block(a[start:stop], b)
        return out

    def _block(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distances for one chunk of rows; ``a`` is small enough to broadcast."""
        if self.p == 2 and a.shape[0] == 1 and b.shape[0] == 1:
            return np.array([[self._pair_l2(a, b)]])
        if self.p == 2:
            # ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b avoids the n*m*d blow-up.
            # ``np.add.reduce`` is ``np.sum`` without its Python-level
            # dispatch, which dominates on the tiny blocks of tree
            # frontiers and single queries.
            norms = (
                np.add.reduce(a * a, axis=1)[:, None]
                + np.add.reduce(b * b, axis=1)[None, :]
            )
            sq = norms - 2.0 * (a @ b.T)
            np.maximum(sq, 0.0, out=sq)
            # The subtraction cancels catastrophically when the points
            # (nearly) coincide — a self-distance comes out ~1e-8 instead
            # of 0.  Recompute the few suspect entries directly so batch
            # results match the scalar path exactly there.
            suspect = sq <= 1e-10 * norms
            if suspect.any():
                rows, cols = np.nonzero(suspect)
                diff = a[rows] - b[cols]
                sq[rows, cols] = np.sum(diff * diff, axis=1)
            return np.sqrt(sq)
        diff = np.abs(a[:, None, :] - b[None, :, :])
        if self.p == math.inf:
            return diff.max(axis=2)
        if self.p == 1:
            return diff.sum(axis=2)
        return np.sum(diff**self.p, axis=2) ** (1.0 / self.p)

    @staticmethod
    def _pair_l2(a: np.ndarray, b: np.ndarray) -> float:
        """The ``p = 2`` block formula for one pair, in Python floats.

        Single queries against one vantage or center (AESA rounds, List
        of Clusters centers, tree frontiers) make one-entry blocks; the
        same norms, product, clamp and cancellation repair as the array
        formula, with the scalar arithmetic done on floats — bit-identical
        values at a third of the numpy calls.
        """
        norms = float(np.add.reduce(a * a, axis=1)[0]) + float(
            np.add.reduce(b * b, axis=1)[0]
        )
        sq = max(norms - 2.0 * float((a @ b.T)[0, 0]), 0.0)
        if sq <= 1e-10 * norms:
            diff = a - b
            sq = float(np.add.reduce(diff * diff, axis=1)[0])
        return math.sqrt(sq)

    def pairwise(self, xs) -> np.ndarray:
        a = _as_2d(xs)
        out = self.matrix(a, a)
        # Enforce exact symmetry and a zero diagonal despite float error.
        out = 0.5 * (out + out.T)
        np.fill_diagonal(out, 0.0)
        return out

    def __repr__(self) -> str:
        return f"MinkowskiMetric(p={self.p})"


class CityblockDistance(MinkowskiMetric):
    """The ``L_1`` (Manhattan / cityblock) metric."""

    def __init__(self):
        super().__init__(1)


class EuclideanDistance(MinkowskiMetric):
    """The ``L_2`` (Euclidean) metric."""

    def __init__(self):
        super().__init__(2)


class ChebyshevDistance(MinkowskiMetric):
    """The ``L_inf`` (Chebyshev / maximum) metric."""

    def __init__(self):
        super().__init__(math.inf)
