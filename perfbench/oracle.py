"""Answer checks that do not go through the library under test.

- Exact kNN by brute force: NumPy differences for vectors; for words, a
  NumPy edit-distance dynamic programme over every query-word pair,
  itself spot-checked against a plain-Python edit distance.
- The census reference: ``np.unique`` over the argsorted rows of a
  NumPy-computed point-to-site distance matrix.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Entries of the NumPy edit-distance matrix re-checked in plain Python.
SPOT_CHECKS = 200
#: Rows of the census reference's distance matrix computed at a time.
CENSUS_BLOCK = 65_536
#: Cells of one NumPy edit-distance block, bounding its memory.
BLOCK_CELLS = 1 << 20


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance, two-row dynamic programme."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            current.append(min(previous[j] + 1, current[j - 1] + 1,
                               previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def euclidean_matrix(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Exact pairwise L2 by explicit differences (no dot-product trick)."""
    out = np.empty((queries.shape[0], points.shape[0]))
    for i, q in enumerate(queries):
        out[i] = np.sqrt(((points - q) ** 2).sum(axis=1))
    return out


def kth_distances(matrix: np.ndarray, k: int) -> np.ndarray:
    """Each row's ``k``-th smallest value: the exact kNN radius."""
    return np.partition(matrix, k - 1, axis=1)[:, k - 1]


def _by_length(codes: Sequence[List[int]]):
    """``(length, row numbers, codes matrix)`` per distinct word length."""
    groups: Dict[int, List[int]] = {}
    for row, word in enumerate(codes):
        groups.setdefault(len(word), []).append(row)
    return [
        (length, np.array(rows),
         np.array([codes[r] for r in rows], dtype=np.intp).reshape(len(rows), length))
        for length, rows in sorted(groups.items())
    ]


def edit_distance_matrix(queries: Sequence[str], points: Sequence[str]) -> np.ndarray:
    """Query-by-point unit-cost edit distances, ``int16``.

    The textbook programme ``D[i][j] = min(D[i-1][j] + 1, D[i][j-1] + 1,
    D[i-1][j-1] + (a_i != b_j))`` run on ``G[i][j] = D[i][j] - i - j``,
    which is 0 on both borders and obeys ``G[i][j] = min(G[i-1][j],
    G[i][j-1], G[i-1][j-1] - 1 - (a_i == b_j))``.  Words are grouped by
    length; one query character at a time updates the rows of many
    query-point pairs at once, and the left-to-right ``G[i][j-1]`` term
    is a running minimum over the point's positions.
    """
    alphabet = {c: i for i, c in enumerate(sorted(set("".join(queries))
                                                  | set("".join(points))))}
    longest = max(map(len, list(queries) + list(points)), default=0)
    if longest > 60:
        raise ValueError(f"words up to 60 characters fit int8 cells, got {longest}")
    query_groups = _by_length([[alphabet[c] for c in w] for w in queries])
    out = np.empty((len(queries), len(points)), dtype=np.int16)
    for n, point_rows, point_codes in _by_length([[alphabet[c] for c in w] for w in points]):
        # step[j, a, p] = 1 + (the j-th character of point p is a)
        step = 1 + (point_codes.T[:, None, :]
                    == np.arange(len(alphabet))[None, :, None]).astype(np.int8)
        chunk = max(1, BLOCK_CELLS // (len(point_rows) * (n + 1)))
        for m, query_rows, query_codes in query_groups:
            for lo in range(0, len(query_rows), chunk):
                codes = query_codes[lo : lo + chunk]
                g = np.zeros((n + 1, codes.shape[0], len(point_rows)), dtype=np.int8)
                for i in range(m):
                    np.minimum(g[1:], g[:-1] - step[:, codes[:, i]], out=g[1:])
                    # A loop of row minima: ``np.minimum.accumulate`` is
                    # far slower on int8 along this axis.
                    for j in range(1, n + 1):
                        np.minimum(g[j], g[j - 1], out=g[j])
                out[np.ix_(query_rows[lo : lo + chunk], point_rows)] = g[n].astype(np.int16) + (m + n)
    return out


def string_matrix(queries: Sequence[str], points: Sequence[str],
                  rng: np.random.Generator) -> np.ndarray:
    """:func:`edit_distance_matrix`, spot-checked entry by entry against
    :func:`levenshtein`."""
    matrix = edit_distance_matrix(queries, points)
    rows = rng.integers(0, len(queries), SPOT_CHECKS)
    cols = rng.integers(0, len(points), SPOT_CHECKS)
    for r, c in zip(rows, cols):
        if matrix[r, c] != levenshtein(queries[r], points[c]):
            raise AssertionError(
                f"edit distance of {queries[r]!r} and {points[c]!r} is "
                f"{levenshtein(queries[r], points[c])}, the matrix says {matrix[r, c]}"
            )
    return matrix


def recall_at_k(distances: np.ndarray, radius: float, k: int) -> float:
    """Tie-aware recall@k of one answer row: the share of its ``k`` slots
    holding a true ``k``-nearest neighbour (distance within the exact
    ``k``-th distance).  Missing slots count as misses."""
    return float(np.count_nonzero(distances <= radius * (1 + 1e-12))) / k


def census_reference(points: np.ndarray,
                     sites: np.ndarray) -> Tuple[int, int, Dict[int, int]]:
    """``(total, distinct, frequency of frequencies)`` of the permutations."""
    rows: List[np.ndarray] = []
    for start in range(0, points.shape[0], CENSUS_BLOCK):
        block = points[start : start + CENSUS_BLOCK]
        distances = np.sqrt(
            ((block[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2)
        )
        rows.append(np.argsort(distances, axis=1, kind="stable").astype(np.uint8))
    _, counts = np.unique(np.concatenate(rows), axis=0, return_counts=True)
    values, frequencies = np.unique(counts, return_counts=True)
    return (
        int(points.shape[0]),
        int(counts.shape[0]),
        {int(v): int(f) for v, f in zip(values, frequencies)},
    )
