"""String metrics: Levenshtein edit distance, prefix distance, Hamming.

The paper's experiments run on dictionaries and gene sequences under the
Levenshtein edit distance, and Section 3 introduces the *prefix metric* —
a tree metric on strings where an edit may only add or remove a letter at
the right-hand end (Definition 3).

All three metrics share the :class:`StringMetric` batched-kernel wiring:
``matrix`` (and therefore ``to_sites``, ``batch_distances``, and
``pairwise``) encodes each collection once into padded code-point
matrices (:mod:`repro.metrics.encoding`) and computes whole distance
matrices vectorized, falling back to the scalar loop for non-string
inputs and for matrices too small to repay a batched call's fixed
cost.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.metrics.base import Metric
from repro.metrics.encoding import (
    EncodedStrings,
    encode_strings,
    hamming_matrix,
    levenshtein_matrix,
    prefix_distance_matrix,
)

__all__ = [
    "levenshtein",
    "prefix_distance",
    "longest_common_prefix",
    "hamming",
    "StringMetric",
    "LevenshteinDistance",
    "PrefixDistance",
    "HammingDistance",
]

#: Strings longer than this use the numpy row-DP implementation.  Measured
#: crossover (CPython 3.11, numpy 2.4, random equal-length 'acgt' pairs,
#: best of 600 calls per length): Python DP 20 µs vs numpy 41 µs at
#: length 8, 72 µs vs 77 µs at 16, 162 µs vs 119 µs at 24, 298 µs vs
#: 150 µs at 32, 6.5 ms vs 0.84 ms at 160.  20 splits the measured 16–24
#: crossover band (the seed's 32 left ~2x on the table at length 32).
_NUMPY_THRESHOLD = 20

#: Shorter side at or above this takes the scalar Myers path instead of
#: the Wagner–Fischer DP.  Myers costs O(longer) int ops versus the DP's
#: O(longer · shorter) cells; the re-measured crossover (same protocol as
#: :data:`_NUMPY_THRESHOLD`: random equal-length 'acgt' pairs, best of
#: 2000 calls) never materializes — Myers wins at every length: 0.6 µs
#: vs 0.8 µs at length 1, 1.7 µs vs 4.6 µs at 4, 7.7 µs vs 61.7 µs at
#: 16, 49 µs vs 946 µs (Python) / 260 µs (numpy) at 64 — so the
#: threshold is 1 and the Python DP survives only as the sub-word
#: fallback oracle.
_MYERS_THRESHOLD = 1

#: Beyond one 64-bit word the scalar path would need blocked carries;
#: the batched kernels cover that shape, so scalar falls back to the DP.
_MYERS_MAX_LEN = 64

#: Matrices with at most this many entries loop the scalar kernel.  A
#: batched call pays a fixed cost the per-pair scalar path never does:
#: encoding both sides (and churning the encoding cache with one-off
#: collections), kernel planning, and the Myers pattern build.
#: Measured (CPython 3.11, numpy 2.4, one query against w points, mean
#: of 300 calls): dictionary words, batched 206/267/177/316 µs vs
#: scalar 6/36/102/612 µs at w = 1/4/16/64; 120-letter genome prefixes,
#: batched 6.1/4.0/3.8/3.9 ms vs scalar 0.09/0.35/2.7/8.6 ms.  Both
#: cross over between 16 and 64 pairs.  Tree frontiers, List of
#: Clusters buckets and AESA rounds on small batches live below it.
_SCALAR_MAX_PAIRS = 32


def _levenshtein_myers(a: str, b: str) -> int:
    """Single-pair Myers bit-vector DP; ``len(b) <= 64`` (one word).

    The scalar twin of :mod:`repro.metrics.bitparallel`: the pattern
    ``b`` lives in one Python int per bitmask and each character of
    ``a`` advances a whole DP column in ~15 int ops.  Exact for any
    alphabet — ``Peq`` is a dict keyed by character.
    """
    m = len(b)
    peq: dict = {}
    for i, c in enumerate(b):
        peq[c] = peq.get(c, 0) | (1 << i)
    full = (1 << m) - 1
    high = 1 << (m - 1)
    vp = full
    vn = 0
    score = m
    get = peq.get
    for c in a:
        eq = get(c, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = (vn | ~(xh | vp)) & full
        mh = vp & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = ((ph << 1) | 1) & full
        vp = ((mh << 1) | (~(xv | ph) & full)) & full
        vn = ph & xv
    return score


def _levenshtein_python(a: str, b: str) -> int:
    """Classic two-row Wagner–Fischer DP; fast for short strings."""
    if len(a) < len(b):
        a, b = b, a
    # b is the shorter string; the DP row has len(b) + 1 entries.
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def _levenshtein_numpy(a: str, b: str) -> int:
    """Row-vectorized Wagner–Fischer for long strings (gene sequences).

    The insertion dependency within a row is resolved with the standard
    prefix-minimum trick: ``row[j] = min_i<=j (t[i] + (j - i))`` equals
    ``j + cummin(t[i] - i)`` where ``t`` is the row before applying
    left-to-right insertions.
    """
    if len(a) < len(b):
        a, b = b, a
    an = np.frombuffer(a.encode("utf-32-le"), dtype=np.uint32)
    bn = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    m = bn.size
    offsets = np.arange(m + 1, dtype=np.int64)
    previous = offsets.copy()
    for i, ca in enumerate(an, start=1):
        sub = previous[:-1] + (bn != ca)
        dele = previous[1:] + 1
        t = np.empty(m + 1, dtype=np.int64)
        t[0] = i
        np.minimum(sub, dele, out=t[1:])
        # Resolve insertions: row[j] = min(t[j], min_{i<j} t[i] + (j-i)).
        previous = np.minimum.accumulate(t - offsets) + offsets
    return int(previous[-1])


def levenshtein(a: str, b: str, max_distance: Optional[int] = None) -> int:
    """Return the Levenshtein edit distance between two strings.

    Uses a pure-Python DP for very short strings, the scalar Myers
    bit-vector DP when the shorter side fits one 64-bit word, and a
    numpy-vectorized row DP beyond that, all computing the exact
    unit-cost insert/delete/substitute distance.  The DP only ever sees
    the middle of the strings: the common prefix and suffix are stripped
    first, since an optimal edit script never touches them.

    ``max_distance`` enables the ``|len(a) - len(b)|`` lower-bound
    short-circuit: when the length gap alone exceeds the bound, that gap
    (a valid lower bound on the distance, itself ``> max_distance``) is
    returned without running the DP.  Exact whenever the true distance is
    ``<= max_distance``.
    """
    if a == b:
        return 0
    lower = abs(len(a) - len(b))
    if max_distance is not None and lower > max_distance:
        return lower
    # Strip the common prefix and suffix: edits never touch them.
    start = 0
    limit = min(len(a), len(b))
    while start < limit and a[start] == b[start]:
        start += 1
    end_a, end_b = len(a), len(b)
    while end_a > start and end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    a = a[start:end_a]
    b = b[start:end_b]
    if not a or not b:
        # One side is a prefix+suffix of the other: the gap is the answer.
        return len(a) + len(b)
    if min(len(a), len(b)) >= _MYERS_THRESHOLD:
        if len(b) > len(a):
            a, b = b, a
        # b is now the shorter string — the Myers pattern.
        if len(b) <= _MYERS_MAX_LEN:
            return _levenshtein_myers(a, b)
        return _levenshtein_numpy(a, b)
    return _levenshtein_python(a, b)


def longest_common_prefix(a: str, b: str) -> int:
    """Return the length of the longest common prefix of two strings."""
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return i


def prefix_distance(a: str, b: str) -> int:
    """Return the prefix distance of Definition 3.

    Each edit adds or removes one letter at the right-hand end, so the
    distance is ``len(a) + len(b) - 2 * lcp(a, b)``: strip ``a`` down to
    the common prefix, then extend to ``b``.
    """
    return len(a) + len(b) - 2 * longest_common_prefix(a, b)


def hamming(a: str, b: str) -> int:
    """Return the Hamming distance between equal-length strings."""
    if len(a) != len(b):
        raise ValueError(
            f"Hamming distance requires equal lengths, got {len(a)} and {len(b)}"
        )
    return sum(ca != cb for ca, cb in zip(a, b))


class StringMetric(Metric):
    """Shared batched-kernel wiring for metrics on strings.

    :meth:`encode` turns a string collection into a cached
    :class:`~repro.metrics.encoding.EncodedStrings`; :meth:`matrix`
    dispatches to the subclass's vectorized :meth:`matrix_encoded`
    whenever both sides encode, and transparently falls back to the
    scalar double loop otherwise (mixed or non-string inputs) and for
    matrices of at most :data:`_SCALAR_MAX_PAIRS` entries.  Because
    ``to_sites``, ``batch_distances``, and ``pairwise`` all route through
    ``matrix``, every index build, census, and batched query gets the
    kernel without call-site changes.
    """

    def encode(self, points: Sequence[Any]) -> Optional[EncodedStrings]:
        if isinstance(points, EncodedStrings):
            return points
        try:
            return encode_strings(points)
        except TypeError:
            return None

    def matrix(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        if len(xs) * len(ys) <= _SCALAR_MAX_PAIRS:
            return super().matrix(xs, ys)
        xs_encoded = self.encode(xs)
        ys_encoded = self.encode(ys) if xs_encoded is not None else None
        if xs_encoded is None or ys_encoded is None:
            return super().matrix(xs, ys)
        return self.matrix_encoded(xs_encoded, ys_encoded)


class LevenshteinDistance(StringMetric):
    """Unit-cost edit distance; the metric of the dictionary databases."""

    name = "levenshtein"

    def distance(self, x: str, y: str) -> float:
        return float(levenshtein(x, y))

    def matrix_encoded(
        self, xs_encoded: EncodedStrings, ys_encoded: EncodedStrings
    ) -> np.ndarray:
        return levenshtein_matrix(xs_encoded, ys_encoded).astype(np.float64)

    def batch_distances_within(
        self, queries: Sequence[Any], points: Sequence[Any], radius: float
    ) -> np.ndarray:
        if len(queries) * len(points) <= _SCALAR_MAX_PAIRS:
            return self.matrix(queries, points)
        queries_encoded = self.encode(queries)
        points_encoded = (
            self.encode(points) if queries_encoded is not None else None
        )
        if (
            queries_encoded is None
            or points_encoded is None
            or not np.isfinite(radius)
        ):
            return self.batch_distances(queries, points)
        # Distances are integers, so d <= radius iff d <= floor(radius);
        # pruned entries surface as integer lower bounds > floor(radius),
        # hence > radius.
        return levenshtein_matrix(
            queries_encoded, points_encoded, max_distance=int(radius)
        ).astype(np.float64)


class PrefixDistance(StringMetric):
    """The prefix metric of Definition 3 — a simple tree metric (Fig. 5)."""

    name = "prefix"

    def distance(self, x: str, y: str) -> float:
        return float(prefix_distance(x, y))

    def matrix_encoded(
        self, xs_encoded: EncodedStrings, ys_encoded: EncodedStrings
    ) -> np.ndarray:
        return prefix_distance_matrix(xs_encoded, ys_encoded).astype(
            np.float64
        )


class HammingDistance(StringMetric):
    """Hamming distance on equal-length strings."""

    name = "hamming"

    def distance(self, x: str, y: str) -> float:
        return float(hamming(x, y))

    def matrix_encoded(
        self, xs_encoded: EncodedStrings, ys_encoded: EncodedStrings
    ) -> np.ndarray:
        return hamming_matrix(xs_encoded, ys_encoded).astype(np.float64)
