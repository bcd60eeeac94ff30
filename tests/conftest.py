"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import (
    ChebyshevDistance,
    CityblockDistance,
    EuclideanDistance,
)


@pytest.fixture
def rng():
    """Deterministic generator, fresh per test."""
    return np.random.default_rng(20080411)


@pytest.fixture
def small_vectors(rng):
    """A 60-point 3-d vector database."""
    return rng.random((60, 3))


@pytest.fixture
def small_words():
    """A small string database with plenty of edit-distance ties."""
    return [
        "hello", "help", "held", "helm", "hero",
        "world", "word", "ward", "warden", "wart",
        "cat", "cart", "care", "core", "bore",
        "gene", "genome", "genetic", "gem", "game",
    ]


@pytest.fixture(params=["l1", "l2", "linf"])
def lp_metric(request):
    """Parameterized fixture over the paper's three vector metrics."""
    return {
        "l1": CityblockDistance(),
        "l2": EuclideanDistance(),
        "linf": ChebyshevDistance(),
    }[request.param]


class BruteForce:
    """The brute-force oracle: a double loop over ``metric.distance``.

    Shares no code with the index engines.  Answers are ``(index,
    distance)`` pairs in the public ``(distance, index)`` order.
    """

    def __init__(self, points, metric):
        self.points = points
        self.metric = metric

    def _scored(self, query, candidates=None):
        ids = range(len(self.points)) if candidates is None else candidates
        return sorted(
            (self.metric.distance(query, self.points[int(i)]), int(i))
            for i in ids
        )

    def knn(self, query, k, candidates=None):
        """The ``k`` nearest of ``candidates`` (default: every point)."""
        return [(i, d) for d, i in self._scored(query, candidates)[:k]]

    def range(self, query, radius):
        return [(i, d) for d, i in self._scored(query) if d <= radius]

    @staticmethod
    def check(neighbors, expected, tol=1e-12):
        """Ids exactly; distances within ``tol`` (Euclidean ulp drift)."""
        assert [n.index for n in neighbors] == [i for i, _ in expected]
        for neighbor, (_, distance) in zip(neighbors, expected):
            assert abs(neighbor.distance - distance) <= tol


@pytest.fixture(scope="session")
def brute_force():
    """The :class:`BruteForce` oracle class."""
    return BruteForce
