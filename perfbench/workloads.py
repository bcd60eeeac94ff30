"""The benchmark's workloads: fixed constants and seeded input generation.

Every input is a pure function of the workload's ``--seed``: the server
subprocess, the load generator and the answer checks each regenerate
what they need from the seed, so they agree without sharing state.  The
served databases (and their indexes) are fixed fixtures, the same for
every seed; the seed draws the queries and their arrival times, and the
census's whole database.

The rates and latency limits are absolute numbers, fixed here, so a
faster program is measured at the same offered load as a slower one:
the low rate is about a third and the high rate about three quarters of
the highest rate the unchanged program sustained within its latency
limit, and the limit is a few times its unloaded p99.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

import numpy as np


@dataclass(frozen=True)
class Served:
    """A workload answered by a ``QueryServer`` subprocess."""

    name: str
    #: Offered rates of the two fixed-rate phases, queries per second.
    low_qps: float
    high_qps: float
    #: The p99 latency limit ``slo_qps`` is judged against, ms.
    slo_ms: float
    #: Distinct held-out queries the traffic draws from.
    pool: int
    #: Unmeasured requests sent before the first phase.
    warmup: int
    k: int = 10
    budget: int = 500


@dataclass(frozen=True)
class Census:
    """The offline out-of-core census."""

    name: str
    n: int
    dim: int
    sites: int
    chunk_rows: int


DICT = Served(
    name="dict-approx",
    low_qps=105.0,
    high_qps=240.0,
    slo_ms=250.0,
    pool=1000,
    warmup=100,
)
VEC = Served(
    name="vec-shard-mmap",
    low_qps=165.0,
    high_qps=420.0,
    slo_ms=250.0,
    pool=1500,
    warmup=150,
)
CENSUS = Census(
    name="census-stream",
    n=500_000,
    dim=8,
    sites=12,
    chunk_rows=65_536,
)

WORKLOADS = {w.name: w for w in (DICT, VEC, CENSUS)}

#: Fewest requests a served rate point answers (its p99 then has at
#: least 10 samples beyond it).
MIN_REQUESTS = 1000
#: Concurrent client connections of the load generator.
CONNECTIONS = 2

#: Shape of the ``dict-approx`` database and index.
DICT_N = 20_000
DICT_SITES = 8
#: Shape of the ``vec-shard-mmap`` database and index.
VEC_N = 20_000
VEC_DIM = 8
VEC_SITES = 8
VEC_SHARDS = 2
VEC_WORKERS = 2
VEC_BLOCK = 1600


#: Seed of the served databases and their indexes: fixed fixtures.
FIXTURE = 20080401


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


# ----------------------------------------------------------------------
# dict-approx: the paper's index on its string data.
# ----------------------------------------------------------------------


def dict_database() -> List[str]:
    """The fixed fixture of synthetic English words, the same for every
    seed, so runs with different seeds measure the same index."""
    from repro.datasets.dictionaries import synthetic_dictionary

    return synthetic_dictionary("English", DICT_N, rng=_rng(FIXTURE, 0))


def dict_data(seed: int) -> Tuple[List[str], List[str]]:
    """``(database, held-out query pool)``: the seed draws the pool, words
    of the same language model absent from the database, in a seeded
    random order."""
    from repro.datasets.dictionaries import synthetic_dictionary

    database = dict_database()
    known = set(database)
    drawn = synthetic_dictionary("English", 4 * DICT.pool, rng=_rng(seed, 1))
    fresh = [w for w in drawn if w not in known]
    order = _rng(seed, 2).permutation(len(fresh))[: DICT.pool]
    return database, [fresh[i] for i in order]


def dict_index(database: List[str]):
    """The served ``DistPermIndex``: RAM-backed, unsharded, 8 random sites."""
    from repro.index import DistPermIndex
    from repro.metrics.strings import LevenshteinDistance

    return DistPermIndex(
        database, LevenshteinDistance(), n_sites=DICT_SITES,
        rng=_rng(FIXTURE, 1),
    )


# ----------------------------------------------------------------------
# vec-shard-mmap: a sharded, memory-mapped index behind resident workers.
# ----------------------------------------------------------------------


def vec_data(seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(database, query pool)``: uniform 8-d vectors; the database is a
    fixed fixture, the seed draws the queries."""
    database = _rng(FIXTURE, 0).random((VEC_N, VEC_DIM))
    pool = _rng(seed, 1).random((VEC.pool, VEC_DIM))
    return database, pool


def _vec_shard_factory(points, metric):
    """Inner index of one shard; the shard's first row seeds its site
    draw, so the two shards draw differently."""
    from repro.index import DistPermIndex

    first = int.from_bytes(np.ascontiguousarray(points[0]).tobytes()[:8], "little")
    return DistPermIndex(
        points, metric, n_sites=VEC_SITES, rng=_rng(FIXTURE, first),
    )


def vec_cache_bytes() -> int:
    """Per-shard decoded-block LRU: a quarter of a shard's decoded codes."""
    return (VEC_N // VEC_SHARDS) * 8 // 4


def vec_write_payload(database: np.ndarray, path: Path) -> None:
    """Build the 2-shard permutation index and save it as a v3 payload."""
    from repro.index.serialize import save_sharded
    from repro.index.sharded import ShardedIndex
    from repro.metrics.minkowski import EuclideanDistance

    with ShardedIndex(
        database, EuclideanDistance(), _vec_shard_factory,
        n_shards=VEC_SHARDS,
    ) as index:
        save_sharded(path, index, version=3)


def vec_load(path: Path, database: np.ndarray, *, resident: bool):
    """Reload the payload memory-mapped, as served (``resident=True``)
    or in-process for the answer and storage checks."""
    from repro.index.serialize import load_sharded
    from repro.metrics.minkowski import EuclideanDistance

    return load_sharded(
        path, database, EuclideanDistance(),
        resident=resident, workers=VEC_WORKERS if resident else None,
        backing="mmap", cache_bytes=vec_cache_bytes(),
        block_elements=VEC_BLOCK,
    )


# ----------------------------------------------------------------------
# census-stream: the paper's census over an ASCII file, out of core.
# ----------------------------------------------------------------------


def census_data(seed: int) -> np.ndarray:
    """Uniform vectors of the census database."""
    return _rng(seed, 0).random((CENSUS.n, CENSUS.dim))


def write_vectors(path: Path, vectors: np.ndarray) -> None:
    """Write the ASCII vector file (shortest round-trip float text)."""
    with open(path, "w", encoding="ascii") as handle:
        for row in vectors.tolist():
            handle.write(" ".join(map(repr, row)))
            handle.write("\n")
