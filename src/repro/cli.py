"""Command-line interface: the ``build-distperm-*`` programs, unified.

The paper's experiments were driven by small programs that build a
``distperm`` index over a database file and "write out the permutations
in ASCII as a side effect of index generation, so that the number of
unique permutations can easily be counted with ``sort | uniq | wc``".
``repro census`` is that program; the other subcommands regenerate the
paper's tables and figures from the shell.

Examples::

    python -m repro table1
    python -m repro table2 --names long colors --n 1000
    python -m repro table3 --dims 1 2 3 --n 10000 --runs 3
    python -m repro census --input words.txt --kind strings \\
        --metric levenshtein --sites 8 --dump perms.txt
    python -m repro search --input vectors.txt --kind vectors --metric l2 \\
        --index distperm --mode knn-approx --k 10 --budget 200
    python -m repro search --input words.txt --kind strings \\
        --metric levenshtein --index vptree --shards 4 --workers 4
    python -m repro search --input words.txt --kind strings \\
        --metric levenshtein --shards 4 --resident \\
        --deadline 0.5 --retries 2 --on-partial degrade
    python -m repro counterexample --points 1000000
    python -m repro figures

``repro search`` drives the batched query engine: the whole query set
goes through ``knn_batch`` / ``range_batch`` / ``knn_approx_batch`` in
one call and the report shows queries per second alongside the
literature's distance-evaluations-per-query cost.

The census and search subcommands (and the table generators) take the
library-wide ``--shards`` / ``--workers`` flags: the database splits
into shards served by a process pool (:mod:`repro.parallel`), with
answers and censuses identical to the serial run for every setting.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

import numpy as np

__all__ = ["main", "build_parser"]

_METRICS = {
    "l1": lambda: __import__("repro.metrics", fromlist=["x"]).CityblockDistance(),
    "l2": lambda: __import__("repro.metrics", fromlist=["x"]).EuclideanDistance(),
    "linf": lambda: __import__("repro.metrics", fromlist=["x"]).ChebyshevDistance(),
    "levenshtein": lambda: __import__(
        "repro.metrics", fromlist=["x"]
    ).LevenshteinDistance(),
    "prefix": lambda: __import__("repro.metrics", fromlist=["x"]).PrefixDistance(),
    "angular": lambda: __import__("repro.metrics", fromlist=["x"]).AngularDistance(),
}

#: Indexes the ``search`` subcommand can build (see :mod:`repro.index`).
_INDEXES = ("aesa", "distperm", "iaesa", "laesa", "linear", "vptree")


def _add_parallel_flags(parser: argparse.ArgumentParser) -> None:
    """The library-wide multi-core flags (see :mod:`repro.parallel`)."""
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size (default: serial; results "
                             "are identical for every worker count)")
    parser.add_argument("--shards", type=int, default=None,
                        help="database shards (default: worker count)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Counting distance permutations — reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    table1 = commands.add_parser("table1", help="exact N_{d,2}(k) (Table 1)")
    table1.add_argument("--max-d", type=int, default=10)
    table1.add_argument("--max-k", type=int, default=12)

    table2 = commands.add_parser(
        "table2", help="census of the sample-database analogues (Table 2)"
    )
    table2.add_argument("--names", nargs="*", default=None)
    table2.add_argument("--n", type=int, default=0,
                        help="override database size (default: fast preset)")
    table2.add_argument("--seed", type=int, default=20080411)
    _add_parallel_flags(table2)

    table3 = commands.add_parser(
        "table3", help="census of uniform random vectors (Table 3)"
    )
    table3.add_argument("--dims", type=int, nargs="*", default=None)
    table3.add_argument("--ks", type=int, nargs="*", default=(4, 8, 12))
    table3.add_argument("--n", type=int, default=None)
    table3.add_argument("--runs", type=int, default=None)
    table3.add_argument("--seed", type=int, default=20080411,
                        help="site-draw / database seed (default 20080411)")
    _add_parallel_flags(table3)

    census = commands.add_parser(
        "census",
        help="count unique distance permutations of a database file "
             "(the build-distperm program)",
    )
    census.add_argument("--input", required=True, help="database file")
    census.add_argument("--kind", choices=("vectors", "strings"),
                        required=True)
    census.add_argument("--metric", choices=sorted(_METRICS), required=True)
    census.add_argument("--sites", type=int, default=8,
                        help="number of sites k (default 8)")
    census.add_argument("--seed", type=int, default=0)
    census.add_argument("--dump", default=None,
                        help="write per-element permutations (ASCII) here")
    census.add_argument("--chunk-rows", type=int, default=None,
                        help="stream the database from disk in chunks of "
                             "this many rows (bounded memory, counts "
                             "identical to the whole-file run; "
                             "incompatible with --dump)")
    census.add_argument("--report-storage", action="store_true",
                        help="print realized (measured) bytes/element of "
                             "the code and table encodings next to the "
                             "reported Corollary-8 bit bounds")
    _add_parallel_flags(census)

    search = commands.add_parser(
        "search",
        help="run a batched query workload over a database file",
    )
    search.add_argument("--input", required=True, help="database file")
    search.add_argument("--kind", choices=("vectors", "strings"),
                        required=True)
    search.add_argument("--metric", choices=sorted(_METRICS), required=True)
    search.add_argument("--index", choices=sorted(_INDEXES), default="linear")
    search.add_argument("--mode", choices=("knn", "range", "knn-approx"),
                        default="knn")
    search.add_argument("--k", type=int, default=10,
                        help="neighbors per query (knn modes, default 10)")
    search.add_argument("--radius", type=float, default=1.0,
                        help="search radius (range mode, default 1.0)")
    search.add_argument("--budget", type=int, default=None,
                        help="distance-evaluation budget per query "
                             "(knn-approx mode)")
    search.add_argument("--sites", type=int, default=8,
                        help="permutation sites for --index distperm")
    search.add_argument("--pivots", type=int, default=8,
                        help="pivots for --index laesa")
    search.add_argument("--queries", default=None,
                        help="query file (same format as --input); "
                             "defaults to sampling the database")
    search.add_argument("--n-queries", type=int, default=100,
                        help="queries sampled from the database when no "
                             "--queries file is given (default 100)")
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--show", type=int, default=0,
                        help="print the results of the first N queries")
    search.add_argument("--save-index", default=None, metavar="PATH",
                        help="after building, save the index payload to "
                             "PATH as a v3 container (--index distperm "
                             "only; with --load-index this converts a v2 "
                             "payload to v3)")
    search.add_argument("--load-index", default=None, metavar="PATH",
                        help="load the index payload from PATH instead of "
                             "building (--index distperm only; no build "
                             "distances are recomputed)")
    search.add_argument("--mmap", action="store_true",
                        help="with --load-index on a v3 payload: "
                             "memory-map the packed code section instead "
                             "of decoding it into RAM (out-of-core "
                             "queries)")
    search.add_argument("--cache-bytes", type=int, default=None,
                        help="decoded-block LRU budget per mapped code "
                             "store, in bytes (with --mmap; default "
                             "16 MiB)")
    _add_parallel_flags(search)
    search.add_argument("--resident", action="store_true",
                        help="serve shards from supervised pinned worker "
                             "processes (crash recovery; requires "
                             "--shards/--workers)")
    search.add_argument("--deadline", type=float, default=None,
                        help="per-query fan-out deadline in seconds "
                             "(resident mode; default: unbounded)")
    search.add_argument("--retries", type=int, default=None,
                        help="extra attempts a failed shard gets on a "
                             "respawned worker (resident mode; default 1)")
    search.add_argument("--on-partial", choices=("raise", "degrade"),
                        default=None,
                        help="when retries/deadline run out: 'raise' keeps "
                             "exact answers, 'degrade' merges the "
                             "surviving shards (resident mode; "
                             "default raise)")

    serve = commands.add_parser(
        "serve",
        help="serve an index over a socket with micro-batched execution",
    )
    serve.add_argument("--input", required=True, help="database file")
    serve.add_argument("--kind", choices=("vectors", "strings"),
                       required=True)
    serve.add_argument("--metric", choices=sorted(_METRICS), required=True)
    serve.add_argument("--index", choices=sorted(_INDEXES), default="linear")
    serve.add_argument("--sites", type=int, default=8,
                       help="permutation sites for --index distperm")
    serve.add_argument("--pivots", type=int, default=8,
                       help="pivots for --index laesa")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--unix-socket", default=None,
                       help="listen on this unix socket path")
    serve.add_argument("--host", default=None,
                       help="listen on this TCP host (with --port)")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port (0 = kernel-assigned)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="query rows per batching window (default 64)")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="longest batching window in ms (default 2.0)")
    serve.add_argument("--min-wait-ms", type=float, default=0.0,
                       help="adaptive window floor in ms (default 0)")
    serve.add_argument("--max-queue", type=int, default=4096,
                       help="admission bound in query rows; past it "
                            "requests are rejected with retry-after "
                            "(default 4096)")
    serve.add_argument("--no-adaptive", action="store_true",
                       help="freeze the window at --max-wait-ms instead "
                            "of adapting to load")
    _add_parallel_flags(serve)
    serve.add_argument("--resident", action="store_true",
                       help="serve shards from supervised pinned worker "
                            "processes (crash recovery; requires "
                            "--shards/--workers)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-query fan-out deadline in seconds "
                            "(resident mode)")
    serve.add_argument("--retries", type=int, default=None,
                       help="extra attempts a failed shard gets "
                            "(resident mode; default 1)")
    serve.add_argument("--on-partial", choices=("raise", "degrade"),
                       default=None,
                       help="shard loss policy under resident serving; "
                            "'degrade' flags partial answers on the wire")

    bench_serve = commands.add_parser(
        "bench-serve",
        help="offer open-loop Poisson load to a running query server",
    )
    bench_serve.add_argument("--input", required=True,
                             help="query-pool file (same formats as serve)")
    bench_serve.add_argument("--kind", choices=("vectors", "strings"),
                             required=True)
    bench_serve.add_argument("--unix-socket", default=None)
    bench_serve.add_argument("--host", default=None)
    bench_serve.add_argument("--port", type=int, default=None)
    bench_serve.add_argument("--op", choices=("knn", "range", "knn-approx"),
                             default="knn")
    bench_serve.add_argument("--k", type=int, default=5)
    bench_serve.add_argument("--radius", type=float, default=1.0)
    bench_serve.add_argument("--budget", type=int, default=None)
    bench_serve.add_argument("--qps", type=float, default=100.0,
                             help="offered arrival rate (default 100)")
    bench_serve.add_argument("--duration", type=float, default=5.0,
                             help="seconds of offered load (default 5)")
    bench_serve.add_argument("--connections", type=int, default=1)
    bench_serve.add_argument("--seed", type=int, default=0)
    bench_serve.add_argument("--json", action="store_true",
                             help="print the report as one JSON object")

    counter = commands.add_parser(
        "counterexample", help="re-run the Eq. 12 census (Section 5)"
    )
    counter.add_argument("--points", type=int, default=1_000_000)
    counter.add_argument("--seed", type=int, default=20080411)

    commands.add_parser("figures", help="cell counts of Figures 1-4")

    bound = commands.add_parser(
        "bound", help="best known bound on permutations for (d, k, p)"
    )
    bound.add_argument("d", type=int)
    bound.add_argument("k", type=int)
    bound.add_argument("--p", default="2",
                       help="1, 2, or inf (default 2)")

    return parser


def _parallel_flags_error(args: argparse.Namespace) -> Optional[str]:
    """Validate --workers/--shards; returns an error message or None."""
    if args.workers is not None and args.workers < 0:
        return "--workers must be >= 0"
    if args.shards is not None and args.shards < 1:
        return "--shards must be >= 1"
    return None


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import format_table1

    print(format_table1(dims=range(1, args.max_d + 1),
                        ks=range(2, args.max_k + 1)))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.table2 import format_table2, table2_rows

    error = _parallel_flags_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    rows = table2_rows(names=args.names, n=args.n, seed=args.seed,
                       workers=args.workers, shards=args.shards)
    print(format_table2(rows))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.experiments.table3 import format_table3, table3_rows

    error = _parallel_flags_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    dims = args.dims if args.dims else range(1, 11)
    rows = table3_rows(dims=dims, ks=tuple(args.ks), n_points=args.n,
                       n_runs=args.runs, seed=args.seed,
                       workers=args.workers, shards=args.shards)
    print(format_table3(rows, ks=tuple(args.ks)))
    return 0


def _cmd_census_streaming(args: argparse.Namespace) -> int:
    """The out-of-core census: chunked disk reads, bounded memory.

    Reads the database twice — one cheap counting pass (to draw the same
    site indices the in-memory build would draw, and fetch exactly those
    rows) and one chunked census pass — but never holds more than
    ``chunk_rows`` rows at once.  Counts are identical to the in-memory
    run for every chunk size and ``workers``/``shards`` setting.
    """
    from repro.core.storage import storage_report
    from repro.datasets.io import (
        count_rows,
        iter_string_chunks,
        iter_vector_chunks,
        read_string_rows,
        read_vector_rows,
    )
    from repro.index.pivots import select_pivots
    from repro.parallel.census import streaming_census

    if args.chunk_rows < 1:
        print("error: --chunk-rows must be >= 1", file=sys.stderr)
        return 1
    if args.dump:
        print("error: --dump needs the in-memory census (it materializes "
              "every permutation); drop --chunk-rows", file=sys.stderr)
        return 1
    error = _parallel_flags_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        n = count_rows(args.input)
    except OSError as error:
        print(f"error: cannot read {args.input}: {error}", file=sys.stderr)
        return 1
    if n == 0:
        print("error: empty database", file=sys.stderr)
        return 1
    if args.sites < 1 or args.sites > n:
        print(f"error: need 1 <= sites <= {n}, got {args.sites}",
              file=sys.stderr)
        return 1
    metric = _METRICS[args.metric]()
    # The "random" strategy touches only len() and drawn indices, so a
    # row-count proxy draws the same sites as the in-memory build.
    site_indices = select_pivots(
        range(n), metric, args.sites, strategy="random",
        rng=np.random.default_rng(args.seed),
    )
    if args.kind == "vectors":
        sites = read_vector_rows(args.input, site_indices)
        chunks = iter_vector_chunks(args.input, args.chunk_rows)
    else:
        sites = read_string_rows(args.input, site_indices)
        chunks = iter_string_chunks(args.input, args.chunk_rows)
    censuses = streaming_census(
        chunks, sites, metric, [args.sites],
        workers=args.workers, shards=args.shards,
    )
    distinct = censuses[args.sites].distinct
    report = storage_report(
        n=n, k=args.sites, realized_permutations=distinct
    )
    print(f"database: {args.input} ({n} elements, metric {metric.name}, "
          f"streamed {args.chunk_rows} rows/chunk)")
    print(f"sites (k={args.sites}): indices {site_indices}")
    print(f"unique distance permutations: {distinct} "
          f"(of k! = {math.factorial(args.sites)})")
    print(f"bits/element: table={report.bits_permutation_table} "
          f"naive={report.bits_naive_permutation} "
          f"LAESA={report.bits_laesa}")
    if args.report_storage:
        _print_realized_storage(
            n=n, k=args.sites, distinct=distinct, report=report, index=None,
        )
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    from repro.datasets.io import load_strings, load_vectors, save_permutations
    from repro.index import DistPermIndex

    if args.chunk_rows is not None:
        return _cmd_census_streaming(args)
    if args.kind == "vectors":
        points = load_vectors(args.input)
    else:
        points = load_strings(args.input)
    if len(points) == 0:
        print("error: empty database", file=sys.stderr)
        return 1
    error = _parallel_flags_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.sites < 1 or args.sites > len(points):
        print(
            f"error: need 1 <= sites <= {len(points)}, got {args.sites}",
            file=sys.stderr,
        )
        return 1
    metric = _METRICS[args.metric]()
    if args.workers is not None or args.shards is not None:
        # Parallel census: same site draw as the DistPermIndex build, but
        # the n x k distance work shards across a process pool and the
        # partial censuses merge exactly.
        from repro.core.storage import storage_report
        from repro.index.pivots import select_pivots
        from repro.parallel.census import sharded_census

        site_indices = select_pivots(
            points, metric, args.sites, strategy="random",
            rng=np.random.default_rng(args.seed),
        )
        sites = [points[i] for i in site_indices]
        censuses, permutations = sharded_census(
            points, sites, metric,
            workers=args.workers, shards=args.shards,
            collect_permutations=bool(args.dump),
        )
        distinct = censuses[args.sites].distinct
        if args.dump:
            save_permutations(args.dump, permutations)
        report = storage_report(
            n=len(points), k=args.sites, realized_permutations=distinct
        )
    else:
        index = DistPermIndex(
            points,
            metric,
            n_sites=args.sites,
            rng=np.random.default_rng(args.seed),
        )
        site_indices = index.site_indices
        distinct = index.unique_permutations()
        if args.dump:
            save_permutations(args.dump, index.permutations)
        report = index.storage()
    print(f"database: {args.input} ({len(points)} elements, "
          f"metric {metric.name})")
    print(f"sites (k={args.sites}): indices {site_indices}")
    print(f"unique distance permutations: {distinct} "
          f"(of k! = {math.factorial(args.sites)})")
    print(f"bits/element: table={report.bits_permutation_table} "
          f"naive={report.bits_naive_permutation} "
          f"LAESA={report.bits_laesa}")
    if args.report_storage:
        _print_realized_storage(
            n=len(points), k=args.sites, distinct=distinct, report=report,
            index=None if args.workers is not None or args.shards is not None
            else index,
        )
    if args.dump:
        print(f"permutations written to {args.dump} "
              f"(count them with: sort {args.dump} | uniq | wc -l)")
    return 0


def _print_realized_storage(n, k, distinct, report, index=None):
    """Measured bytes/element next to the reported Corollary-8 bit bounds.

    With a built index (the serial census path) the code payload and the
    table encoding are actually materialized and measured; the sharded
    path prints the byte counts the same packing produces by construction
    (``ceil(n * bits / 8)`` — :func:`repro.core.bitpack.pack_ids` pads
    only to the final byte).
    """
    from repro.core.bitpack import pack_ids
    from repro.core.permutation import MAX_CODE_SITES

    naive_bytes = n * k * 8
    bits_code = report.bits_naive_permutation
    bits_table = report.bits_permutation_table
    print("storage, reported vs realized:")
    print(f"  argsort rows (in-memory baseline): {naive_bytes} B "
          f"({k * 64} bits/elt)")
    if k > MAX_CODE_SITES:
        # Past the uint64 window no fixed-width packed-code encoding
        # exists (codes are arbitrary-precision); the on-disk fallback
        # is the row matrix at the narrowest integer width, and the
        # table is charged the same realizable way.
        entry_bytes = 1 if k <= 1 << 8 else 2
        matrix_bytes = n * k * entry_bytes
        table_bytes = (
            distinct * k * entry_bytes + (n * bits_table + 7) // 8
        )
        print(f"  packed codes: reported {bits_code} bits/elt, not "
              f"realizable past k={MAX_CODE_SITES}; row-matrix fallback "
              f"= {matrix_bytes} B ({k * 8 * entry_bytes} bits/elt)")
    else:
        if index is not None:
            code_bytes = len(pack_ids(index.codes, bits_code))
            table_bytes = index.packed().total_bytes()
        else:
            code_bytes = (n * bits_code + 7) // 8
            table_bytes = distinct * 8 + (n * bits_table + 7) // 8
        print(f"  packed codes: reported {bits_code} bits/elt -> realized "
              f"{code_bytes} B ({code_bytes * 8 / max(1, n):.2f} bits/elt)")
    print(f"  permutation table: reported {bits_table} bits/elt "
          f"(+ table) -> realized {table_bytes} B "
          f"({table_bytes * 8 / max(1, n):.2f} bits/elt)")


def _sharded_inner(points, metric, name: str = "linear", sites: int = 8,
                   pivots: int = 8, seed: int = 0):
    """The one index factory behind ``repro search``, sharded or not.

    For ``--shards`` it is bound with :func:`functools.partial` and
    shipped to pool workers, so it must stay a module-level function; a
    fresh seeded generator per call keeps serial and pool builds
    identical.
    """
    from repro.index import (
        AESA,
        DistPermIndex,
        IAESA,
        LinearScan,
        PivotIndex,
        VPTree,
    )

    rng = np.random.default_rng(seed)
    if name == "linear":
        return LinearScan(points, metric)
    if name == "aesa":
        return AESA(points, metric)
    if name == "iaesa":
        return IAESA(points, metric)
    if name == "vptree":
        return VPTree(points, metric, rng=rng)
    if name == "laesa":
        return PivotIndex(
            points, metric, n_pivots=min(pivots, len(points)), rng=rng
        )
    if name == "distperm":
        return DistPermIndex(
            points, metric, n_sites=min(sites, len(points)), rng=rng
        )
    raise ValueError(f"no factory for index {name!r} (update _INDEXES?)")


def _build_search_index(name: str, points, metric, args: argparse.Namespace):
    return _sharded_inner(points, metric, name, sites=args.sites,
                          pivots=args.pivots, seed=args.seed)


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.datasets.io import load_strings, load_vectors
    from repro.experiments.harness import run_query_workload

    load = load_vectors if args.kind == "vectors" else load_strings
    try:
        points = load(args.input)
    except OSError as error:
        print(f"error: cannot read {args.input}: {error}", file=sys.stderr)
        return 1
    if len(points) == 0:
        print("error: empty database", file=sys.stderr)
        return 1
    if args.queries is not None:
        try:
            queries = load(args.queries)
        except OSError as error:
            print(f"error: cannot read {args.queries}: {error}",
                  file=sys.stderr)
            return 1
        if len(queries) == 0:
            print("error: empty query file", file=sys.stderr)
            return 1
    else:
        rng = np.random.default_rng(args.seed)
        picks = rng.choice(
            len(points),
            size=min(args.n_queries, len(points)),
            replace=False,
        )
        if args.kind == "vectors":
            queries = points[picks]
        else:
            queries = [points[int(i)] for i in picks]
    if args.mode != "range" and args.k < 1:
        print("error: k must be >= 1", file=sys.stderr)
        return 1
    if args.mode == "range" and args.radius < 0:
        print("error: radius must be nonnegative", file=sys.stderr)
        return 1
    if args.index == "distperm" and args.sites < 1:
        print("error: --sites must be >= 1", file=sys.stderr)
        return 1
    if args.index == "laesa" and args.pivots < 1:
        print("error: --pivots must be >= 1", file=sys.stderr)
        return 1
    error = _parallel_flags_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    metric = _METRICS[args.metric]()
    resilience_flags = (
        args.deadline is not None
        or args.retries is not None
        or args.on_partial is not None
    )
    resident = args.resident or resilience_flags
    sharded = args.workers is not None or args.shards is not None
    if resident and not sharded:
        print("error: --resident/--deadline/--retries/--on-partial need "
              "sharded execution; add --shards (or --workers)",
              file=sys.stderr)
        return 1
    if args.deadline is not None and args.deadline <= 0:
        print("error: --deadline must be > 0", file=sys.stderr)
        return 1
    if args.retries is not None and args.retries < 0:
        print("error: --retries must be >= 0", file=sys.stderr)
        return 1
    if (args.save_index or args.load_index) and args.index != "distperm":
        print("error: --save-index/--load-index support --index distperm "
              "payloads only", file=sys.stderr)
        return 1
    if args.mmap and not args.load_index:
        print("error: --mmap maps a saved payload; it needs --load-index",
              file=sys.stderr)
        return 1
    if args.cache_bytes is not None and not args.mmap:
        print("error: --cache-bytes tunes the mapped store; it needs "
              "--mmap", file=sys.stderr)
        return 1
    backing = "mmap" if args.mmap else "ram"
    if sharded:
        from functools import partial

        from repro.index import ShardedIndex
        from repro.parallel.workerpool import QueryPolicy

        n_shards = (
            args.shards
            if args.shards is not None
            else max(1, args.workers or 1)
        )
        policy = QueryPolicy(
            deadline=args.deadline,
            retries=args.retries if args.retries is not None else 1,
            on_partial=args.on_partial if args.on_partial else "raise",
        )
        if args.load_index:
            from repro.index.serialize import load_sharded

            try:
                index = load_sharded(
                    args.load_index, points, metric,
                    workers=args.workers, resident=resident, policy=policy,
                    backing=backing, cache_bytes=args.cache_bytes,
                )
            except (OSError, ValueError) as error:
                print(f"error: cannot load {args.load_index}: {error}",
                      file=sys.stderr)
                return 1
        else:
            index = ShardedIndex(
                points,
                metric,
                partial(_sharded_inner, name=args.index, sites=args.sites,
                        pivots=args.pivots, seed=args.seed),
                n_shards=n_shards,
                workers=args.workers,
                resident=resident,
                policy=policy,
            )
        if args.save_index:
            from repro.index.serialize import save_sharded

            save_sharded(args.save_index, index)
            print(f"index payload saved to {args.save_index}")
    else:
        if args.load_index:
            from repro.index.serialize import load_distperm

            try:
                index = load_distperm(
                    args.load_index, points, metric,
                    backing=backing, cache_bytes=args.cache_bytes,
                )
            except (OSError, ValueError) as error:
                print(f"error: cannot load {args.load_index}: {error}",
                      file=sys.stderr)
                return 1
        else:
            index = _build_search_index(args.index, points, metric, args)
        if args.save_index:
            from repro.index.serialize import save_distperm

            save_distperm(args.save_index, index)
            print(f"index payload saved to {args.save_index}")
    if args.mode == "knn-approx" and args.budget is not None:
        from repro.index.base import Index

        probe = index.shards[0] if sharded else index
        if type(probe)._knn_approx_batch_impl is Index._knn_approx_batch_impl:
            print(f"note: index {args.index!r} has no budgeted mode; "
                  "--budget is ignored and the search is exact",
                  file=sys.stderr)
    try:
        report = run_query_workload(
            index,
            queries,
            kind=args.mode,
            k=args.k,
            radius=args.radius,
            budget=args.budget,
        )
    finally:
        if sharded:
            index.close()
        else:
            # A loaded mmap-backed DistPermIndex holds an open mapping.
            closer = getattr(index, "close", None)
            if callable(closer):
                closer()
    detail = {
        "knn": f"k={min(args.k, len(points))}",
        "range": f"radius={args.radius}",
        "knn-approx": f"k={min(args.k, len(points))} budget={args.budget}",
    }[args.mode]
    if sharded and resident:
        layout = f", {index.n_shards} shards x resident workers"
    elif sharded:
        layout = f", {index.n_shards} shards x {args.workers or 'serial'} workers"
    else:
        layout = ""
    print(f"database: {args.input} ({len(points)} elements, "
          f"metric {metric.name})")
    print(f"index: {args.index} "
          f"(build distances: {index.stats.build_distances}{layout})")
    print(f"workload: {args.mode} {detail}, "
          f"{report.n_queries} queries")
    print(f"queries/sec: {report.queries_per_second:.1f}")
    print(f"distances/query: {report.distances_per_query:.1f}")
    if report.degraded:
        print(f"DEGRADED: merged answers cover {report.shards_answered} of "
              f"{index.n_shards} shards (some shards missed the "
              "deadline or crashed beyond retries)")
    elif report.shards_answered is not None:
        print(f"resilience: all {report.shards_answered} shards answered")
    if report.shard_reply_bytes is not None:
        per_shard = " ".join(
            "-" if b is None else str(b) for b in report.shard_reply_bytes
        )
        print(f"reply bytes: {report.reply_bytes} total "
              f"(last fan-out per shard: {per_shard})")
    for i in range(min(args.show, report.n_queries)):
        answers = ", ".join(
            f"{n.index}:{n.distance:.6g}" for n in report.results[i]
        )
        print(f"query {i}: [{answers}]")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.batcher import BatchConfig
    from repro.serve.server import QueryServer

    if (args.unix_socket is None) == (args.host is None):
        print("error: pass exactly one of --unix-socket or --host/--port",
              file=sys.stderr)
        return 1
    if args.host is not None and args.port is None:
        print("error: --host needs --port", file=sys.stderr)
        return 1
    from repro.datasets.io import load_strings, load_vectors

    load = load_vectors if args.kind == "vectors" else load_strings
    try:
        points = load(args.input)
    except OSError as error:
        print(f"error: cannot read {args.input}: {error}", file=sys.stderr)
        return 1
    if len(points) == 0:
        print("error: empty database", file=sys.stderr)
        return 1
    error = _parallel_flags_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    metric = _METRICS[args.metric]()
    resilience_flags = (
        args.deadline is not None
        or args.retries is not None
        or args.on_partial is not None
    )
    resident = args.resident or resilience_flags
    sharded = args.workers is not None or args.shards is not None
    if resident and not sharded:
        print("error: --resident/--deadline/--retries/--on-partial need "
              "sharded execution; add --shards (or --workers)",
              file=sys.stderr)
        return 1
    if sharded:
        from functools import partial

        from repro.index import ShardedIndex
        from repro.parallel.workerpool import QueryPolicy

        n_shards = (
            args.shards
            if args.shards is not None
            else max(1, args.workers or 1)
        )
        policy = QueryPolicy(
            deadline=args.deadline,
            retries=args.retries if args.retries is not None else 1,
            on_partial=args.on_partial if args.on_partial else "raise",
        )
        index = ShardedIndex(
            points,
            metric,
            partial(_sharded_inner, name=args.index, sites=args.sites,
                    pivots=args.pivots, seed=args.seed),
            n_shards=n_shards,
            workers=args.workers,
            resident=resident,
            policy=policy,
        )
    else:
        index = _build_search_index(args.index, points, metric, args)
    config = BatchConfig(
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        min_wait_ms=args.min_wait_ms,
        adaptive=not args.no_adaptive,
        max_queue=args.max_queue,
    )

    async def _serve() -> None:
        server = QueryServer(
            index,
            unix_path=args.unix_socket,
            host=args.host,
            port=args.port,
            config=config,
        )
        await server.start()
        server.install_signal_handlers()
        where = (
            args.unix_socket
            if args.unix_socket is not None
            else f"{args.host}:{server.bound_port}"
        )
        print(f"serving {args.input} ({len(points)} elements, "
              f"{metric.name}, index {args.index}) on {where}",
              flush=True)
        await server.serve_until_drained()
        print("drained; all accepted requests answered", flush=True)

    asyncio.run(_serve())
    return 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.datasets.io import load_strings, load_vectors
    from repro.serve.loadgen import run_open_loop

    if (args.unix_socket is None) == (args.host is None):
        print("error: pass exactly one of --unix-socket or --host/--port",
              file=sys.stderr)
        return 1
    load = load_vectors if args.kind == "vectors" else load_strings
    try:
        queries = load(args.input)
    except OSError as error:
        print(f"error: cannot read {args.input}: {error}", file=sys.stderr)
        return 1
    report = asyncio.run(run_open_loop(
        unix_path=args.unix_socket,
        host=args.host,
        port=args.port,
        queries=queries,
        op=args.op,
        k=args.k,
        radius=args.radius,
        budget=args.budget,
        qps=args.qps,
        duration_s=args.duration,
        seed=args.seed,
        connections=args.connections,
    ))
    payload = report.to_dict()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"offered {payload['offered_qps']:.1f} qps for "
              f"{payload['duration_s']:.2f}s: achieved "
              f"{payload['achieved_qps']:.1f} qps "
              f"({payload['answered']} answered, "
              f"{payload['rejected']} rejected, "
              f"{payload['errored']} errored, "
              f"{payload['degraded']} degraded)")
        if payload["p50_s"] is not None:
            print(f"latency: p50 {payload['p50_s'] * 1e3:.2f} ms, "
                  f"p99 {payload['p99_s'] * 1e3:.2f} ms, "
                  f"p999 {payload['p999_s'] * 1e3:.2f} ms")
    return 0


def _cmd_counterexample(args: argparse.Namespace) -> int:
    from repro.experiments.counterexample import counterexample_census

    result = counterexample_census(n_points=args.points, seed=args.seed)
    print("Eq. 12 sites, 3-d L1, uniform database:")
    print(f"  points: {args.points}")
    print(f"  observed permutations: {result.observed} (paper: 108)")
    print(f"  Euclidean limit N_3,2(5): {result.euclidean_limit}")
    print(f"  exceeds limit: {result.exceeds}")
    return 0 if result.exceeds else 2


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.figures import figure_cell_counts

    counts = figure_cell_counts()
    print(f"Fig 1 order-1 Voronoi cells (L2): {counts['order1_cells']}")
    print(f"Fig 2 order-2 Voronoi cells (L2): {counts['order2_cells']}")
    print(f"Fig 3 bisector cells, L2 (exact): {counts['l2_cells_exact']}")
    print(f"Fig 4 bisector cells, L1 (grid):  {counts['l1_cells_grid']}")
    print(f"permutations only in L1: {len(counts['l1_only'])}, "
          f"only in L2: {len(counts['l2_only'])}")
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    from repro.core.counting import max_permutations

    p = math.inf if args.p in ("inf", "Inf", "INF") else float(args.p)
    if p != math.inf and p == int(p):
        p = int(p)
    try:
        value = max_permutations(args.d, args.k, p)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    kind = "exact" if (p == 2 or args.d >= args.k - 1) else "upper bound"
    print(f"N_{{{args.d},{args.p}}}({args.k}) <= {value}  ({kind}; "
          f"k! = {math.factorial(args.k)})")
    return 0


_COMMANDS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "census": _cmd_census,
    "search": _cmd_search,
    "serve": _cmd_serve,
    "bench-serve": _cmd_bench_serve,
    "counterexample": _cmd_counterexample,
    "figures": _cmd_figures,
    "bound": _cmd_bound,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
