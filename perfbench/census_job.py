"""The ``census-stream`` job: the CLI's ``--chunk-rows`` census, timed.

Runs in its own process so its peak resident set is the census's alone.
Follows ``repro census --chunk-rows``: ``count_rows``, then
``select_pivots`` (``"random"``) over a row-count proxy, then
``read_vector_rows`` for the sites (together: set-up), then a serial
``streaming_census`` pass over ``iter_vector_chunks``.  Each round runs
``--setups`` set-ups and one pass; rounds repeat while another fits in
``--seconds`` (one at least), so the set-ups are spread over the run
like the passes.  Prints one JSON object on stdout.

    python3 perfbench/census_job.py --input .perfbench/census.txt --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import common

common.bootstrap()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

clock = tracing.clock


def setup(path: str, seed: int, sites: int):
    """One set-up: count rows, draw site rows, read them.  Returns
    ``(n, site_indices, site_rows, scan_seconds)``."""
    from repro.datasets.io import count_rows, read_vector_rows
    from repro.index.pivots import select_pivots
    from repro.metrics.minkowski import EuclideanDistance

    started = clock()
    n = count_rows(path)
    counted = clock()
    site_indices = select_pivots(
        range(n), EuclideanDistance(), sites, strategy="random",
        rng=np.random.default_rng([seed, 1]),
    )
    selected = clock()
    site_rows = read_vector_rows(path, site_indices)
    read = clock()
    return n, site_indices, site_rows, (counted - started) + (read - selected)


def timed_chunks(chunks, out):
    """Re-yield chunks, appending each chunk's parse-to-merged seconds."""
    start = clock()
    for chunk in chunks:
        yield chunk
        now = clock()
        out.append(now - start)
        start = now


def main(argv=None) -> int:
    from repro.datasets.io import iter_vector_chunks
    from repro.metrics.minkowski import EuclideanDistance
    from repro.parallel import census as census_module

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setups", type=int, default=1, help="set-ups per round")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    spec = workloads.CENSUS

    metric = EuclideanDistance()
    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.install_census(recorder, metric)

    setup_s, scan_s, passes_s, chunk_s, answers = [], [], [], [], []
    budget_end = clock() + args.seconds
    # Stop before a round that would overrun the budget (one at least).
    round_s = 0.0
    while not passes_s or clock() + round_s <= budget_end:
        round_start = clock()
        for _ in range(args.setups):
            started = clock()
            n, site_indices, site_rows, scan = setup(args.input, args.seed, spec.sites)
            setup_s.append(clock() - started)
            scan_s.append(scan)
        chunks = iter_vector_chunks(args.input, spec.chunk_rows)
        if recorder is not None:
            chunks = tracing.traced_chunks(recorder, chunks)
        started = clock()
        result = census_module.streaming_census(
            timed_chunks(chunks, chunk_s), site_rows, metric, [spec.sites]
        )[spec.sites]
        passes_s.append(clock() - started)
        answers.append((result.total, result.distinct,
                        sorted(result.frequency_of_frequencies().items())))
        round_s = clock() - round_start

    if recorder is not None:
        recorder.write(args.trace)
    print(json.dumps({
        "n": n,
        "site_indices": [int(i) for i in site_indices],
        "setup_s": setup_s,
        "setup_scan_s": statistics.median(scan_s),
        "passes_s": passes_s,
        "chunk_s": chunk_s,
        "answers": answers,
        "peak_rss_mb": common.vm_hwm_kb(os.getpid()) * 1024 / 1e6,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
