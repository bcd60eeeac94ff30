"""The ``census-stream`` workload: write the file, run the job, check it."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict

import numpy as np

import common
import oracle
import tracing
import workloads

SPEC = workloads.CENSUS
#: Set-ups before each pass of an untraced run; ``setup_s`` is the
#: median of all of them.
SETUPS_PER_PASS = 2
#: Spans the traced run must record: a layer whose wrapper stops being
#: called would otherwise read 0.
REQUIRED_SPANS = ("io.parse", "census.chunk", "census.to_sites",
                  "permutation.codes", "census.merge")


def job(path: str, seed: int, seconds: float, setups: int, trace=None) -> dict:
    """Run ``census_job.py``: ``setups`` set-ups before each pass."""
    command = [sys.executable, "perfbench/census_job.py", "--input", path,
               "--seed", str(seed), "--seconds", str(seconds),
               "--setups", str(setups)]
    if trace:
        command += ["--trace", trace]
    done = subprocess.run(command, cwd=common.ROOT, stdout=subprocess.PIPE,
                          check=True, timeout=170)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def full_chunk_seconds(result: dict) -> np.ndarray:
    """``(passes, chunks)`` times of the full-size chunks (each pass's
    short last chunk dropped)."""
    per_pass = -(-result["n"] // SPEC.chunk_rows)
    times = np.array(result["chunk_s"]).reshape(len(result["passes_s"]), per_pass)
    if result["n"] % SPEC.chunk_rows:
        times = times[:, :-1]
    return times


def run(seed: int, seconds: float, trace: bool) -> dict:
    common.WORK.mkdir(exist_ok=True)
    path = os.path.relpath(common.WORK / f"{SPEC.name}.txt", common.ROOT)
    points = workloads.census_data(seed)
    workloads.write_vectors(path, points)
    if trace:
        baseline = job(path, seed, 0.0, 1)
        trace_path = os.path.relpath(common.WORK / f"{SPEC.name}.trace.json", common.ROOT)
        result = job(path, seed, 0.0, 1, trace=trace_path)
    else:
        result = job(path, seed, seconds, SETUPS_PER_PASS)

    total, distinct, fof = oracle.census_reference(points, points[result["site_indices"]])
    expected = [total, distinct, sorted(fof.items())]
    wrong = sum(1 for answer in result["answers"]
                if [answer[0], answer[1], [tuple(p) for p in answer[2]]] != expected)
    attempted = len(result["answers"])
    found = min(answer[1] for answer in result["answers"])
    lines = [f"census of {total} points x {SPEC.sites} sites: {distinct} distinct "
             f"permutations (reference), {attempted} passes, {wrong} wrong"]
    # Pooled over the passes, not the median pass: the machine's speed
    # switches between a slow and a fast mode for seconds at a time, and
    # a median would pick one mode where a mean weighs both.
    passes = len(result["passes_s"])
    rate = result["n"] * passes / sum(result["passes_s"])
    problems = []
    if trace:
        spans = tracing.load_spans(trace_path)
        problems = [f"traced run recorded no {name} spans"
                    for name in tracing.missing(spans, REQUIRED_SPANS)]
        metrics = layers(spans, result)
        metrics["io.setup_scan_s"] = result["setup_scan_s"]
        baseline_rate = baseline["n"] / baseline["passes_s"][0]
        metrics["trace.overhead_frac"] = baseline_rate / rate - 1.0
    else:
        chunks_ms = full_chunk_seconds(result) * 1e3
        metrics = {
            "setup_s": statistics.median(result["setup_s"]),
            "p50_ms": float(np.median(chunks_ms, axis=1).mean()),
            "throughput_per_s": rate,
            "recall": found / distinct,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        lines += [
            f"setup_s {metrics['setup_s']:.4f} s (median of {len(result['setup_s'])}, "
            f"{SETUPS_PER_PASS} before each pass: count_rows + select_pivots + "
            "read_vector_rows)",
            f"census_pts_per_s {rate:.1f} points/s (over {passes} passes: "
            f"{' '.join(f'{t:.2f}' for t in result['passes_s'])} s)",
            f"chunk p50_ms {metrics['p50_ms']:.2f} ms (mean of the passes' median "
            f"chunk; pooled {np.median(chunks_ms):.2f} ms, max {chunks_ms.max():.2f} ms, "
            f"n={chunks_ms.size} full chunks of {SPEC.chunk_rows} rows)",
            f"recall {metrics['recall']:.4f} fraction (distinct found / reference)",
            f"failed_frac {wrong / attempted:.6f} fraction ({wrong} of {attempted} passes)",
            f"peak_rss_mb {metrics['peak_rss_mb']:.2f} MB (census process VmHWM)",
        ]
    return {"metrics": metrics, "lines": lines, "attempted": attempted,
            "failed": wrong, "correct": wrong == 0 and not problems,
            "problems": problems, "invalid": False}


def layers(spans, result) -> Dict[str, float]:
    """Per-pass seconds in each census layer."""
    passes = len(result["passes_s"])

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name) / passes

    return {
        "io.parse_s": total("io.parse"),
        "census.chunk_s": total("census.chunk"),
        "census.to_sites_s": total("census.to_sites"),
        "permutation.codes_s": total("permutation.codes"),
        "census.merge_s": total("census.merge"),
    }
