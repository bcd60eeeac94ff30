"""The served workloads: server lifecycle, traffic phases, checks, layers.

One untraced run launches the server subprocess, warms it up, then
offers open-loop traffic in phases:

- ``low`` and ``high``: the workload's fixed low and high rates (the
  two interleaved in alternating segments), printed with their
  percentiles;
- ``unloaded``: a closed loop with one request outstanding, in short
  stretches after each low/high round, for ``p50_ms`` (the median
  send-to-answer latency over all stretches);
- ``capacity``: a closed loop keeping ``INFLIGHT`` requests
  outstanding, in short bursts after each unloaded stretch, for
  ``throughput_per_s`` (answered requests per second over all bursts);
- a staircase of short steps from nine tenths of the run's capacity,
  up after a step that meets the latency limit and down after one that
  misses it, for the printed ``slo_qps``.

The two fixed-rate phases answer at least ``workloads.MIN_REQUESTS``
requests each.  Between rounds, while the served server idles, one more
server is launched and stopped: set-up is the median launch-to-first-PONG
time of all ``ROUNDS`` launches.  Every answer is then checked against
the in-process engine and an exact kNN.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import common
import loadgen
import oracle
import tracing
import workloads

clock = tracing.clock

#: A run is invalid when the generator's p99 lateness exceeds this share
#: of the workload's latency limit.
LATE_SHARE = 0.25
#: The storage probe replays every this-many-th measured engine window.
PROBE_STRIDE = 4
#: Shares of ``--seconds`` the low and high phases (each answering at
#: least ``workloads.MIN_REQUESTS``), the unloaded stretches, the
#: capacity bursts and the staircase aim for.
LOW_SHARE, HIGH_SHARE, UNLOADED_SHARE, BURST_SHARE, STAIR_SHARE = (
    0.30, 0.14, 0.10, 0.24, 0.22)
#: Rounds of alternating low/high segments, each followed by one
#: unloaded stretch and one capacity burst.
ROUNDS = 5
#: Requests a capacity burst keeps outstanding: two full batching
#: windows (``BatchConfig.max_batch`` is 64), so one window fills while
#: the engine answers the other.
INFLIGHT = 128
#: Length of one staircase step, seconds, and the factors a step moves
#: the rate by: coarse until the first reversal, fine after it.
STEP_S = 1.5
COARSE, FINE = 1.15, 1.08
#: The staircase's first rate as a share of the run's ``capacity_qps``:
#: the limit was crossed at 0.85-0.94 of it on both served workloads, so
#: a few steps bracket the limit however fast the machine runs.
STAIR_START = 0.9
#: Spans the traced run must record on each served workload: a stage
#: whose wrapper stops being called would otherwise read 0.
REQUIRED_SPANS = {
    workloads.DICT.name: ("protocol.decode", "protocol.encode", "batcher.submit",
                          "engine.call", "distperm.to_sites", "distperm.footrule",
                          "distperm.refine"),
    workloads.VEC.name: ("protocol.decode", "protocol.encode", "batcher.submit",
                         "engine.call", "workerpool.query"),
}
#: ``distperm.coverage_frac`` must be 1 within this: the stage spans of
#: an engine call do not overlap.
COVERAGE_TOLERANCE = 0.02

#: Numbers the sockets of this run's servers, which may be up at once.
_launches = itertools.count()


class ServerProcess:
    """One server subprocess, from launch to its graceful drain."""

    def __init__(self, name: str, seed: int, trace: Optional[str] = None):
        from repro.serve import SyncClient

        common.WORK.mkdir(exist_ok=True)
        self.socket = os.path.relpath(
            common.WORK / f"{name}-{next(_launches)}.sock", common.ROOT)
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        command = [sys.executable, "perfbench/server.py", "--workload", name,
                   "--seed", str(seed), "--socket", self.socket]
        if trace:
            command += ["--trace", trace]
        started = clock()
        self.proc = subprocess.Popen(command, cwd=common.ROOT)
        while True:
            try:
                with SyncClient(unix_path=self.socket, timeout=5.0) as client:
                    client.ping()
                break
            except OSError:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"{name} server exited during set-up")
                if clock() - started > 120:
                    self.stop()
                    raise RuntimeError(f"{name} server did not answer PING")
                time.sleep(0.005)
        self.setup_s = clock() - started

    def stats(self) -> dict:
        from repro.serve import SyncClient

        with SyncClient(unix_path=self.socket) as client:
            return client.stats()

    def peak_rss_mb(self) -> float:
        return common.tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM, wait for the drain; the exit code (killed: negative)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            for pid in common.descendants(self.proc.pid)[::-1]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self.proc.wait()
            return -signal.SIGKILL


def inputs(spec: workloads.Served, seed: int):
    """``(database, query pool, is_strings)`` of a served workload."""
    if spec is workloads.DICT:
        database, pool = workloads.dict_data(seed)
        return database, pool, True
    database, pool = workloads.vec_data(seed)
    return database, pool, False


def reference_index(spec: workloads.Served, database):
    """An in-process twin of the served index: identically built
    (``dict-approx``) or identically loaded (``vec-shard-mmap``)."""
    if spec is workloads.DICT:
        return workloads.dict_index(database)
    return workloads.vec_load(common.WORK / f"{spec.name}.v3", database,
                              resident=False)


class Traffic:
    """Seeded query order and Poisson schedules for one run."""

    def __init__(self, spec: workloads.Served, seed: int, pool_size: int):
        self.spec = spec
        self.rng = np.random.default_rng([seed, 7])
        self.pool_size = pool_size
        self._order = np.empty(0, dtype=np.int64)

    def take(self, count: int) -> np.ndarray:
        while self._order.shape[0] < count:
            self._order = np.concatenate(
                [self._order, self.rng.permutation(self.pool_size)]
            )
        taken, self._order = self._order[:count], self._order[count:]
        return taken

    def phase_size(self, rate: float, seconds: float) -> int:
        return max(workloads.MIN_REQUESTS, int(rate * seconds))


def meets_slo(phase: loadgen.PhaseResult, slo_ms: float) -> bool:
    """One staircase step met the limit: no failed request, p99 within
    the limit and no growing backlog."""
    return (
        phase.failed == 0
        and phase.percentile_ms(99) <= slo_ms
        and not phase.backlog_grew(slo_ms)
    )


def staircase_qps(steps: Sequence[Tuple[float, float, bool]], slo_ms: float,
                  next_rate: float) -> float:
    """``slo_qps`` from an up-down staircase.

    ``steps`` are ``(rate, p99 ms, met the limit)`` in walk order.  At
    every reversal the walk has offered one rate that met the limit and
    a higher one that missed it; the crossing between them is where the
    p99, interpolated log-linearly in both p99 and rate, meets the limit
    (clamped to the pair).  The estimate is the geometric mean of every
    reversal's crossing, so it spreads over the whole staircase and no
    single step (one fast or slow second of a noisy machine) sets it.
    Without a reversal the limit was never bracketed and the rate the
    walk would offer next is the best guess.
    """
    crossings = []
    for before, after in zip(steps, steps[1:]):
        if before[2] == after[2]:
            continue
        (met_rate, met_p99, _), (miss_rate, miss_p99, _) = (
            (before, after) if before[2] else (after, before))
        share = 0.0
        if miss_p99 > met_p99:
            share = np.log(slo_ms / met_p99) / np.log(miss_p99 / met_p99)
        share = min(1.0, max(0.0, share))
        crossings.append(np.log(met_rate) + share * np.log(miss_rate / met_rate))
    if not crossings:
        return next_rate
    return float(np.exp(np.mean(crossings)))


async def drive(server: ServerProcess, traffic: Traffic, send, seconds: float,
                *, high: bool = True, search: bool = True, between=None
                ) -> Tuple[Dict[str, loadgen.PhaseResult], Dict[str, float]]:
    """Warm-up, then the low and (``high``) high phases, with
    (``search``) an unloaded stretch and a capacity burst after each
    round and the staircase after the last; ``between()``, if given,
    runs after every round but the last, with nothing in flight.
    Returns the phases by label (staircase steps as ``step-NN``) and,
    with ``search``, ``capacity_qps`` (answered requests per second over
    all bursts) and ``slo_qps``.

    The low and high phases are interleaved in ``ROUNDS`` alternating
    segments, each drained before the next starts, so every figure
    samples the whole run rather than one stretch of it.  Staircase
    steps are drained too, so each starts from an empty queue.
    """
    spec = traffic.spec
    clients = await loadgen.connect(server.socket, workloads.CONNECTIONS)
    phases: Dict[str, loadgen.PhaseResult] = {}
    figures: Dict[str, float] = {}

    async def segment(rate: float, count: int) -> loadgen.PhaseResult:
        offsets = loadgen.poisson_schedule(rate, count, traffic.rng)
        return await loadgen.run_phase(clients, send, traffic.take(count),
                                       offsets, rate)

    try:
        phases["warmup"] = await segment(spec.low_qps, spec.warmup)
        sizes = {"low": traffic.phase_size(spec.low_qps, LOW_SHARE * seconds)}
        if high:
            sizes["high"] = traffic.phase_size(spec.high_qps, HIGH_SHARE * seconds)
        rates = {"low": spec.low_qps, "high": spec.high_qps}
        for label in sizes:
            phases[label] = loadgen.PhaseResult(rates[label])
        if search:
            phases["unloaded"] = loadgen.PhaseResult(0.0)
            phases["capacity"] = loadgen.PhaseResult(0.0)
        for round_ in range(ROUNDS):
            for label, size in sizes.items():
                count = size // ROUNDS + (round_ < size % ROUNDS)
                phases[label].extend(await segment(rates[label], count))
            if search:
                phases["unloaded"].extend(await loadgen.run_closed(
                    clients, send, lambda: traffic.take(1)[0], 1,
                    UNLOADED_SHARE * seconds / ROUNDS))
                burst = await loadgen.run_closed(
                    clients, send, lambda: traffic.take(1)[0], INFLIGHT,
                    BURST_SHARE * seconds / ROUNDS)
                phases["capacity"].extend(burst)
            if between is not None and round_ < ROUNDS - 1:
                between()
        if search:
            # Pooled, not the median burst: the machine's speed switches
            # between a slow and a fast mode for seconds at a time, and a
            # median would pick one mode where a mean weighs both.
            bursts = phases["capacity"].parts()
            figures["capacity_qps"] = (sum(len(b.ok()) for b in bursts)
                                       / sum(b.span_s() for b in bursts))
            rate, factor, steps = STAIR_START * figures["capacity_qps"], COARSE, []
            for i in range(max(4, round(STAIR_SHARE * seconds / STEP_S))):
                step = await segment(rate, max(1, int(rate * STEP_S)))
                ok = meets_slo(step, spec.slo_ms)
                if steps and ok != steps[-1][2]:
                    factor = FINE
                steps.append((rate, step.percentile_ms(99), ok))
                phases[f"step-{i:02d}"] = step
                rate = rate * factor if ok else rate / factor
            figures["slo_qps"] = staircase_qps(steps, spec.slo_ms, rate)
    finally:
        await loadgen.close(clients)
    return phases, figures


def measured(phases: Dict[str, loadgen.PhaseResult]) -> List[loadgen.PhaseResult]:
    """The measured open-loop phases: all but the warm-up and the
    closed loops (which have no schedule to run late on)."""
    return [p for label, p in phases.items()
            if label not in ("warmup", "unloaded", "capacity")]


def check_answers(spec, seed, database, pool, strings,
                  phase_sets: Sequence[Dict[str, loadgen.PhaseResult]]):
    """Compare every served answer with the in-process twin's row, and
    score recall against the exact kNN.  Returns ``(wrong, recall)``."""
    used = sorted({o.query for phases in phase_sets
                   for p in phases.values() for o in p.ok()})
    index = reference_index(spec, database)
    try:
        queries = [pool[i] for i in used] if strings else pool[used]
        rows = index.knn_approx_batch_arrays(queries, spec.k, budget=spec.budget)
    finally:
        if hasattr(index, "close"):
            index.close()
    reference = {}
    for j, q in enumerate(used):
        lo, hi = int(rows.offsets[j]), int(rows.offsets[j + 1])
        reference[q] = (rows.distances[lo:hi], rows.indices[lo:hi])

    if strings:
        exact = oracle.string_matrix(queries, database, np.random.default_rng([seed, 11]))
    else:
        exact = oracle.euclidean_matrix(queries, database)
    # Rows whose distances the independent matrix contradicts are wrong
    # wherever they were served.
    bad = set()
    for j, q in enumerate(used):
        distances, indices = reference[q]
        if not np.allclose(distances, exact[j, indices], rtol=1e-12, atol=0):
            bad.add(q)
    radius = dict(zip(used, oracle.kth_distances(exact, spec.k)))

    wrong, recalls = 0, []
    for phases in phase_sets:
        for label, phase in phases.items():
            for outcome in phase.ok():
                distances, indices = reference[outcome.query]
                served = outcome.rows
                if not (outcome.query not in bad
                        and served.n_queries == 1
                        and served.distances.dtype == distances.dtype
                        and served.indices.dtype == indices.dtype
                        and served.distances.tobytes() == distances.tobytes()
                        and served.indices.tobytes() == indices.tobytes()):
                    wrong += 1
                    outcome.status = "wrong"
                elif label != "warmup":
                    recalls.append(oracle.recall_at_k(
                        distances, radius[outcome.query], spec.k))
    return wrong, float(np.mean(recalls)) if recalls else 0.0


def run(spec: workloads.Served, seed: int, seconds: float, trace: bool) -> dict:
    database, pool, strings = inputs(spec, seed)
    send = loadgen.knn_approx_sender(pool, spec.k, spec.budget, strings=strings)
    if trace:
        return run_traced(spec, seed, seconds, database, pool, strings, send)

    exit_codes: List[int] = []
    server = ServerProcess(spec.name, seed)
    setups = [server.setup_s]

    def launch() -> None:
        # Set-ups spread over the run like the traffic figures, so one
        # slow spell of the machine cannot set their median.
        extra = ServerProcess(spec.name, seed)
        setups.append(extra.setup_s)
        exit_codes.append(extra.stop())

    traffic = Traffic(spec, seed, len(pool))
    try:
        phases, figures = asyncio.run(drive(server, traffic, send, seconds,
                                            between=launch))
        stats = server.stats()
        peak_rss = server.peak_rss_mb()
    finally:
        exit_codes.append(server.stop())

    wrong, recall = check_answers(spec, seed, database, pool, strings, [phases])
    low, high = phases["low"], phases["high"]
    late_p99 = loadgen.summarize_lateness(measured(phases))
    attempted = sum(len(p.outcomes) for p in phases.values())
    failed = sum(p.failed for p in phases.values())
    report = {
        "setup_s": statistics.median(setups),
        "p50_ms": phases["unloaded"].percentile_ms(50),
        "throughput_per_s": figures["capacity_qps"],
        "recall": recall,
        "peak_rss_mb": peak_rss,
    }
    lines = [
        f"setup_s {report['setup_s']:.4f} s (median of {len(setups)} launches: "
        f"{' '.join(f'{s:.3f}' for s in setups)})",
    ]
    steps = 0
    for label, phase in phases.items():
        if label == "warmup":
            continue
        n = len(phase.ok())
        if label.startswith("step-"):
            steps += 1
            lines.append(
                f"{label:>10} offered {phase.offered_qps:7.1f} q/s: "
                f"p99_ms {phase.percentile_ms(99):8.2f} ms (n={n})  failed {phase.failed}  "
                f"{'met' if meets_slo(phase, spec.slo_ms) else 'missed'}"
            )
            continue
        if label == "unloaded":
            lines.append(
                f"{label:>10} one outstanding: p50_ms per stretch "
                f"{' '.join(f'{w.percentile_ms(50):.2f}' for w in phase.parts())}  "
                f"(n={n})  failed {phase.failed}"
            )
            continue
        if label == "capacity":
            lines.append(
                f"{label:>10} answered q/s per burst: "
                f"{' '.join(f'{w.answered_qps():.1f}' for w in phase.parts())}  "
                f"(n={n})  failed {phase.failed}"
            )
            continue
        lines.append(
            f"{label:>10} offered {phase.offered_qps:7.1f} q/s: "
            f"p50_ms {phase.percentile_ms(50):8.2f} ms  "
            f"p90_ms {phase.percentile_ms(90):8.2f} ms  "
            f"p99_ms {phase.percentile_ms(99):8.2f} ms  (n={n})  "
            f"windowed p99_ms {phase.windowed_ms(99):8.2f} ms ({len(phase.windows)} windows)  "
            f"failed {phase.failed}  "
            f"backlog {'grew' if phase.backlog_grew(spec.slo_ms) else 'flat'}"
        )
    lines += [
        f"p50_ms.unloaded {report['p50_ms']:.3f} ms (one request outstanding, "
        f"{ROUNDS} stretches, n={len(phases['unloaded'].ok())})",
        f"p50_ms.low {low.windowed_ms(50):.3f} ms (median of {len(low.windows)} segment "
        f"p50s; pooled {low.percentile_ms(50):.3f} ms, n={len(low.ok())})",
        f"p90_ms.low {low.percentile_ms(90):.3f} ms (n={len(low.ok())})",
        f"p99_ms.low {low.percentile_ms(99):.3f} ms (n={len(low.ok())})",
        f"p50_ms.high {high.percentile_ms(50):.3f} ms (n={len(high.ok())})",
        f"p99_ms.high {high.percentile_ms(99):.3f} ms (n={len(high.ok())})",
        f"capacity_qps {figures['capacity_qps']:.2f} q/s ({ROUNDS} closed-loop bursts, "
        f"{INFLIGHT} in flight)",
        f"slo_qps {figures['slo_qps']:.2f} q/s (staircase of {steps} steps of {STEP_S:g} s, "
        f"p99 <= {spec.slo_ms:g} ms)",
        f"recall {recall:.4f} fraction (recall@{spec.k}, tie-aware)",
        f"failed_frac {failed / attempted:.6f} fraction "
        f"({failed} of {attempted}; {wrong} wrong answers)",
        f"peak_rss_mb {peak_rss:.2f} MB (server + workers VmHWM)",
        f"loadgen.late_p99_ms {late_p99:.3f} ms",
        f"server STATS: rejected {stats['requests_rejected']} "
        f"errored {stats['requests_errored']} mean batch {stats['mean_batch_size']:.2f}",
        f"server exit codes {exit_codes}",
    ]
    problems = []
    if any(code != 0 for code in exit_codes):
        problems.append(f"server exit codes {exit_codes}")
    if late_p99 > LATE_SHARE * spec.slo_ms:
        problems.append(f"generator late p99 {late_p99:.1f} ms exceeds "
                        f"{LATE_SHARE * spec.slo_ms:.1f} ms: run invalid")
    return {"metrics": report, "lines": lines, "attempted": attempted,
            "failed": failed, "correct": failed == 0 and not problems,
            "problems": problems, "invalid": late_p99 > LATE_SHARE * spec.slo_ms}


# ----------------------------------------------------------------------
# The traced run.
# ----------------------------------------------------------------------


def run_traced(spec, seed, seconds, database, pool, strings, send) -> dict:
    """Untraced low phase (the overhead baseline), then a traced server
    through the low and high phases; per-layer figures from its spans."""
    exit_codes = []
    server = ServerProcess(spec.name, seed)
    try:
        baseline, _ = asyncio.run(drive(server, Traffic(spec, seed, len(pool)),
                                        send, seconds, high=False, search=False))
    finally:
        exit_codes.append(server.stop())
    trace_path = os.path.relpath(common.WORK / f"{spec.name}.trace.json", common.ROOT)
    server = ServerProcess(spec.name, seed, trace=trace_path)
    try:
        phases, _ = asyncio.run(drive(server, Traffic(spec, seed, len(pool)),
                                      send, seconds, search=False))
        stats = server.stats()
    finally:
        exit_codes.append(server.stop())
    wrong, _ = check_answers(spec, seed, database, pool, strings, [baseline, phases])
    spans = tracing.load_spans(trace_path)
    absent = tracing.missing(spans, REQUIRED_SPANS[spec.name])
    problems = [f"server exit codes {exit_codes}"] if any(exit_codes) else []
    problems += [f"traced run recorded no {name} spans" for name in absent]
    layers: Dict[str, float] = {}
    if not absent:
        windows = None
        if spec is workloads.VEC:
            with np.load(trace_path + ".windows.npz") as data:
                windows = [data[f"arr_{i}"] for i in range(len(data.files))]
        layers = per_layer(spec, database, spans, phases, stats, windows)
        coverage = layers.get("distperm.coverage_frac", 1.0)
        if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
            problems.append(f"distperm.coverage_frac {coverage:.4f} is not 1 within "
                            f"{COVERAGE_TOLERANCE}: stage spans overlap")
    layers["trace.overhead_frac"] = (
        phases["low"].windowed_ms(50) / baseline["low"].windowed_ms(50) - 1.0
    )
    layers["loadgen.late_p99_ms"] = loadgen.summarize_lateness(measured(phases))
    attempted = sum(len(p.outcomes) for ps in (baseline, phases) for p in ps.values())
    failed = sum(p.failed for ps in (baseline, phases) for p in ps.values())
    lines = [f"traced {spec.name}: {len(spans)} spans; untraced p50_ms.low "
             f"{baseline['low'].windowed_ms(50):.3f} ms, traced "
             f"{phases['low'].windowed_ms(50):.3f} ms; {wrong} wrong answers"]
    return {"metrics": layers, "lines": lines, "attempted": attempted,
            "failed": failed, "correct": failed == 0 and not problems,
            "problems": problems, "invalid": False}


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def per_layer(spec, database, spans, phases, stats, windows) -> Dict[str, float]:
    """Per-layer figures over the measured (non-warm-up) phases; the
    layers of the other served workload are left to the caller."""
    outcomes = [o for phase in measured(phases) for o in phase.outcomes]
    start = min(o.due for o in outcomes)
    end = max(o.done for o in outcomes)
    # The server recorded one window per engine call, in call order.
    window_index = {
        call.id: i for i, call in enumerate(sorted(
            (s for s in spans if s.name == "engine.call"), key=lambda s: s.start))
    }
    spans = [s for s in spans if s.start >= start and s.end <= end]
    by_name: Dict[str, List[tracing.Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    calls = by_name.get("engine.call", [])
    submits = by_name.get("batcher.submit", [])
    selfs = tracing.self_times(spans)
    assigned = tracing.assign_requests(submits, calls)
    rows = sum(c.attrs["rows"] for c in calls)
    engine_s = sum(c.duration for c in calls)
    children: Dict[int, List[tracing.Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def per_query_ms(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, [])) * 1e3 / rows if rows else 0.0

    waits = [(assigned[s.id].start - s.start) * 1e3 for s in submits if s.id in assigned]
    out: Dict[str, float] = {
        "protocol.decode_us": _pct([s.duration * 1e6 for s in by_name.get("protocol.decode", [])], 50),
        "protocol.encode_us": _pct([s.duration * 1e6 for s in by_name.get("protocol.encode", [])], 50),
        "batcher.queue_wait_ms.p50": _pct(waits, 50),
        "batcher.queue_wait_ms.p99": _pct(waits, 99),
        "batcher.queue_wait_ms.mean": float(np.mean(waits)) if waits else 0.0,
        "batcher.coalesce_mean_ms": stats["coalesce_latency_mean_s"] * 1e3,
        "batcher.rows_per_call": rows / len(calls) if calls else 0.0,
        "batcher.engine_busy_frac": engine_s / (end - start),
        "batcher.rejected": float(stats["requests_rejected"]),
        "batcher.unassigned_requests": float(len(submits) - len(assigned)),
    }
    if spec is workloads.DICT:
        select = sum(selfs[c.id] for c in calls) * 1e3 / rows
        parts = ["distperm.to_sites", "distperm.footrule", "distperm.refine"]
        out.update({
            "distperm.call_ms_per_query": engine_s * 1e3 / rows,
            "distperm.to_sites_ms_per_query": per_query_ms(parts[0]),
            "distperm.footrule_ms_per_query": per_query_ms(parts[1]),
            "distperm.refine_ms_per_query": per_query_ms(parts[2]),
            "distperm.select_ms_per_query": select,
            "distperm.refine_calls_per_call": len(by_name.get(parts[2], [])) / len(calls),
            "distperm.distances_per_query": sum(c.attrs["distances"] for c in calls) / rows,
            "metrics.plan_calls_per_call": sum(c.attrs.get("plan_calls", 0) for c in calls) / len(calls),
            "metrics.myers_builds_per_call": sum(c.attrs["myers_builds"] for c in calls) / len(calls),
        })
        out["distperm.coverage_frac"] = (
            sum(out[f"{p}_ms_per_query"] for p in parts) + select
        ) / out["distperm.call_ms_per_query"]
    else:
        fanouts = by_name.get("workerpool.query", [])
        maxima, skews = [], []
        for fanout in fanouts:
            answered = [v for v in fanout.attrs["latencies"] if v is not None]
            maxima.append(max(answered))
            if len(answered) > 1 and min(answered) > 0:
                skews.append(max(answered) / min(answered))
        supervisor = []
        for call in calls:
            slowest = sum(max(v for v in f.attrs["latencies"] if v is not None)
                          for f in children.get(call.id, []) if f.name == "workerpool.query")
            supervisor.append((call.duration - slowest) * 1e3)
        out.update({
            "sharded.call_ms_per_query": engine_s * 1e3 / rows,
            "sharded.roundtrips_per_call": len(fanouts) / len(calls),
            "sharded.supervisor_ms": float(np.mean(supervisor)),
            "workerpool.shard_ms_max": float(np.mean(maxima)) * 1e3,
            "workerpool.shard_skew": float(np.mean(skews)) if skews else 1.0,
            "workerpool.reply_bytes_per_query": sum(c.attrs["reply_bytes"] for c in calls) / rows,
            "workerpool.respawns": float(max(f.attrs["respawns"] for f in fanouts)),
        })
        sampled = sorted(calls, key=lambda c: c.start)[::PROBE_STRIDE]
        out.update(storage_probe(
            spec, database, [windows[window_index[c.id]] for c in sampled]))
    return out


def storage_probe(spec, database, windows: Sequence[np.ndarray]) -> Dict[str, float]:
    """Replay the served engine windows against an in-process mmap load
    of the same payload and cache size; read the code stores' counters.

    Resident workers keep their stores to themselves, so the served run
    records each window's query rows and this replay reproduces the
    workers' block traffic for a stride sample of the windows, which
    keeps the served mix of window sizes; the counts repeat exactly for
    the same windows (checked by replaying the first windows twice).
    """
    def replay(selected) -> Tuple[int, int, int, int]:
        index = workloads.vec_load(common.WORK / f"{spec.name}.v3", database,
                                   resident=False)
        decoded = [0]
        try:
            stores = [shard.code_store for shard in index.shards]
            for store in stores:
                codes_block = store.codes_block

                def counted(block, store=store, codes_block=codes_block):
                    misses = store.cache_misses
                    codes = codes_block(block)
                    if store.cache_misses > misses:
                        decoded[0] += codes.nbytes
                    return codes

                store.codes_block = counted
            for window in selected:
                index.knn_approx_batch_arrays(window, spec.k, budget=spec.budget)
            return (sum(s.cache_hits for s in stores),
                    sum(s.cache_misses for s in stores), decoded[0],
                    max(s.peak_cache_bytes for s in stores))
        finally:
            index.close()

    head = windows[:20]
    if replay(head) != replay(head):
        raise AssertionError("storage counters did not repeat for the same windows")
    hits, misses, decoded, peak = replay(windows)
    queries = sum(len(w) for w in windows)
    return {
        "storage.decoded_bytes_per_query": decoded / queries,
        "storage.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "storage.peak_cache_bytes": float(peak),
    }
