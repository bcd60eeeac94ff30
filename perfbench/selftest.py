"""Self-tests of the benchmark's own arithmetic and declarations.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

They need no server and finish in a few seconds.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.bootstrap()

import loadgen  # noqa: E402
import oracle  # noqa: E402
import serving  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import numpy as np  # noqa: E402


def _span(id, name, start, end, parent=None):
    return tracing.Span(id, name, start, end, parent=parent)


def test_self_time_of_hand_built_tree():
    spans = [
        _span(1, "call", 0.0, 10.0),
        _span(2, "to_sites", 1.0, 2.0, parent=1),
        _span(3, "footrule", 2.0, 5.0, parent=1),
        _span(4, "inner", 3.0, 4.0, parent=3),
        # Overlapping siblings count once.
        _span(5, "refine", 4.5, 7.0, parent=1),
        # A request span parented to the call but enclosing it takes
        # none of the call's time.
        _span(6, "submit", -1.0, 11.0, parent=1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == 10.0 - (1.0 + 3.0 + 2.0)
    assert selfs[3] == 3.0 - 1.0
    assert selfs[4] == 1.0
    assert selfs[5] == 2.5
    assert selfs[6] == 12.0


def test_requests_are_parented_to_the_call_that_answered_them():
    calls = [_span(10, "engine.call", 1.0, 2.0), _span(11, "engine.call", 2.5, 4.0)]
    submits = [
        _span(1, "batcher.submit", 0.5, 2.1),
        _span(2, "batcher.submit", 0.9, 2.2),
        _span(3, "batcher.submit", 2.0, 4.1),
    ]
    assigned = tracing.assign_requests(submits, calls)
    assert [assigned[s.id].id for s in submits] == [10, 10, 11]
    assert [s.parent for s in submits] == [10, 10, 11]


def test_missing_names_the_stages_without_spans():
    spans = [_span(1, "engine.call", 0.0, 1.0), _span(2, "distperm.footrule", 0.1, 0.2, 1)]
    required = ("engine.call", "distperm.to_sites", "distperm.footrule")
    assert tracing.missing(spans, required) == ["distperm.to_sites"]


def test_edit_distance_matrix_matches_the_plain_programme():
    words = ["", "a", "ab", "ba", "kitten", "sitting", "flaw", "lawn",
             "aaaa", "abcabc", "intention", "execution"]
    rng = np.random.default_rng(5)
    words += ["".join(rng.choice(list("abc"), size=rng.integers(0, 9))) for _ in range(40)]
    matrix = oracle.edit_distance_matrix(words[:20], words)
    expected = [[oracle.levenshtein(a, b) for b in words] for a in words[:20]]
    assert matrix.tolist() == expected
    assert oracle.edit_distance_matrix(["kitten"], ["sitting"])[0, 0] == 3


class _StallingServer:
    """Answers one request at a time in ``service`` seconds; the request
    numbered ``stall_at`` takes ``stall`` seconds instead."""

    def __init__(self, service: float, stall_at: int, stall: float):
        self.service = service
        self.stall_at = stall_at
        self.stall = stall
        self.lock = asyncio.Lock()

    async def send(self, client, query: int):
        async with self.lock:
            await asyncio.sleep(self.stall if query == self.stall_at else self.service)
        return query


def test_latency_from_schedule_includes_a_server_stall():
    server = _StallingServer(service=0.001, stall_at=10, stall=0.3)
    offsets = np.arange(40) * 0.01  # one request due every 10 ms
    phase = asyncio.run(loadgen.run_phase(
        [None], server.send, list(range(40)), offsets, 100.0))
    latency = {o.query: (o.done - o.due) for o in phase.outcomes}
    # Request 20 was due 100 ms into the 300 ms stall: it waits ~200 ms.
    assert latency[20] > 0.18
    assert latency[12] > latency[20] > latency[28]
    assert max(phase.lateness_ms()) < 50


def test_latency_from_schedule_includes_a_generator_stall():
    """A generator that falls behind its schedule must not hide the
    delay: timed from the due time, late sends count against latency,
    and the lateness itself is reported."""
    async def send(client, query):
        if query == 5:
            time.sleep(0.2)  # blocks the event loop, generator included
        await asyncio.sleep(0.001)
        return query

    offsets = np.arange(30) * 0.01
    phase = asyncio.run(loadgen.run_phase([None], send, list(range(30)), offsets, 100.0))
    by_query = {o.query: o for o in phase.outcomes}
    late = by_query[10]
    assert (late.sent - late.due) > 0.1
    assert (late.done - late.due) > 0.1
    # Timed from the send instead, the same request would look fast.
    assert (late.done - late.sent) < 0.05
    assert max(phase.lateness_ms()) > 100


def test_closed_loop_keeps_inflight_requests_outstanding():
    state = {"now": 0, "peak": 0}

    async def send(client, query):
        state["now"] += 1
        state["peak"] = max(state["peak"], state["now"])
        await asyncio.sleep(0.01)
        state["now"] -= 1
        return query

    queries = iter(range(10_000))
    phase = asyncio.run(loadgen.run_closed([None, None], send,
                                           lambda: next(queries), 4, 0.2))
    assert state["peak"] == 4
    assert phase.failed == 0
    # Four callers, 10 ms per answer, for 0.2 s: about 80 answers.
    assert 50 <= len(phase.ok()) <= 90
    assert 250 <= phase.answered_qps() <= 450


def test_staircase_interpolates_each_reversal():
    steps = [
        (100.0, 50.0, True),
        (200.0, 400.0, False),   # p99 50 -> 400: 200 ms two thirds of the way
        (100.0, 100.0, True),    # p99 100 -> 400: 200 ms half of the way
        (200.0, 100.0, False),   # missed with a p99 no higher: clamped to 100
    ]
    crossings = [100.0 * 2 ** (2 / 3), 100.0 * 2 ** 0.5, 100.0]
    expected = float(np.exp(np.mean(np.log(crossings))))
    assert abs(serving.staircase_qps(steps, 200.0, 100.0) - expected) < 1e-9
    # Never bracketed: the rate the walk would offer next.
    assert serving.staircase_qps([(100.0, 50.0, True), (120.0, 60.0, True)],
                                 200.0, 144.0) == 144.0


def test_benchmark_json_declares_every_metric_and_workload():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] and metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert set(bounds) == {"setup_s", "p50_ms", "throughput_per_s",
                           "recall", "peak_rss_mb"}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    assert set(whys) == set(workloads.WORKLOADS)
    for served in (workloads.DICT, workloads.VEC):
        why = whys[served.name]
        assert f"rates {served.low_qps:g}/{served.high_qps:g} q/s" in why, why
        assert f"SLO p99 {served.slo_ms:g} ms" in why, why
        assert f"index seed {workloads.FIXTURE}" in why, why
    for why in whys.values():
        assert len(why) <= 200 and "\n" not in why


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
