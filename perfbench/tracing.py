"""Span recorder for the traced run, installed from outside the library.

A span is ``(name, start, end, parent, request_id, attrs)``.  Spans are
kept in memory and written out once, when the traced process ends.
The wrappers are put in place at start-up, only in the traced run, by
substituting instance attributes (``server.batcher.submit``,
``index.knn_approx_batch_arrays``, ``index.metric.to_sites``, ...) and
module or class attributes (``repro.serve.protocol.decode_request``,
``repro.index.distperm.footrule_matrix_batch``, ``WorkerPool.query``,
...).  Nothing inside ``src/`` changes.

Parenting: spans opened on one thread nest under that thread's open
span (the engine call parents its ``to_sites``/footrule/refine calls).
Request spans live on the event loop, where requests interleave, so
they are parented to the engine call that answered them afterwards
(:func:`assign_requests`).
"""

from __future__ import annotations

import contextvars
import functools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

clock = time.perf_counter

#: Protocol request id of the frame the current asyncio task is serving.
_request_id: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request_id", default=None
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request_id", "attrs")

    def __init__(self, id, name, start, end=None, parent=None,
                 request_id=None, attrs=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request_id = request_id
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent,
                self.request_id, self.attrs]

    @classmethod
    def from_list(cls, row) -> "Span":
        return cls(*row)


class Recorder:
    """In-memory span store; thread-safe, with a per-thread span stack."""

    def __init__(self, keep_windows: bool = False):
        self.spans: List[Span] = []
        self.windows: List[np.ndarray] = []
        self.keep_windows = keep_windows
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, *, nested: bool = True,
             request_id=None, **attrs) -> Span:
        with self._lock:
            self._ids += 1
            span_id = self._ids
        parent = self.current() if nested else None
        span = Span(span_id, name, clock(),
                    parent=parent.id if parent is not None else None,
                    request_id=request_id, attrs=attrs)
        if nested:
            self._stack().append(span)
        return span

    def close(self, span: Span, *, nested: bool = True) -> None:
        span.end = clock()
        if nested:
            stack = self._stack()
            if stack and stack[-1] is span:
                stack.pop()
        with self._lock:
            self.spans.append(span)

    def count(self, key: str, amount: int = 1) -> None:
        """Add to a counter on the outermost open span of this thread
        (on the engine thread: the engine call)."""
        stack = self._stack()
        if stack:
            stack[0].attrs[key] = stack[0].attrs.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable, **fixed) -> Callable:
        """A synchronous wrapper recording one nested span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, **fixed)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": [s.to_list() for s in self.spans]}, handle)
        if self.keep_windows:
            np.savez(path + ".windows.npz", *self.windows)


def load_spans(path: str) -> List[Span]:
    with open(path) as handle:
        return [Span.from_list(row) for row in json.load(handle)["spans"]]


# ----------------------------------------------------------------------
# Analysis.
# ----------------------------------------------------------------------


def missing(spans: Sequence[Span], names: Sequence[str]) -> List[str]:
    """The ``names`` no span in ``spans`` carries."""
    recorded = {span.name for span in spans}
    return [name for name in names if name not in recorded]


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Only children inside their parent's interval count: a request span
    parented to the engine call that answered it encloses that call
    and takes none of its time.
    """
    by_id = {span.id: span for span in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None and parent.start <= span.start and span.end <= parent.end:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def assign_requests(submits: Sequence[Span], calls: Sequence[Span]) -> Dict[int, Span]:
    """Parent each ``batcher.submit`` span to the engine call answering it.

    A request is answered by the last engine call that ended before its
    submit returned and started after it was submitted; the batcher
    runs one engine call at a time, so that call is unique.
    """
    calls = sorted(calls, key=lambda s: s.end)
    ends = np.array([c.end for c in calls])
    assigned: Dict[int, Span] = {}
    for submit in submits:
        i = int(np.searchsorted(ends, submit.end, side="right")) - 1
        if i >= 0 and calls[i].start >= submit.start:
            assigned[submit.id] = calls[i]
            submit.parent = calls[i].id
    return assigned


# ----------------------------------------------------------------------
# Installation.
# ----------------------------------------------------------------------


def install_server(recorder: Recorder, server) -> None:
    """Wrap the served path: protocol, batcher, engine and the layers
    below the engine call of whichever index the server holds."""
    from repro.serve import protocol

    decode = protocol.decode_request
    encode = protocol.encode_response

    def decode_request(payload):
        span = recorder.open("protocol.decode", nested=False)
        try:
            request = decode(payload)
        finally:
            recorder.close(span, nested=False)
        span.request_id = request.request_id
        _request_id.set(request.request_id)
        return request

    def encode_response(request_id, *args, **kwargs):
        span = recorder.open("protocol.encode", nested=False,
                             request_id=request_id)
        try:
            return encode(request_id, *args, **kwargs)
        finally:
            recorder.close(span, nested=False)

    protocol.decode_request = decode_request
    protocol.encode_response = encode_response

    batcher = server.batcher
    submit = batcher.submit

    async def traced_submit(op, queries, **kwargs):
        span = recorder.open("batcher.submit", nested=False,
                             request_id=_request_id.get(), rows=len(queries))
        try:
            return await submit(op, queries, **kwargs)
        finally:
            recorder.close(span, nested=False)

    batcher.submit = traced_submit
    install_engine(recorder, server.index)


def install_engine(recorder: Recorder, index) -> None:
    """Wrap one index's engine call and the layers it calls into."""
    from repro.metrics import bitparallel

    engine = index.knn_approx_batch_arrays
    sharded = hasattr(index, "shards")

    def knn_approx_batch_arrays(queries, k, budget=None):
        if recorder.keep_windows:
            recorder.windows.append(np.array(queries, copy=True))
        stats = index.stats
        before = (stats.query_distances, stats.reply_bytes, bitparallel.build_count())
        span = recorder.open("engine.call", rows=len(queries))
        try:
            return engine(queries, k, budget=budget)
        finally:
            recorder.close(span)
            span.attrs["distances"] = stats.query_distances - before[0]
            span.attrs["reply_bytes"] = stats.reply_bytes - before[1]
            span.attrs["myers_builds"] = bitparallel.build_count() - before[2]

    index.knn_approx_batch_arrays = knn_approx_batch_arrays
    if sharded:
        install_workerpool(recorder)
    else:
        install_distperm(recorder, index)


def install_distperm(recorder: Recorder, index) -> None:
    from repro.index import distperm
    from repro.metrics import encoding

    metric = index.metric
    metric.to_sites = recorder.wrap("distperm.to_sites", metric.to_sites)
    metric.batch_distances = recorder.wrap(
        "distperm.refine", metric.batch_distances
    )
    distperm.footrule_matrix_batch = recorder.wrap(
        "distperm.footrule", distperm.footrule_matrix_batch
    )
    plan = encoding.levenshtein_kernel_plan

    def levenshtein_kernel_plan(*args, **kwargs):
        recorder.count("plan_calls")
        return plan(*args, **kwargs)

    encoding.levenshtein_kernel_plan = levenshtein_kernel_plan


def install_workerpool(recorder: Recorder) -> None:
    from repro.parallel.workerpool import WorkerPool

    query = WorkerPool.query

    def traced_query(self, op, queries, arg, budgets, policy, active=None):
        span = recorder.open("workerpool.query", op=op, rows=len(queries))
        try:
            reply = query(self, op, queries, arg, budgets, policy, active=active)
        finally:
            recorder.close(span)
            span.attrs["respawns"] = self.respawns
        span.attrs["latencies"] = list(reply[2])
        span.attrs["reply_bytes"] = list(reply[3])
        return reply

    WorkerPool.query = traced_query


def install_census(recorder: Recorder, metric) -> None:
    """Wrap the census layers; ``metric`` is the instance the job uses."""
    from repro.core.estimate import StreamingCensus
    from repro.parallel import census

    census.sharded_census = recorder.wrap("census.chunk", census.sharded_census)
    census.prefix_permutation_codes = recorder.wrap(
        "permutation.codes", census.prefix_permutation_codes
    )
    metric.to_sites = recorder.wrap("census.to_sites", metric.to_sites)
    StreamingCensus.merge = recorder.wrap("census.merge", StreamingCensus.merge)


def traced_chunks(recorder: Recorder, chunks):
    """Re-yield ``chunks``, recording each ``next()`` as an ``io.parse`` span."""
    iterator = iter(chunks)
    while True:
        span = recorder.open("io.parse", nested=False)
        try:
            chunk = next(iterator)
        except StopIteration:
            return
        finally:
            recorder.close(span, nested=False)
        yield chunk
