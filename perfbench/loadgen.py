"""Open-loop load generator timed from each request's scheduled send time.

Independent users make an open loop: requests are due on a seeded
Poisson schedule whatever the server does, so a stalled server (or a
stalled generator) makes later requests wait, and that wait is counted.
Each request's latency runs from its *due* time to its answer; the
generator's lateness (actual send minus due time) is reported so a run
whose generator could not keep its schedule can be declared invalid.

:func:`run_closed` is the closed loop the capacity figure uses: a fixed
number of callers, each sending its next request when the last is
answered.

Built on the library's public :class:`repro.serve.AsyncClient`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Sequence

import numpy as np

clock = time.perf_counter


@dataclass
class Outcome:
    """One request: when it was due, sent and answered, and how."""

    query: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    #: "ok", "rejected" or "error".
    status: str = ""
    rows: Any = None


@dataclass
class PhaseResult:
    """Every request of one phase: one offered rate, or the closed-loop
    capacity bursts (``offered_qps`` 0)."""

    offered_qps: float
    outcomes: List[Outcome] = field(default_factory=list)
    #: Sizes of the consecutive windows ``outcomes`` splits into.
    windows: List[int] = field(default_factory=list)

    def extend(self, part: "PhaseResult") -> None:
        """Append another stretch of the same rate as one more window."""
        self.outcomes.extend(part.outcomes)
        self.windows.append(len(part.outcomes))

    def ok(self) -> List[Outcome]:
        return [o for o in self.outcomes if o.status == "ok"]

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status != "ok")

    def latencies_ms(self) -> np.ndarray:
        """Due-to-answer latency of every answered request, ms."""
        return np.array([(o.done - o.due) * 1e3 for o in self.ok()])

    def lateness_ms(self) -> np.ndarray:
        """Send-minus-due lateness of every request, ms."""
        return np.array([(o.sent - o.due) * 1e3 for o in self.outcomes])

    def span_s(self) -> float:
        """Seconds from the first due time to the last answer."""
        return max(o.done for o in self.outcomes) - min(o.due for o in self.outcomes)

    def answered_qps(self) -> float:
        """Answered requests per second over :meth:`span_s`."""
        return len(self.ok()) / self.span_s()

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.latencies_ms(), q))

    def parts(self) -> List["PhaseResult"]:
        bounds = np.cumsum([0] + (self.windows or [len(self.outcomes)]))
        return [PhaseResult(self.offered_qps, self.outcomes[lo:hi])
                for lo, hi in zip(bounds[:-1], bounds[1:])]

    def windowed_ms(self, q: float) -> float:
        """Median over the windows of each window's ``q``-th percentile
        latency: the figure a typical window sees, which a stall or a
        slow spell of the machine inside fewer than half of the windows
        cannot set."""
        return float(np.median([w.percentile_ms(q) for w in self.parts() if w.ok()]))

    def backlog_grew(self, limit_ms: float) -> bool:
        """True when in most windows the last quarter waited, on average,
        more than half of ``limit_ms`` longer than the first quarter:
        the queue grew through the phase, not just through one stall."""
        grew = []
        for window in self.parts():
            lat = np.array([(o.done - o.due) * 1e3 for o in window.outcomes])
            quarter = max(1, len(lat) // 4)
            grew.append(lat[-quarter:].mean() - lat[:quarter].mean() > limit_ms / 2)
        return sum(grew) > len(grew) / 2


def poisson_schedule(rate: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Due offsets (seconds from phase start) of ``count`` Poisson arrivals."""
    gaps = rng.exponential(1.0 / rate, size=count)
    return np.cumsum(gaps) - gaps[0]


async def run_phase(
    clients: Sequence[Any],
    send: Callable[[Any, int], Any],
    queries: Sequence[int],
    offsets: np.ndarray,
    offered_qps: float,
) -> PhaseResult:
    """Send ``send(client, queries[i])`` at ``offsets[i]`` after the start.

    ``send`` is a coroutine function returning the answer rows; it may
    raise :class:`repro.serve.ServerBusyError` (counted as rejected) or
    anything else (counted as an error).  Requests rotate over
    ``clients``.  Returns once every request has finished.
    """
    from repro.serve import ServerBusyError

    result = PhaseResult(offered_qps)
    tasks = []

    async def one(client, outcome: Outcome) -> None:
        outcome.sent = clock()
        try:
            outcome.rows = await send(client, outcome.query)
            outcome.status = "ok"
        except ServerBusyError:
            outcome.status = "rejected"
        except Exception:  # noqa: BLE001 - any failure is a failed request
            outcome.status = "error"
        outcome.done = clock()

    start = clock()
    for i, (query, offset) in enumerate(zip(queries, offsets)):
        due = start + float(offset)
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        outcome = Outcome(query=int(query), due=due)
        result.outcomes.append(outcome)
        tasks.append(asyncio.ensure_future(one(clients[i % len(clients)], outcome)))
    await asyncio.gather(*tasks)
    return result


async def run_closed(
    clients: Sequence[Any],
    send: Callable[[Any, int], Any],
    next_query: Callable[[], int],
    inflight: int,
    seconds: float,
) -> PhaseResult:
    """Keep ``inflight`` requests outstanding for ``seconds``.

    A closed loop: each answer sends the next query at once, so the
    server is never idle and never holds more than ``inflight`` rows,
    whatever its speed.  Each request is due when sent.  Returns once
    the last request has been answered.
    """
    from repro.serve import ServerBusyError

    result = PhaseResult(0.0)
    end = clock() + seconds

    async def caller(client) -> None:
        while clock() < end:
            outcome = Outcome(query=int(next_query()), due=clock())
            outcome.sent = outcome.due
            result.outcomes.append(outcome)
            try:
                outcome.rows = await send(client, outcome.query)
                outcome.status = "ok"
            except ServerBusyError:
                outcome.status = "rejected"
            except Exception:  # noqa: BLE001 - any failure is a failed request
                outcome.status = "error"
            outcome.done = clock()

    await asyncio.gather(*(caller(clients[i % len(clients)]) for i in range(inflight)))
    return result


async def connect(socket_path: str, count: int) -> List[Any]:
    from repro.serve import AsyncClient

    return [await AsyncClient.connect(unix_path=socket_path) for _ in range(count)]


async def close(clients: Sequence[Any]) -> None:
    for client in clients:
        await client.close()


def knn_approx_sender(pool: Sequence[Any], k: int, budget: int, *, strings: bool):
    """A ``send`` for :func:`run_phase`: one single-row knn-approx request."""
    if strings:
        rows = [[q] for q in pool]
    else:
        rows = [np.ascontiguousarray(pool[i : i + 1]) for i in range(len(pool))]

    async def send(client, query: int):
        answer = await client.knn_approx(rows[query], k, budget=budget)
        return answer.rows

    return send


def summarize_lateness(phases: Sequence[PhaseResult]) -> float:
    """p99 generator lateness over several phases, ms."""
    return float(np.percentile(np.concatenate([p.lateness_ms() for p in phases]), 99))
