"""Seeded open-loop arrivals and the client that sends them.

One thread submits every request at its due time, whatever the state of
earlier requests, and between due times waits on the oldest unanswered
ticket, stamping each answer with this module's clock.  A request's
latency runs from when it was *due*, not from when it was sent, so a
stall of the sending thread is charged to every request it delays.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter, sleep

import numpy as np


@dataclass(frozen=True)
class Schedule:
    """When each request is due (seconds after the start) and its payload."""

    due_s: np.ndarray
    payload: np.ndarray

    def __len__(self) -> int:
        return int(self.due_s.shape[0])


def poisson_schedule(rate_per_s: float, seconds: float, pool_size: int,
                     rng: np.random.Generator) -> Schedule:
    """``round(rate * seconds)`` arrivals with exponential gaps.

    The gaps are drawn exponential and scaled so that the last arrival
    lands exactly at ``seconds``: a Poisson process conditioned on its
    count.  The offered rate is then exact, and throughput does not
    wander with the count a seed happens to draw.  Payloads run through
    the pool in shuffled passes, so every digit is sent about equally
    often and accuracy and OPS do not wander with the digits a seed draws.
    """
    count = int(round(rate_per_s * seconds))
    gaps = rng.exponential(1.0 / rate_per_s, size=count)
    due = np.cumsum(gaps)
    due *= seconds / due[-1]
    passes = -(-count // pool_size)
    payload = np.concatenate([rng.permutation(pool_size) for _ in range(passes)])
    return Schedule(due_s=due, payload=payload[:count])


#: The first request is due this long after the client starts.
LEAD_S = 0.02
#: A ticket still unresolved this long after the last due time is stranded.
RESULT_TIMEOUT_S = 30.0

#: Response fields the client keeps, one array each.  The responses
#: themselves are dropped as they arrive: holding thousands of live
#: objects would make the garbage collector of the process under test
#: scan them, and charge the pauses to the program's tail latency.
ANSWER_FIELDS = (
    "label", "exit_stage", "ops", "latency_s", "queue_wait_s", "batch_size",
)


@dataclass
class OpenLoopRun:
    """What the client saw, one entry per scheduled request.

    Times are absolute ``perf_counter`` readings.  ``answered_at`` is NaN
    for a request that was refused at submit, failed, or never resolved;
    ``answers[name]`` holds each field of :data:`ANSWER_FIELDS` (NaN
    where there was no answer).
    """

    started_at: float
    due: np.ndarray
    sent: np.ndarray
    answered_at: np.ndarray
    answers: dict[str, np.ndarray]
    refused: int
    failed: int
    stranded: int

    @property
    def attempted(self) -> int:
        return int(self.due.shape[0])

    @property
    def answered(self) -> np.ndarray:
        """Indices of the requests that came back with an answer."""
        return np.flatnonzero(~np.isnan(self.answered_at))

    def latencies_s(self) -> np.ndarray:
        """Due-time latency per request; ``inf`` where nothing came back."""
        latency = self.answered_at - self.due
        return np.where(np.isnan(latency), np.inf, latency)

    def late_s(self) -> np.ndarray:
        """How far behind schedule each request was sent."""
        return self.sent - self.due

    def offered_rps(self) -> float:
        """Requests per second actually sent, from the start to the last send.

        Below the scheduled rate when the sender fell behind at the end.
        """
        return float(self.attempted / (np.nanmax(self.sent) - self.started_at))

    def throughput_per_s(self) -> float:
        """Answers per second from the start to the last answer."""
        done = self.answered_at[~np.isnan(self.answered_at)]
        if done.size == 0:
            return 0.0
        return float(done.size / (done.max() - self.started_at))


def run_open_loop(submit, schedule: Schedule, pool: np.ndarray) -> OpenLoopRun:
    """Send ``pool[schedule.payload[i]]`` through ``submit`` at each due time.

    ``submit(image)`` must return a ticket with ``result(timeout=)``.  The
    calling thread both sends and collects: between due times it waits on
    the oldest unanswered ticket, so an answer is stamped as it arrives
    and no second client thread competes with the program for the
    interpreter.  A ticket still unresolved ``RESULT_TIMEOUT_S`` after the
    last due time counts as stranded.
    """
    n = len(schedule)
    sent = np.full(n, np.nan)
    answered_at = np.full(n, np.nan)
    answers = {name: np.full(n, np.nan) for name in ANSWER_FIELDS}
    waiting: deque = deque()
    refused = failed = 0
    started_at = perf_counter() + LEAD_S
    due = started_at + schedule.due_s
    give_up_at = due[-1] + RESULT_TIMEOUT_S
    i = 0
    while i < n or waiting:
        now = perf_counter()
        if i < n and now >= due[i]:
            sent[i] = now
            try:
                waiting.append((i, submit(pool[schedule.payload[i]])))
            except Exception:  # noqa: BLE001 -- a refusal is a result
                refused += 1
            i += 1
            continue
        until = due[i] if i < n else give_up_at
        if not waiting:
            sleep(until - now)
            continue
        j, ticket = waiting[0]
        try:
            response = ticket.result(timeout=until - now)
        except TimeoutError:
            if i == n:
                break  # past the give-up time: the rest are stranded
            continue
        stamp = perf_counter()
        waiting.popleft()
        if response.failed:
            failed += 1
            continue
        answered_at[j] = stamp
        for name in ANSWER_FIELDS:
            answers[name][j] = getattr(response, name)
    return OpenLoopRun(
        started_at=started_at,
        due=due,
        sent=sent,
        answered_at=answered_at,
        answers=answers,
        refused=refused,
        failed=failed,
        stranded=len(waiting),
    )
