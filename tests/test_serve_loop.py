"""The one serve loop, driven by hand on a virtual clock.

``repro.serving.engine.serve_batches`` hands every front end's batches
to its executors.  Here two fake executors stand in for the engine and
for replica processes: no thread and no process, only a
:class:`~repro.serving.batching.VirtualClock` that the test moves the
way ``simulate()`` does, one arrival at a time.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.serving import MicroBatchPolicy, ResiliencePolicy
from repro.serving.batching import Dispatcher, VirtualClock
from repro.serving.engine import Executor, serve_batches
from repro.serving.resilience import Supervisor

SHAPE = (2,)


class Ledger:
    """Counts every resolution of every ticket."""

    def __init__(self) -> None:
        self.counts: Counter[int] = Counter()
        self.answers: dict[int, object] = {}

    def resolve(self, pending, answer) -> None:
        rid = pending.ticket.request_id
        self.counts[rid] += 1
        self.answers[rid] = answer
        pending.ticket._resolve(answer)

    def exactly_once(self, tickets) -> bool:
        return self.counts == Counter(t.request_id for t in tickets) and all(
            t.done for t in tickets
        )


class FakeExecutor(Executor):
    """Serves a batch in ``service_s`` virtual seconds without moving the
    clock: it is busy until then, so that is when it is idle again.  The
    first ``crashes`` batches it takes crash it instead."""

    def __init__(
        self, index, dispatcher, supervisor, ledger, *, service_s, crashes=0
    ):
        self.index = index
        self.dispatcher = dispatcher
        self.supervisor = supervisor
        self.ledger = ledger
        self.service_s = service_s
        self.crashes = crashes
        self.idle_since = dispatcher.clock.now()
        #: ``(departure, request ids)`` of every batch it served.
        self.served: list[tuple[float, list[int]]] = []

    def run(self, batch) -> None:
        assert self.inflight is batch and self.idle_since is None
        self.inflight = None
        self.dispatcher.done(batch)
        if self.crashes:
            self.crashes -= 1
            self.idle_since = self.supervisor.crashed(
                self.index, batch.items, f"executor {self.index} crashed"
            )
            self.gone = self.idle_since is None
            return
        ids = [p.ticket.request_id for p in batch.items]
        self.served.append((batch.dispatched_at, ids))
        for pending in batch.items:
            self.ledger.resolve(pending, self.index)
        self.idle_since = batch.dispatched_at + self.service_s


def _pool(policy, *, services, crashes=(0, 0), resilience=None):
    """A dispatcher on a virtual clock at 0 and two fake executors."""
    ledger = Ledger()
    dispatcher = Dispatcher(
        policy,
        input_shape=SHAPE,
        fail=lambda pending, cause, message: ledger.resolve(pending, cause),
    )
    dispatcher.set_clock(VirtualClock())
    supervisor = Supervisor(resilience, dispatcher, executors=2)
    executors = [
        FakeExecutor(i, dispatcher, supervisor, ledger, service_s=s, crashes=c)
        for i, (s, c) in enumerate(zip(services, crashes))
    ]
    return dispatcher, executors, ledger


def _feed(dispatcher, executors, times):
    """``simulate()``'s arrival feed: serve what leaves before each
    arrival, submit it, and serve the rest once the arrivals end."""
    tickets = []
    for t in times:
        serve_batches(dispatcher, executors, until=t)
        dispatcher.clock.t = t
        tickets.append(dispatcher.submit(np.zeros(SHAPE)))
    serve_batches(dispatcher, executors, until=float("inf"))
    return tickets


def test_batch_goes_to_the_executor_idle_longest():
    # Executor 0 is slow, executor 1 fast: round-robin would hand the
    # third batch to 0, which is still busy; the loop hands it to 1.
    dispatcher, (slow, fast), ledger = _pool(
        MicroBatchPolicy(max_batch_size=2, max_wait_s=0.0625),
        services=(1.0, 0.125),
    )
    tickets = _feed(
        dispatcher, [slow, fast], [0.0, 0.0, 0.125, 0.125, 0.25, 0.25]
    )
    assert slow.served == [(0.0, [0, 1])]
    assert fast.served == [(0.125, [2, 3]), (0.25, [4, 5])]
    assert ledger.exactly_once(tickets)
    assert dispatcher.queue_depth() == 0


def test_window_opens_at_the_pools_earliest_idle_since():
    dispatcher, executors, ledger = _pool(
        MicroBatchPolicy(max_batch_size=4, max_wait_s=0.5), services=(1.0, 1.0)
    )
    late, early = executors
    late.idle_since, early.idle_since = 2.0, 1.0
    tickets = _feed(dispatcher, executors, [0.0])
    # The window opened when the pool's first executor went idle (1.0),
    # not at the arrival (0.0) nor at the later executor's 2.0.
    assert early.served == [(1.5, [0])]
    assert late.served == []
    assert ledger.exactly_once(tickets)


def test_a_full_batch_leaves_when_the_first_executor_frees():
    dispatcher, executors, ledger = _pool(
        MicroBatchPolicy(max_batch_size=2, max_wait_s=0.5), services=(1.0, 1.0)
    )
    first, second = executors
    first.idle_since, second.idle_since = 0.75, 0.25
    tickets = _feed(dispatcher, executors, [0.0, 0.0, 0.0, 0.0])
    assert second.served == [(0.25, [0, 1])]
    assert first.served == [(0.75, [2, 3])]
    assert ledger.exactly_once(tickets)


def test_crashed_executor_serves_nothing_before_its_restart_deadline():
    policy = ResiliencePolicy(
        max_restarts=1, backoff_base_s=1.0, backoff_max_s=1.0,
        backoff_jitter=0.0,
    )
    dispatcher, (crashy, steady), ledger = _pool(
        MicroBatchPolicy(max_batch_size=1, max_wait_s=0.0),
        services=(0.25, 4.0),
        crashes=(1, 0),
        resilience=policy,
    )
    tickets = _feed(dispatcher, [crashy, steady], [0.0, 0.5, 0.75])
    # Request 0 crashed executor 0 at t=0; its restart is due at 1.0.
    # Request 1 arrived while it was down and went to executor 1; request
    # 2 arrived while both were out, and waited for the restart.
    assert ledger.answers[0] == "worker_crash"
    assert steady.served == [(0.5, [1])]
    assert crashy.served == [(1.0, [2])]
    assert all(t >= 1.0 for t, _ in crashy.served)
    assert ledger.exactly_once(tickets)


def test_loop_returns_once_every_executor_has_given_up():
    dispatcher, executors, ledger = _pool(
        MicroBatchPolicy(max_batch_size=1, max_wait_s=0.0),
        services=(1.0, 1.0),
        crashes=(9, 9),
        resilience=ResiliencePolicy(max_restarts=0),
    )
    tickets = [dispatcher.submit(np.zeros(SHAPE)) for _ in range(5)]
    serve_batches(dispatcher, executors, until=float("inf"))
    assert all(e.gone for e in executors)
    assert [ledger.answers[t.request_id] for t in tickets] == (
        ["worker_crash"] * 2 + ["restart_budget"] * 3
    )
    assert ledger.exactly_once(tickets)
    assert not any(e.served for e in executors)
    # A given-up pool serves nothing more, on either clock.
    late = dispatcher.submit(np.zeros(SHAPE))
    serve_batches(dispatcher, executors, until=float("inf"))
    dispatcher.draining = True
    serve_batches(dispatcher, executors)
    assert not late.done and len(dispatcher) == 1


@pytest.mark.parametrize("until", [None, float("inf")])
def test_loop_returns_once_the_queue_drains(until):
    """Draining (``stop()``) or fed to the end (``simulate()``): every
    waiting request is served and the loop returns, without a thread."""
    dispatcher, executors, ledger = _pool(
        MicroBatchPolicy(max_batch_size=2, max_wait_s=60.0), services=(1.0, 1.0)
    )
    tickets = [dispatcher.submit(np.zeros(SHAPE)) for _ in range(3)]
    dispatcher.draining = until is None
    serve_batches(dispatcher, executors, until=until)
    first, second = executors
    assert [ids for _, ids in first.served] == [[0, 1]]
    assert [ids for _, ids in second.served] == [[2]]
    assert ledger.exactly_once(tickets)
    assert dispatcher.queue_depth() == 0
