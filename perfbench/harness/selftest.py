"""Checks of the harness's own arithmetic, run before every measurement.

Each check raises ``AssertionError`` with a message; ``run_all`` runs
them in a few milliseconds.
"""

from __future__ import annotations

import threading

import numpy as np

from harness.ledger import batch_sizes
from harness.openloop import OpenLoopRun, poisson_schedule
from harness.stats import PercentileRefused, percentile
from harness.tracer import Span, Tracer, self_times


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def test_percentile_needs_ten_beyond() -> None:
    values = list(range(1, 1001))
    _check(percentile(values, 99) == 990.0, "nearest-rank p99 of 1..1000 is 990")
    _check(percentile(values, 50) == 500.0, "nearest-rank p50 of 1..1000 is 500")
    try:
        percentile(values[:999], 99)
    except PercentileRefused:
        pass
    else:
        raise AssertionError("p99 of 999 samples leaves 9 beyond and must be refused")
    _check(percentile([1.0] * 989 + [float("inf")] * 11, 99) == float("inf"),
           "failed requests (inf) must push the tail percentile")


def test_self_time_two_threads() -> None:
    # Thread A: root [0, 10] with children [1, 3] and [2, 6] (overlapping,
    # union 5) plus grandchild [4, 5] inside the second child.  Thread B:
    # root [2, 8] with child [3, 4].  B's spans overlap A's in time but
    # are not A's children, so they must not reduce A's self time.
    spans = [
        Span(1, None, "a.root", 1, 0.0, 10.0),
        Span(2, 1, "a.child", 1, 1.0, 3.0),
        Span(3, 1, "a.child", 1, 2.0, 6.0),
        Span(4, 3, "a.leaf", 1, 4.0, 5.0),
        Span(5, None, "b.root", 2, 2.0, 8.0),
        Span(6, 5, "b.child", 2, 3.0, 4.0),
    ]
    got = self_times(spans)
    want = {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 5.0, 6: 1.0}
    _check(got == want, f"self times {got} != {want}")


def test_tracer_keeps_thread_stacks_apart() -> None:
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    worker = threading.Thread(target=outer)
    worker.start()
    worker.join(timeout=5.0)
    _check(not worker.is_alive(), "traced thread did not finish")
    outer()
    by_id = {s.span_id: s for s in tracer.spans}
    for span in tracer.spans:
        if span.name == "inner":
            parent = by_id[span.parent_id]
            _check(parent.name == "outer" and parent.thread == span.thread,
                   "a span's parent must be the enclosing span of its own thread")
    _check(sum(s.parent_id is None for s in tracer.spans) == 2, "two roots expected")


def test_due_time_latency() -> None:
    # Request 1 was due at 1.0 but sent at 1.5 (the sender stalled); its
    # latency counts from 1.0.  Request 2 failed and counts as infinite.
    run = OpenLoopRun(
        started_at=0.0,
        due=np.array([0.0, 1.0, 2.0]),
        sent=np.array([0.0, 1.5, 2.0]),
        answered_at=np.array([0.25, 1.75, np.nan]),
        answers={},
        refused=0,
        failed=1,
        stranded=0,
    )
    _check(run.latencies_s().tolist() == [0.25, 0.75, float("inf")],
           f"due-time latency wrong: {run.latencies_s()}")
    _check(run.late_s().tolist() == [0.0, 0.5, 0.0], "lateness is sent minus due")
    _check(run.offered_rps() == 3 / 2.0, "offered rate runs from start to last send")
    _check(run.throughput_per_s() == 2 / 1.75,
           "throughput is answers over start..last answer")


def test_schedule_is_seeded_and_exact() -> None:
    a = poisson_schedule(500.0, 2.0, 1000, np.random.default_rng([3, 0]))
    b = poisson_schedule(500.0, 2.0, 1000, np.random.default_rng([3, 0]))
    _check(np.array_equal(a.due_s, b.due_s) and np.array_equal(a.payload, b.payload),
           "the same seed must give the same arrivals")
    _check(len(a) == 1000 and abs(a.due_s[-1] - 2.0) < 1e-12, "rate x seconds arrivals")
    _check(np.array_equal(np.sort(a.payload), np.arange(1000)),
           "one pass over the pool sends every digit once")
    gaps = np.diff(a.due_s)
    _check(0.8 < gaps.std() / gaps.mean() < 1.2, "gaps must be exponential (cv near 1)")


def test_batch_sizes_from_requests() -> None:
    # Batches of 3, 3 and 1 seen from their seven requests.
    got = sorted(batch_sizes(np.array([3, 3, 3, 3, 3, 3, 1])).tolist())
    _check(got == [1, 3, 3], f"batch sizes {got}")


def run_all() -> None:
    for check in (
        test_percentile_needs_ten_beyond,
        test_self_time_two_threads,
        test_tracer_keeps_thread_stacks_apart,
        test_due_time_latency,
        test_schedule_is_seeded_and_exact,
        test_batch_sizes_from_requests,
    ):
        check()
