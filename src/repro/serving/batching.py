"""The one dispatcher: intake, priority queue and batching window.

A serving engine should neither run every request alone (deep layers would
see batch-1 GEMMs and per-call overhead dominates) nor wait forever for a
full batch (tail latency explodes).  :class:`MicroBatchPolicy` encodes the
standard compromise and :class:`Dispatcher` applies it.  Every front end
-- :meth:`InferenceEngine.flush <repro.serving.engine.InferenceEngine.flush>`,
:class:`~repro.serving.engine.AsyncEngine`,
:class:`~repro.serving.fabric.ServingFabric` and the virtual-time
:meth:`LoadRunner.simulate <repro.serving.loadgen.LoadRunner.simulate>` --
forms its batches here, so each of these exists once:

* **intake** -- shape coercion, the NaN/Inf check, the ``deadline_s``
  check, and the pre-failed ``invalid_input`` ticket;
* **the priority queue** -- highest class first, FIFO within a class;
* **the window** -- a batch leaves when the executor is idle and either
  ``max_batch_size`` requests are waiting or ``max_wait_s`` has passed
  since the window opened.  The window opens at the later of the first
  waiting arrival and the moment the executor went idle;
* **the unified queue depth** -- waiting plus in flight;
* **the shed decision** and the per-request service-time EWMA it
  predicts waits from.

The dispatcher reads time only from the :class:`Clock` it is given: the
wall clock for the threaded front ends, a :class:`VirtualClock` for
``simulate()``; the engine charges each batch's OPS on it before it
stamps the answers.  What differs per front end stays there: the engine
serves a formed batch, the fabric ships it to an idle replica, and
``simulate()`` moves virtual time from one arrival to the next.

The cascade makes batching unusually profitable: most inputs exit at
the first linear stage, so only a small residual of each micro-batch ever
reaches the deep (expensive) backbone segments.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Protocol

import numpy as np

from repro.errors import (
    ConfigurationError,
    InputValidationError,
    RequestCancelled,
    ShapeError,
)
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class MicroBatchPolicy:
    """When to dispatch a coalesced micro-batch.

    Attributes
    ----------
    max_batch_size:
        Dispatch as soon as this many requests are waiting.
    max_wait_s:
        Dispatch a partial batch once its window has been open this long
        (the synchronous engine ignores it and dispatches on ``flush()``).
    """

    max_batch_size: int = 64
    max_wait_s: float = 0.002

    def __post_init__(self) -> None:
        check_positive_int(self.max_batch_size, "max_batch_size")
        if not self.max_wait_s >= 0:
            raise ConfigurationError(
                f"max_wait_s must be >= 0, got {self.max_wait_s}"
            )


# -- clocks -----------------------------------------------------------------------
class Clock(Protocol):
    """Where the dispatcher and the engine read time, spend delay and
    charge a served batch's OPS."""

    def now(self) -> float: ...

    def sleep(self, seconds: float) -> None: ...

    def serve(self, ops: float) -> None: ...


class _RatedClock:
    """``serve`` spends ``ops / ops_per_second`` through ``sleep`` (a
    device of that capacity, busy with the batch); nothing without a rate."""

    def __init__(self, ops_per_second: float | None = None) -> None:
        self.ops_per_second = ops_per_second

    def serve(self, ops: float) -> None:
        if self.ops_per_second is not None:
            self.sleep(ops / self.ops_per_second)


class WallClock(_RatedClock):
    """``perf_counter`` seconds; ``sleep`` blocks the calling thread."""

    def now(self) -> float:
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


#: The clock every front end runs on unless ``simulate()`` swaps it.
WALL_CLOCK = WallClock()


class VirtualClock(_RatedClock):
    """Time that moves only when its driver sets :attr:`t`, or when the
    batch being served spends it: ``sleep`` and ``serve`` advance it."""

    def __init__(self, t: float = 0.0, *, ops_per_second: float | None = None) -> None:
        super().__init__(ops_per_second)
        self.t = t

    def now(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.t += seconds


# -- requests -----------------------------------------------------------------------
class Ticket:
    """A pending request's handle; resolves to an
    :class:`~repro.serving.engine.InferenceResponse` (or, under a
    resilience policy, a :class:`~repro.serving.engine.RequestFailed`)."""

    __slots__ = ("request_id", "_event", "_response", "_cancelled")

    def __init__(self, request_id: int) -> None:
        self.request_id = request_id
        self._event = threading.Event()
        self._response = None
        self._cancelled = False

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> bool:
        """Abandon the request: the engine purges it instead of serving it.

        Returns True when the cancellation won (the ticket will never
        carry a response), False when the request had already resolved.
        Cancelling is how a caller that gave up on ``result(timeout=...)``
        tells the engine not to keep the pending entry alive forever.
        """
        if self._event.is_set():
            return False
        self._cancelled = True
        self._event.set()
        return True

    def result(self, timeout: float | None = None):
        """Block until the response is available (engines resolve tickets
        on dispatch; with the synchronous engine, call ``flush()`` first).

        Raises :class:`~repro.errors.RequestCancelled` after
        :meth:`cancel`, ``TimeoutError`` when ``timeout`` expires first.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not answered within {timeout}s"
            )
        if self._response is None and self._cancelled:
            raise RequestCancelled(f"request {self.request_id} was cancelled")
        return self._response

    def _resolve(self, response) -> None:
        # First writer wins: a cancelled ticket stays cancelled, and a
        # supervisor failing in-flight work cannot clobber an answer a
        # partially-completed dispatch already delivered.
        if self._event.is_set():
            return
        self._response = response
        self._event.set()


@dataclass
class _Pending:
    image: np.ndarray | None
    ticket: Ticket
    enqueued_at: float
    #: Client latency deadline in seconds from submission (None: no deadline).
    deadline_s: float | None = None
    #: Dispatch priority; higher boards earlier batches under backlog.
    priority: int = 0


@dataclass
class Batch:
    """One formed micro-batch, as handed to an executor."""

    items: list[_Pending]
    #: Unified depth at dispatch: waiting (this batch included) + in flight.
    queue_depth: int
    #: The shed decision: serve the whole batch at the stage-0 exit.
    shed: bool
    dispatched_at: float

    def __len__(self) -> int:
        return len(self.items)


# -- the priority queue -------------------------------------------------------------
class MicroBatcher:
    """Pending work items chunked by a :class:`MicroBatchPolicy`.

    Items are FIFO within a priority class; classes dispatch
    highest-priority-first.  An item's class is its ``priority``
    attribute (``0`` when absent), so plain FIFO callers are unaffected
    -- everything lands in class 0 and pops in insertion order.  Under
    backlog this is what makes a request's ``priority`` knob real: a
    late high-priority arrival boards the next dispatched batch ahead of
    the queued bulk traffic.
    """

    def __init__(self, policy: MicroBatchPolicy | None = None) -> None:
        self.policy = policy or MicroBatchPolicy()
        #: priority -> FIFO of items; keys kept sorted descending.
        self._classes: dict[int, deque[Any]] = {}
        self._priorities: list[int] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, item: Any) -> None:
        priority = int(getattr(item, "priority", 0))
        pending = self._classes.get(priority)
        if pending is None:
            pending = self._classes[priority] = deque()
            self._priorities = sorted(self._classes, reverse=True)
        pending.append(item)
        self._size += 1

    def heads(self) -> list[Any]:
        """The oldest item of every non-empty class."""
        return [pending[0] for pending in self._classes.values() if pending]

    def next_batch(self) -> list[Any]:
        """Pop up to ``max_batch_size`` items (empty list when idle).

        Highest priority class first, FIFO within a class.  Items whose
        ticket has been cancelled are purged here instead of batched --
        an abandoned request must not occupy a dispatch slot (or leak a
        pending entry forever).
        """
        batch: list[Any] = []
        max_size = self.policy.max_batch_size
        for priority in self._priorities:
            pending = self._classes[priority]
            while pending and len(batch) < max_size:
                item = pending.popleft()
                self._size -= 1
                ticket = getattr(item, "ticket", None)
                if ticket is not None and getattr(ticket, "cancelled", False):
                    continue
                batch.append(item)
            if len(batch) == max_size:
                break
        return batch

    def drain(self) -> list[list[Any]]:
        """Pop everything pending as a list of policy-sized batches."""
        batches = []
        while self._size:
            batch = self.next_batch()
            if batch:  # an all-cancelled chunk purges to nothing
                batches.append(batch)
        return batches


# -- the dispatcher -------------------------------------------------------------------
class Dispatcher:
    """Intake, priority queue, window, depth and shed decision, on one clock.

    Parameters
    ----------
    policy:
        The batching window.
    input_shape:
        Expected per-request image shape; ``(1, *input_shape)`` is
        squeezed.
    fail:
        ``fail(pending, cause, message)`` -- the front end's failure
        accounting, used for pre-failed intake tickets and for
        :meth:`fail_waiting`.
    raise_invalid:
        True: a payload that fails validation raises
        :class:`~repro.errors.InputValidationError` from ``submit``.
        False (front ends with a resilience policy): it returns an
        already-failed ``invalid_input`` ticket instead.
    validate_inputs:
        Reject non-finite payloads at intake.
    shed:
        Optional :class:`~repro.serving.controller.ShedPolicy`.
    observer:
        Receives the ``shed_engaged`` / ``shed_released`` events.

    Time comes from :attr:`clock`, the wall clock unless
    :meth:`set_clock` swaps in another (``simulate()`` installs a
    :class:`VirtualClock` for its run).

    Thread safety: every method takes :attr:`cond`, a re-entrant
    condition that front ends may share for their own state (the fabric
    does) and that ``submit`` notifies.
    """

    def __init__(
        self,
        policy: MicroBatchPolicy,
        *,
        input_shape: tuple[int, ...],
        fail: Callable[[_Pending, str, str], None],
        raise_invalid: bool = True,
        validate_inputs: bool = True,
        shed=None,
        observer: Observer = NULL_OBSERVER,
    ) -> None:
        self.policy = policy
        self.input_shape = tuple(input_shape)
        self.shed = shed
        self.observer = observer
        self.clock: Clock = WALL_CLOCK
        self.cond = threading.Condition()
        #: Set by a front end that is shutting down: batches leave without
        #: waiting for their window.
        self.draining = False
        #: The front end's failure accounting (see ``fail`` above).
        self.fail = fail
        self._raise_invalid = raise_invalid
        self._validate_inputs = validate_inputs
        self._batcher = MicroBatcher(policy)
        self._ids = itertools.count()
        #: Requests dispatched and not yet retired with :meth:`done`.
        self._inflight = 0
        #: When the waiting count last reached ``max_batch_size``.
        self._full_since: float | None = None
        #: EWMA of per-request service seconds (predicted-wait shedding).
        self._service_ewma_s: float | None = None
        self._shedding = False

    def set_clock(self, clock: Clock) -> None:
        """Read time from ``clock`` from now on.  The service-time estimate
        was measured in the old clock's seconds, so it starts over."""
        with self.cond:
            self.clock = clock
            self._service_ewma_s = None

    def __len__(self) -> int:
        """Requests waiting to be batched (excludes in flight)."""
        return len(self._batcher)

    def queue_depth(self) -> int:
        """The unified depth: waiting plus in flight, one meaning for
        every front end, the shed policy and the metrics."""
        with self.cond:
            return len(self._batcher) + self._inflight

    # -- intake ---------------------------------------------------------------
    def _coerce(self, image) -> np.ndarray:
        expected = self.input_shape
        image = np.asarray(image)
        if image.shape == (1, *expected):
            image = image[0]
        elif image.shape != expected:
            raise ShapeError(
                f"image must have shape {expected} or {(1, *expected)}, "
                f"got {image.shape}"
            )
        # Reject NaN/Inf at the door: a non-finite pixel silently poisons
        # every activation downstream and the request "answers" garbage.
        if (
            self._validate_inputs
            and image.dtype.kind == "f"
            and not np.isfinite(image).all()
        ):
            raise InputValidationError(
                "image contains non-finite values (NaN/Inf); reject at "
                "intake or disable via ServingConfig(validate_inputs=False)"
            )
        return image

    def submit(
        self,
        image: np.ndarray,
        *,
        deadline_s: float | None = None,
        priority: int = 0,
    ) -> Ticket:
        """Validate one request and queue it; returns its ticket."""
        if deadline_s is not None and not deadline_s > 0:
            raise ConfigurationError(
                f"deadline_s must be > 0 seconds, got {deadline_s}"
            )
        try:
            image = self._coerce(image)
        except InputValidationError as exc:
            if self._raise_invalid:
                raise
            return self.reject("invalid_input", str(exc))
        pending = _Pending(
            image=image,
            ticket=Ticket(next(self._ids)),
            enqueued_at=self.clock.now(),
            deadline_s=deadline_s,
            priority=int(priority),
        )
        with self.cond:
            self._batcher.add(pending)
            if (
                self._full_since is None
                and len(self._batcher) >= self.policy.max_batch_size
            ):
                self._full_since = pending.enqueued_at
            self.cond.notify_all()
        return pending.ticket

    def reject(self, cause: str, message: str) -> Ticket:
        """A new request's ticket, failed at once through ``fail``."""
        rejected = _Pending(
            image=None, ticket=Ticket(next(self._ids)), enqueued_at=self.clock.now()
        )
        self.fail(rejected, cause, message)
        return rejected.ticket

    # -- the window -----------------------------------------------------------
    def _opened_at(self, idle_since: float) -> float:
        oldest = min(p.enqueued_at for p in self._batcher.heads())
        return max(oldest, idle_since)

    def leave_at(self, idle_since: float) -> float | None:
        """When the next batch leaves, for an executor idle since
        ``idle_since``; ``None`` while nothing waits."""
        with self.cond:
            if not len(self._batcher):
                return None
            if self._full_since is not None:
                return max(idle_since, self._full_since)
            return self._opened_at(idle_since) + self.policy.max_wait_s

    def leaves_before(self, t: float, idle_since: float) -> float | None:
        """The next batch's departure when it leaves before an arrival at
        ``t``, else ``None`` (event-driven form of the window, for
        virtual time).

        At one instant, arrivals board first: a window that opens or
        closes at ``t`` still takes an arrival at ``t``.  The exception
        is a batch that filled after its window opened -- it left at the
        arrival that filled it, before any later one.
        """
        with self.cond:
            leave = self.leave_at(idle_since)
            if leave is None or leave > t:
                return None
            if leave < t:
                return leave
            filled = self._full_since is not None
            return leave if filled and self._opened_at(idle_since) < t else None

    def pop(self) -> Batch:
        """Form the next batch now: priority order, depth, shed decision.

        The batch counts as in flight until :meth:`done` retires it.  An
        empty batch means nothing but cancelled tickets was waiting.
        """
        with self.cond:
            items = self._batcher.next_batch()
            waiting = len(self._batcher)
            if waiting < self.policy.max_batch_size:
                self._full_since = None
            depth = len(items) + waiting + self._inflight
            self._inflight += len(items)
            shed = False
            if items and self.shed is not None:
                ewma = self._service_ewma_s
                shed = self.shed.should_shed(
                    queue_depth=depth,
                    predicted_wait_s=depth * ewma if ewma is not None else None,
                )
            flipped = bool(items) and shed != self._shedding
            if flipped:
                self._shedding = shed
        if flipped:
            self.observer.event(
                "shed_engaged" if shed else "shed_released",
                queue_depth=depth,
                batch_size=len(items),
            )
        return Batch(items, depth, shed, self.clock.now())

    def done(self, batch: Batch, service_s: float | None = None) -> None:
        """Retire a dispatched batch; ``service_s`` (when the batch was
        served rather than lost) folds into the service-time EWMA."""
        with self.cond:
            self._inflight -= len(batch)
            if service_s is not None and len(batch):
                per_request = service_s / len(batch)
                self._service_ewma_s = (
                    per_request
                    if self._service_ewma_s is None
                    else 0.8 * self._service_ewma_s + 0.2 * per_request
                )
            self.cond.notify_all()

    # -- backlog ----------------------------------------------------------------
    def clear(self) -> list[_Pending]:
        """Drop everything waiting, unresolved; returns what was dropped."""
        with self.cond:
            dropped = [p for batch in self._batcher.drain() for p in batch]
            self._full_since = None
            return dropped

    def fail_waiting(self, cause: str, message: str) -> int:
        """Fail every waiting request through the front end's accounting."""
        failed = 0
        for pending in self.clear():
            if not pending.ticket.done:
                self.fail(pending, cause, message)
                failed += 1
        return failed


def collect_from_queue(
    dispatcher: Dispatcher,
    *,
    idle_since: Callable[[], float | None] = lambda: float("-inf"),
    poll_s: float = 0.05,
) -> Batch | None:
    """Block for the next micro-batch under the dispatcher's window.

    The threaded executor's one blocking call per batch.  ``idle_since()``
    says since when an executor has been idle, or ``None`` while none is
    (the default: one executor, always idle).  Returns the formed batch as
    soon as an executor is idle and the window lets the batch leave, or
    ``None`` when nothing left within ``poll_s`` (an idle poll, so the
    caller can check for shutdown).  While the dispatcher drains, batches
    leave without waiting for their window and an empty batch means the
    queue is empty.  Reads time from the dispatcher's clock; waits on its
    condition, so callers may hold it.
    """
    clock = dispatcher.clock
    cond = dispatcher.cond
    give_up = clock.now() + poll_s
    with cond:
        while True:
            if dispatcher.draining and not len(dispatcher):
                return dispatcher.pop()  # empty: drained
            idle = idle_since()
            leave = None if idle is None else dispatcher.leave_at(idle)
            now = clock.now()
            if leave is not None and (leave <= now or dispatcher.draining):
                batch = dispatcher.pop()
                if batch:
                    return batch
                continue  # every waiting ticket had been cancelled
            wait = give_up - now
            if wait <= 0:
                return None
            if leave is not None:
                wait = min(wait, leave - now)
            cond.wait(wait)
