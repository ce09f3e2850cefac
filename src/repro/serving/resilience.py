"""The resilience policy: what the serving stack does when compute fails.

Without a policy the engine keeps its original contract -- an exception
inside a dispatch propagates to the caller (and, on the async facade,
kills the worker thread).  :class:`ResiliencePolicy` is one frozen
knob-bundle carried on :class:`~repro.serving.config.ServingConfig` that
turns on, per concern:

* **supervision** -- one :class:`Supervisor` fails a crashed executor's
  in-flight tickets with a ``worker_crash`` cause and restarts it under
  jittered exponential backoff until ``max_restarts`` is spent (then the
  backlog fails with ``restart_budget``: a crash loop must not spin);
* **isolation** -- a failing batch is bisected until the poison request
  is alone, so one bad input fails *one* ticket instead of the batch;
* **retries** -- a lone failing request is re-dispatched up to
  ``max_retries`` times before its ticket resolves as failed (transient
  faults get saved, persistent poisons get quarantined);
* **degradation** -- after ``degraded_after`` consecutive request
  failures the engine serves the next ``degraded_window`` dispatches
  from the stage-0 early exit with a ``degraded`` flag (accounted
  exactly like ``shed``: answered, cheap, never dropped), then probes
  full service again.

:class:`HealthStatus` is the liveness/readiness surface both engine
facades expose via ``health()`` -- the dict form is what an HTTP
``/healthz`` endpoint would serialize.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import ConfigurationError
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.batching import Dispatcher, Ticket, _Pending

_log = get_logger("serving.resilience")

#: Failure causes a :class:`~repro.serving.engine.RequestFailed` can carry.
FAILURE_CAUSES = (
    "compute_error",
    "injected_fault",
    "invalid_input",
    "worker_crash",
    "restart_budget",
)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Every fault-handling knob, validated in one place.

    Attributes
    ----------
    max_retries:
        Re-dispatch attempts for a lone failing request before its
        ticket fails (0 = fail on first error).
    max_restarts:
        Restarts the supervisor will pay per executor (the async worker,
        or each fabric replica) before giving it up.
    backoff_base_s / backoff_max_s / backoff_jitter:
        Restart ``n`` waits ``min(base * 2**(n-1), max) * (1 + jitter*u)``
        seconds, ``u`` uniform from the policy's seeded RNG -- bounded,
        jittered exponential backoff.
    seed:
        Seed for the backoff jitter (determinism in tests).
    degraded_after:
        Consecutive request failures that trip degraded mode
        (0 disables).  Any successful full-service dispatch resets the
        count, so one poison request's bisection chain cannot trip it --
        only a systemic failure (everything failing) can.
    degraded_window:
        Dispatches served from stage-0 per degraded episode before the
        engine probes full service again.
    isolate:
        Bisect failing batches (disable to let batch failures propagate
        to the supervisor -- the crash-loop stress mode).
    """

    max_retries: int = 1
    max_restarts: int = 5
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    backoff_jitter: float = 0.1
    seed: int = 0
    degraded_after: int = 3
    degraded_window: int = 8
    isolate: bool = True

    def __post_init__(self) -> None:
        if not self.max_retries >= 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not self.max_restarts >= 0:
            raise ConfigurationError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if not self.backoff_base_s >= 0:
            raise ConfigurationError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if not self.backoff_max_s >= self.backoff_base_s:
            raise ConfigurationError(
                f"backoff_max_s ({self.backoff_max_s}) must be >= "
                f"backoff_base_s ({self.backoff_base_s})"
            )
        if not self.backoff_jitter >= 0:
            raise ConfigurationError(
                f"backoff_jitter must be >= 0, got {self.backoff_jitter}"
            )
        if not self.degraded_after >= 0:
            raise ConfigurationError(
                f"degraded_after must be >= 0, got {self.degraded_after}"
            )
        if not self.degraded_window >= 1:
            raise ConfigurationError(
                f"degraded_window must be >= 1, got {self.degraded_window}"
            )
        if self.degraded_after and not self.isolate:
            raise ConfigurationError(
                "degraded_after needs isolate=True (degraded mode is driven "
                "by per-request failure accounting, which only the "
                "isolation path maintains); set degraded_after=0 to run "
                "supervision-only"
            )

    def backoff_s(self, restart: int, jitter_u: float) -> float:
        """Sleep before restart number ``restart`` (1-based)."""
        base = min(
            self.backoff_base_s * (2.0 ** max(restart - 1, 0)),
            self.backoff_max_s,
        )
        return base * (1.0 + self.backoff_jitter * jitter_u)


@dataclass(frozen=True)
class HealthStatus:
    """Point-in-time liveness/readiness of one serving facade.

    ``live`` -- the serving loop exists and has not given up;
    ``ready`` -- it is accepting and answering work at full service
    (degraded mode and exhausted restart budgets clear it).  The split
    mirrors the k8s probe semantics: not-live means restart me,
    not-ready means route around me.
    """

    live: bool
    ready: bool
    degraded: bool
    queue_depth: int
    consecutive_failures: int = 0
    worker_restarts: int = 0
    restart_budget_remaining: int | None = None

    def as_dict(self) -> dict:
        """JSON-ready form (what a ``/healthz`` endpoint would return)."""
        return asdict(self)


class Supervisor:
    """The one restart ladder for a front end's executors (the async
    worker, ``simulate()``'s virtual server, or fabric replicas).

    Executor ``i``'s restart ``n`` is due ``policy.backoff_s(n, u)`` after
    its crash on the dispatcher's clock as it reads then, ``u`` drawn from
    ``Random(seed * 1_000_003 + i)``; the budget is ``max_restarts`` (0
    without a policy).  ``fail(pending, cause, message, executor)`` is the
    front end's failure accounting; the dispatcher's own by default.
    """

    def __init__(
        self,
        policy: ResiliencePolicy | None,
        dispatcher: "Dispatcher",
        fail: Callable[["_Pending", str, str, int], None] | None = None,
        *,
        executors: int = 1,
    ) -> None:
        self.policy = policy
        self.budget = policy.max_restarts if policy is not None else 0
        self._dispatcher = dispatcher
        self._fail = fail or (lambda p, cause, msg, _: dispatcher.fail(p, cause, msg))
        seed = policy.seed if policy is not None else 0
        self._jitter = [
            random.Random(seed * 1_000_003 + i) for i in range(executors)
        ]
        #: Restarts granted per executor: never more than the budget.
        self.restarts = [0] * executors
        self._given_up = [False] * executors
        #: Requests the backlog failure failed, once every executor gave up.
        self.backlog_failed = 0

    @property
    def exhausted(self) -> bool:
        """Every executor has given up."""
        return all(self._given_up)

    def crashed(
        self,
        executor: int,
        inflight: Iterable["_Pending"],
        message: str,
        *,
        restart: bool = True,
    ) -> float | None:
        """Executor ``executor`` died: fail ``inflight`` as ``worker_crash``.

        Returns when the granted restart is due, or ``None`` with
        ``restart=False`` (nothing counted) or once the executor's budget
        is spent: it gives up, and the death that leaves every executor
        given up fails the waiting backlog, once, as ``restart_budget``.
        """
        dispatcher = self._dispatcher
        restart_at, exhausted = None, False
        with dispatcher.cond:
            n = self.restarts[executor] + 1
            if restart and n <= self.budget:
                self.restarts[executor] = n
                restart_at = dispatcher.clock.now() + self.policy.backoff_s(
                    n, self._jitter[executor].random()
                )
            elif restart and not self._given_up[executor]:
                self._given_up[executor] = True
                exhausted = self.exhausted
        for pending in inflight:
            self._fail(pending, "worker_crash", message, executor)
        if restart:
            _log.warning(
                "%s; %s", message,
                f"restart {n}/{self.budget}" if restart_at is not None
                else f"restart budget ({self.budget}) spent",
            )
        if exhausted:
            self.backlog_failed = dispatcher.fail_waiting(
                "restart_budget",
                f"restart budget ({self.budget}) exhausted: {message}",
            )
        return restart_at

    def wait(self, deadline: float) -> None:
        """Block on the dispatcher's condition until its clock reads
        ``deadline``, or until the dispatcher starts draining."""
        dispatcher = self._dispatcher
        with dispatcher.cond:
            while not dispatcher.draining:
                left = deadline - dispatcher.clock.now()
                if left <= 0:
                    return
                dispatcher.cond.wait(left)

    def reject(self) -> "Ticket":
        """A new request's ticket, failed at once: no executor is left."""
        return self._dispatcher.reject(
            "restart_budget", f"restart budget ({self.budget}) exhausted"
        )

    def health(self, *, serving: int, ready: bool, **fields) -> HealthStatus:
        """Live while any of ``serving`` executors runs; ready when also
        ``ready`` by the facade's own rule and not every executor has
        given up.  ``fields`` are the facade's other health fields."""
        live, granted = serving > 0, sum(self.restarts)
        return HealthStatus(
            live=live,
            ready=live and ready and not self.exhausted,
            worker_restarts=granted,
            restart_budget_remaining=None if self.policy is None
            else self.budget * len(self.restarts) - granted,
            **fields,
        )
