"""The resilience policy: what the serving stack does when compute fails.

Without a policy the engine keeps its original contract -- an exception
inside a dispatch propagates to the caller (and, on the async facade,
kills the worker thread).  :class:`ResiliencePolicy` is one frozen
knob-bundle carried on :class:`~repro.serving.config.ServingConfig` that
turns on, per concern:

* **supervision** -- the async worker catches batch failures, fails the
  in-flight tickets with a ``worker_crash`` cause, and restarts itself
  under jittered exponential backoff until ``max_restarts`` is spent
  (then the backlog is failed with ``restart_budget`` and the worker
  exits for good -- a crash loop must not spin forever);
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

from dataclasses import asdict, dataclass

from repro.errors import ConfigurationError

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
        Worker restarts the supervisor will pay before giving up and
        failing the backlog.
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
