"""The inference engine: requests in, budget-accounted answers out.

:class:`InferenceEngine` turns a fitted CDLN (held in a
:class:`~repro.serving.registry.ModelRegistry`) into a long-lived service.
Single requests are coalesced by the dynamic micro-batcher into
stage-wise cascade executions (:func:`~repro.serving.cascade.execute_cascade`),
so the deep backbone segments only ever see the small residual of each
micro-batch that the early stages could not classify.  Every
:class:`InferenceResponse` carries the exit stage's exact scalar OPS and
energy (pJ) from the model's warm cost tables, and an optional
:class:`~repro.serving.controller.DeltaController` adapts the runtime
threshold between batches to hold an ops budget.

Construction goes through one declarative object --
:class:`~repro.serving.config.ServingConfig` +
:meth:`InferenceEngine.from_config` (``InferenceEngine(model)`` is sugar
for the one-field config).

Two facades share one request contract and one
:class:`~repro.serving.batching.Dispatcher` (intake, priority queue,
window, queue depth, shed decision):

=====================  ==========================  ==========================
,                      ``InferenceEngine``         ``AsyncEngine``
=====================  ==========================  ==========================
threading              none (in-process)           one worker thread
``submit(image, *,     enqueue; answered on the    enqueue; answered as soon
deadline_s, priority)``  next ``flush()``          as the worker dispatches
returns                :class:`Ticket`             :class:`Ticket` (same type)
``Ticket.result(       response if resolved,       blocks up to ``timeout``
timeout=)``            else ``TimeoutError``       then ``TimeoutError``
batch formation        the engine's                same dispatcher, under
,                      ``Dispatcher``, on flush    its window, on the worker
``deadline_s``         stamps                      identical
,                      ``deadline_missed``         ,
``priority``           higher boards earlier       identical
,                      batches under backlog       ,
=====================  ==========================  ==========================

``deadline_s`` never drops work: a late answer is still delivered, just
flagged (``InferenceResponse.deadline_missed``) so goodput accounting --
:class:`~repro.serving.slo.SLOReport` -- can separate answered-in-time
from merely answered.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, InputValidationError
from repro.obs.observer import NULL_OBSERVER
from repro.obs.trace import span_of
from repro.serving.batching import (
    Batch,
    Dispatcher,
    Ticket,
    _Pending,
    collect_from_queue,
)
from repro.serving.cascade import execute_cascade
from repro.serving.config import ServingConfig
from repro.serving.faults import FaultInjector, InjectedFault
from repro.serving.metrics import ServingMetrics
from repro.serving.registry import ModelEntry, ModelRegistry
from repro.serving.resilience import HealthStatus, Supervisor
from repro.utils.logging import get_logger

_log = get_logger("serving.engine")

#: Smallest first batch the engine will lazily calibrate a controller on;
#: a degenerate sample would pin the delta->ops curve to a handful of
#: inputs.  Below this the engine serves at the controller's fallback
#: delta and keeps waiting for a proper sample (or an explicit
#: ``calibrate()``).
_MIN_LAZY_CALIBRATION = 16


@dataclass(frozen=True)
class InferenceResponse:
    """One request's answer plus its exact serving cost.

    Units: ``ops`` in scalar multiply-accumulates, ``energy_pj`` in
    picojoules, ``latency_s`` in seconds (queue-to-answer), ``delta``
    and ``confidence`` in [0, 1].
    """

    request_id: int
    label: int
    exit_stage: int
    exit_stage_name: str
    confidence: float
    #: Runtime threshold the request was served under.
    delta: float
    #: Scalar OPS this request paid (exit-stage cost from the PathCostTable).
    ops: float
    #: Energy this request paid under the engine's technology model.
    energy_pj: float
    model_spec: str
    batch_size: int
    latency_s: float
    #: Seconds the request waited in the queue before its batch dispatched.
    queue_wait_s: float = 0.0
    #: True when backpressure served this request at a stage-0 early exit.
    shed: bool = False
    #: True when the request carried a ``deadline_s`` and the answer came
    #: back later than that, on the engine's clock.  The answer is still
    #: delivered.
    deadline_missed: bool = False
    #: True when the resilience layer served this request at stage 0
    #: because the engine was in a degraded episode (accounted like shed).
    degraded: bool = False

    #: Discriminator shared with :class:`RequestFailed`: check
    #: ``response.failed`` before touching result fields.
    failed = False
    #: An answer carries no failure cause.
    error = None


@dataclass(frozen=True)
class RequestFailed:
    """A request's *terminal failure* answer (the ticket still resolves).

    The resilience layer never strands a ticket: when a request cannot be
    served -- invalid payload, poison input, exhausted retries, worker
    crash, spent restart budget -- its ticket resolves with one of
    these instead of an :class:`InferenceResponse`.  ``error`` is the
    machine-readable cause (one of
    :data:`~repro.serving.resilience.FAILURE_CAUSES`, the same label on
    the ``requests_failed_total`` metric), ``message`` the human detail.
    """

    request_id: int
    error: str
    message: str
    retries: int = 0
    #: Queue-to-failure seconds on the engine's clock.
    latency_s: float = 0.0

    failed = True
    # The cost fields every view reads off an answer: a failure exited no
    # stage, paid nothing and was served by no batch of its own.
    exit_stage = -1
    exit_stage_name = ""
    confidence = 0.0
    delta = 0.0
    ops = 0.0
    energy_pj = 0.0
    batch_size = 1
    shed = False
    degraded = False

    @property
    def queue_wait_s(self) -> float:
        """No stage ran, so the whole latency counts as queue wait."""
        return self.latency_s


def resolve_failure(
    pending: _Pending, cause: str, message: str, now: float, *, retries: int = 0
) -> RequestFailed | None:
    """Resolve ``pending``'s ticket as failed at ``now``; returns the
    failure, or ``None`` when the ticket had already resolved (a
    supervisor failing in-flight work must not double-count a served
    request)."""
    ticket = pending.ticket
    if ticket.done:
        return None
    failure = RequestFailed(
        request_id=ticket.request_id,
        error=cause,
        message=message,
        retries=retries,
        latency_s=now - pending.enqueued_at,
    )
    ticket._resolve(failure)
    return failure


class InferenceEngine:
    """Synchronous in-process serving of one registered model.

    Construct from a :class:`~repro.serving.config.ServingConfig` --
    every knob (model/registry, micro-batch policy, controller, fixed
    delta, adaptive policy, shed policy, observer) is a config field and
    the cross-field invariants are validated in
    :meth:`ServingConfig.validate`, in one place::

        engine = InferenceEngine.from_config(
            ServingConfig(model=trained, delta=0.6)
        )

    ``InferenceEngine(model)`` stays as sugar for the one-field config.

    Requests queue in :attr:`dispatcher`, which owns intake, the priority
    queue, the unified queue depth and the shed decision; ``flush()``
    drains it on the wall clock.

    See the module docstring for the request API table shared with
    :class:`AsyncEngine`.
    """

    def __init__(
        self, model=None, *, config: ServingConfig | None = None
    ) -> None:
        if config is None:
            config = ServingConfig(model=model)
        elif model is not None:
            raise ConfigurationError(
                "pass either a model or `config`, not both"
            )
        cfg = config.build()
        self.config = cfg
        self.observer = cfg.observer
        registry = cfg.registry
        if registry is None:
            registry = ModelRegistry(observer=self.observer)
            registry.register("default", cfg.model)
        elif registry.observer is NULL_OBSERVER:
            registry.observer = self.observer
        self.registry = registry
        self.policy = cfg.policy
        self.controller = cfg.controller
        self.delta = cfg.delta
        self.adaptive = cfg.adaptive
        self.resilience = cfg.resilience
        #: Installed fault injector (chaos testing); ``None`` in production.
        self.faults = (
            FaultInjector(cfg.faults) if cfg.faults is not None else None
        )
        self._entry: ModelEntry = registry.resolve(cfg.model_spec)
        # Bind telemetry BEFORE warming/priming so the warm-up and the
        # initial retarget land in the event log.
        self._bind_observer(self._entry)
        self._entry.warm()
        self.metrics = ServingMetrics(self._entry.cdln.stage_names)
        #: Intake, priority queue, window, depth and shed decision.  With a
        #: resilience policy, an invalid payload gets a pre-failed ticket.
        self.dispatcher = Dispatcher(
            self.policy,
            input_shape=self._entry.cdln.baseline.input_shape,
            fail=self._fail_pending,
            raise_invalid=cfg.resilience is None,
            validate_inputs=cfg.validate_inputs,
            shed=cfg.shed,
            observer=self.observer,
        )
        self._batch_ids = itertools.count()
        #: Span ids for requests failed outside a dispatch count down from
        #: -1.  A counter apart from ``_batch_ids``, which fault plans key
        #: on, keeps tracing from changing a run; a negative id never
        #: collides with a batch's.
        self._failure_span_ids = itertools.count(-1, -1)
        self._lock = threading.Lock()
        self._warned_uncalibrated = False
        #: Exhausted-retry request failures since the last full-service
        #: success (the degraded-mode trigger).
        self._consecutive_failures = 0
        #: Dispatch cycles left in the current degraded episode.
        self._degraded_remaining = 0
        if cfg.adaptive is not None:
            cfg.adaptive.prime(self)

    @classmethod
    def from_config(cls, config: ServingConfig) -> "InferenceEngine":
        """The one construction path: validate ``config`` and build."""
        return cls(config=config)

    def _bind_observer(self, entry: ModelEntry) -> None:
        """Propagate the engine's observer onto every collaborator that
        still holds the null observer (explicit per-component observers
        are left alone)."""
        if self.observer is NULL_OBSERVER:
            return
        if entry.observer is NULL_OBSERVER:
            entry.observer = self.observer
        if self.controller is not None and self.controller.observer is NULL_OBSERVER:
            self.controller.observer = self.observer
        if self.adaptive is not None:
            if self.adaptive.observer is NULL_OBSERVER:
                self.adaptive.observer = self.observer
            detector = self.adaptive.detector
            if detector is not None and detector.observer is NULL_OBSERVER:
                detector.observer = self.observer

    # -- model management -------------------------------------------------------
    @property
    def entry(self) -> ModelEntry:
        return self._entry

    def use_model(self, model_spec: str) -> ModelEntry:
        """Re-point the engine at another registry entry (hot swap).

        Metrics keep accumulating across the swap -- stage counts only
        carry over when the stage layout matches; otherwise they reset.
        With an adaptive policy installed, the new entry must carry its
        own operating table (curves and drift signatures belong to one
        model); the policy is rebound and re-primed on it, so the
        detector never scores the new model's exits against the old
        model's reference.
        """
        entry = self.registry.resolve(model_spec)
        if self.adaptive is not None and entry.operating_table is None:
            raise ConfigurationError(
                f"adaptive engine cannot swap to {entry.spec}: the entry has "
                "no operating table (attach one at register time)"
            )
        self._bind_observer(entry)
        entry.warm()
        with self._lock:
            if entry.cdln.stage_names != self._entry.cdln.stage_names:
                self.metrics = ServingMetrics(entry.cdln.stage_names)
            self._entry = entry
        self.dispatcher.input_shape = entry.cdln.baseline.input_shape
        if self.adaptive is not None:
            self.adaptive.rebind(entry.operating_table)
            self.adaptive.prime(self)
        _log.info("engine now serving %s", entry.spec)
        return entry

    def calibrate(self, images: np.ndarray) -> None:
        """Calibrate the installed controller on a sample workload."""
        if self.controller is None:
            raise ConfigurationError("engine has no DeltaController installed")
        self.controller.calibrate(self._entry.cdln, images)

    # -- request intake ---------------------------------------------------------
    def submit(
        self,
        image: np.ndarray,
        *,
        deadline_s: float | None = None,
        priority: int = 0,
    ) -> Ticket:
        """Enqueue one request; answers arrive on the next ``flush()``.

        ``deadline_s`` (seconds from now) marks the answer
        ``deadline_missed`` when it resolves later than that -- the
        request is never dropped.  ``priority`` orders dispatch under
        backlog (higher first, FIFO within a class).  Same contract as
        :meth:`AsyncEngine.submit` -- see the module API table.

        With a resilience policy installed, a payload that fails intake
        validation returns an already-failed ticket
        (:class:`RequestFailed`, cause ``invalid_input``) instead of
        raising -- one bad client must not crash the submit path.
        """
        return self.dispatcher.submit(
            image, deadline_s=deadline_s, priority=priority
        )

    def pending_count(self) -> int:
        """Requests waiting in the dispatcher (excludes in-flight)."""
        return len(self.dispatcher)

    def queue_depth(self) -> int:
        """Unified queue depth: waiting requests plus the in-flight batch.

        This is *the* depth meaning across the serving stack -- the same
        number the dispatcher hands to :meth:`ShedPolicy.should_shed`
        and :meth:`ServingMetrics.record_batch`, on every facade.  Keeping
        one definition is what lets fleet-level shedding compare depths
        across facades and replicas without a per-facade bias.
        """
        return self.dispatcher.queue_depth()

    # -- dispatch ---------------------------------------------------------------
    def flush(self) -> int:
        """Serve everything pending in policy-sized micro-batches.

        Returns the number of requests answered.
        """
        served = 0
        while True:
            batch = self.dispatcher.pop()
            if not batch:
                return served
            self._serve(batch)
            served += len(batch)

    def _serve(self, batch: Batch) -> None:
        """Serve one formed batch, then retire it from the dispatcher."""
        try:
            self._process_batch(
                batch.items, queue_depth=batch.queue_depth, shed=batch.shed
            )
        except BaseException:
            self.dispatcher.done(batch)
            raise
        clock = self.dispatcher.clock
        self.dispatcher.done(batch, clock.now() - batch.dispatched_at)

    def classify(self, image: np.ndarray) -> InferenceResponse:
        """Answer one request now (still batched with anything pending)."""
        ticket = self.submit(image)
        self.flush()
        return ticket.result(timeout=0)

    def classify_many(self, images: np.ndarray) -> list[InferenceResponse]:
        """Submit a whole array of requests and serve them micro-batched."""
        tickets = [self.submit(image) for image in images]
        self.flush()
        return [t.result(timeout=0) for t in tickets]

    def _process_batch(
        self,
        batch: list[_Pending],
        *,
        queue_depth: int | None = None,
        shed: bool = False,
    ) -> None:
        """Serve one formed batch under the resilience policy (if any).

        ``queue_depth`` and ``shed`` are the dispatcher's verdicts for
        the batch (a fabric replica receives the fleet's).  Without a
        policy this is a straight call into :meth:`_dispatch_batch` and
        keeps the original contract: a compute exception propagates to
        the caller.  With a policy, the failure-handling ladder applies
        -- batch bisection, bounded retries, degraded fallback -- and
        this method *never raises*: every ticket resolves, with an answer
        or a :class:`RequestFailed`.
        """
        # Cancelled tickets are purged at dispatch, whatever the path
        # (sync flush, async worker, fabric replica, simulated runner).
        batch = [p for p in batch if not p.ticket.cancelled]
        if not batch:
            return
        policy = self.resilience
        if policy is None:
            self._dispatch_batch(batch, queue_depth=queue_depth, shed=shed)
            return
        if policy.isolate:
            self._serve_with_isolation(batch, queue_depth=queue_depth, shed=shed)
        else:
            # Supervision-only mode: failures propagate (the async
            # supervisor restarts the worker and fails in-flight work).
            self._dispatch_batch(batch, queue_depth=queue_depth, shed=shed)
        if self._degraded_remaining > 0:
            self._degraded_remaining -= 1
            if self._degraded_remaining == 0:
                # Episode over: probe full service on the next dispatch.
                # The failure count stands until a full-service success,
                # so a failed probe into a continuing outage re-engages
                # at once, not after degraded_after more failures.
                self.observer.event("degraded_released")
                self.observer.set_gauge(
                    "degraded", 0.0,
                    "1 while the engine serves from the degraded "
                    "stage-0 fallback.",
                )

    def _serve_with_isolation(
        self, batch: list[_Pending], *, queue_depth: int | None, shed: bool
    ) -> None:
        """Dispatch; on failure, bisect until the poison request is alone.

        Every sub-dispatch re-checks the degraded flag, so an episode
        engaged mid-bisection (systemic failure) immediately routes the
        remaining halves through the stage-0 fallback instead of burning
        them against a broken full-service path.
        """
        degraded = self._degraded_remaining > 0
        try:
            self._dispatch_batch(
                batch, queue_depth=queue_depth, shed=shed, degraded=degraded
            )
            if not degraded:
                self._consecutive_failures = 0
            return
        except Exception as exc:  # noqa: BLE001 -- resilience boundary
            failure = exc
            self.observer.event(
                "batch_fault",
                error=self._failure_cause(failure),
                batch_size=len(batch),
                degraded=degraded,
                message=str(failure)[:200],
            )
        if len(batch) == 1:
            self._retry_single(
                batch[0], failure, queue_depth=queue_depth, shed=shed
            )
            return
        mid = len(batch) // 2
        for half in (batch[:mid], batch[mid:]):
            self._serve_with_isolation(half, queue_depth=queue_depth, shed=shed)

    def _retry_single(
        self,
        pending: _Pending,
        first_failure: Exception,
        *,
        queue_depth: int | None,
        shed: bool,
    ) -> None:
        """Bounded re-dispatch of a lone failing request, then quarantine."""
        policy = self.resilience
        last = first_failure
        retries = 0
        for _ in range(policy.max_retries):
            retries += 1
            self.metrics.record_retry()
            self.observer.inc(
                "retries_total", 1.0,
                "Per-request re-dispatch attempts after a batch fault.",
            )
            degraded = self._degraded_remaining > 0
            try:
                self._dispatch_batch(
                    [pending],
                    queue_depth=queue_depth,
                    shed=shed,
                    degraded=degraded,
                )
                if not degraded:
                    self._consecutive_failures = 0
                return
            except Exception as exc:  # noqa: BLE001 -- resilience boundary
                last = exc
        self._consecutive_failures += 1
        if (
            policy.degraded_after
            and self._degraded_remaining == 0
            and self._consecutive_failures >= policy.degraded_after
        ):
            self._degraded_remaining = policy.degraded_window
            self.observer.event(
                "degraded_engaged",
                consecutive_failures=self._consecutive_failures,
                window=policy.degraded_window,
            )
            self.observer.set_gauge(
                "degraded", 1.0,
                "1 while the engine serves from the degraded stage-0 "
                "fallback.",
            )
        cause = self._failure_cause(last)
        self.observer.event(
            "quarantine",
            request_id=pending.ticket.request_id,
            error=cause,
            retries=retries,
        )
        self._fail_pending(
            pending, cause=cause, message=str(last), retries=retries
        )

    @staticmethod
    def _failure_cause(exc: Exception) -> str:
        """Stable, low-cardinality cause label for one compute failure."""
        if isinstance(exc, InjectedFault):
            return "injected_fault"
        if isinstance(exc, InputValidationError):
            return "invalid_input"
        return "compute_error"

    def _fail_pending(
        self, pending: _Pending, cause: str, message: str, retries: int = 0
    ) -> None:
        """Resolve one ticket as failed and fold the failure into every
        view (see :meth:`_record`); also the dispatcher's failure hook."""
        failure = resolve_failure(
            pending, cause, message, self.dispatcher.clock.now(),
            retries=retries,
        )
        if failure is None:
            return
        with self._lock:
            entry, metrics = self._entry, self.metrics
        self._record(
            [failure],
            entry=entry,
            metrics=metrics,
            batch_id=next(self._failure_span_ids),
        )

    def health(self) -> HealthStatus:
        """Liveness/readiness of the synchronous engine.

        An in-process engine is live by construction; readiness clears
        while a degraded episode is in force.
        """
        return HealthStatus(
            live=True,
            ready=self._degraded_remaining == 0,
            degraded=self._degraded_remaining > 0,
            queue_depth=self.queue_depth(),
            consecutive_failures=self._consecutive_failures,
        )

    # -- supervision of the one worker ------------------------------------------
    def _worker_crashed(
        self, supervisor: Supervisor, exc: Exception, inflight: list[_Pending]
    ) -> float | None:
        """Hand a crash of the one worker to ``supervisor``: when its
        restart is due, or ``None`` once the budget is spent."""
        restart_at = supervisor.crashed(
            0, inflight, f"worker crashed mid-batch: {exc}"
        )
        restarts = supervisor.restarts[0]
        if restart_at is None:
            self.observer.event(
                "worker_gave_up",
                restarts=restarts,
                backlog_failed=supervisor.backlog_failed,
            )
            return None
        self.observer.inc(
            "worker_restarts_total", 1.0,
            "Supervised serving-worker restarts after a crash.",
        )
        self.observer.event(
            "worker_restart",
            restarts=restarts,
            error=self._failure_cause(exc),
            message=str(exc)[:200],
        )
        return restart_at

    def _dispatch_batch(
        self,
        batch: list[_Pending],
        *,
        queue_depth: int | None = None,
        shed: bool = False,
        degraded: bool = False,
    ) -> None:
        if not batch:
            # A degenerate dispatch (drained queue, empty flush) is a no-op,
            # not an np.stack([]) crash / NaN-mean controller observation.
            return
        observer = self.observer
        clock = self.dispatcher.clock
        batch_id = next(self._batch_ids)
        dispatched_at = clock.now()
        with self._lock:
            # Snapshot both together so a concurrent use_model() cannot
            # leave an in-flight batch recording old-model exit stages
            # into a new model's metrics.
            entry = self._entry
            metrics = self.metrics
        controller = self.controller
        # Contiguous batch buffer: stage features are then pure views.
        images = np.stack([p.image for p in batch])
        if controller is not None and controller.needs_calibration:
            if len(batch) >= _MIN_LAZY_CALIBRATION:
                # Lazy fallback; prefer an explicit engine.calibrate(sample).
                controller.calibrate(entry.cdln, images)
            elif not self._warned_uncalibrated:
                self._warned_uncalibrated = True
                _log.warning(
                    "controller has a soft ops target but no calibration and "
                    "the batch is too small (%d < %d) to calibrate on; serving "
                    "at delta=%.3f until calibrate() is called or a larger "
                    "batch arrives",
                    len(batch),
                    _MIN_LAZY_CALIBRATION,
                    controller.delta,
                )
        if controller is not None:
            delta = controller.delta
            max_stage = controller.max_stage(entry.cost_table)
        else:
            delta = self.delta
            max_stage = None
        if shed or degraded:
            # Backpressure or a degraded episode: serve the whole batch at
            # the cheapest exit.  Never drops -- every ticket still
            # resolves with a label.
            max_stage = 0
        injector = self.faults
        if injector is not None:
            # Chaos hook: may raise InjectedFault (handled -- or not -- by
            # the resilience layer above) or add service time, spent on
            # the clock before the batch's OPS.
            delay_s = injector.on_dispatch(
                batch_index=batch_id,
                request_ids=[p.ticket.request_id for p in batch],
                protected=shed or degraded,
            )
            if delay_s > 0.0:
                clock.sleep(delay_s)
        adaptive = self.adaptive
        result = execute_cascade(
            entry.cdln, images, delta, max_stage=max_stage,
            # The adaptive drift signal needs stage-0 confidences for
            # *every* request; stage records hold views, so this is cheap.
            record_stages=adaptive is not None,
            # Stage walls only matter when spans are being written.
            record_timing=observer.trace is not None,
        )
        ops = entry.exit_ops[result.exit_stages]
        energies = entry.exit_energies_pj[result.exit_stages]
        stage_names = entry.cdln.stage_names
        effective_delta = float(
            delta if delta is not None else entry.cdln.activation_module.delta
        )
        # The batch's service time under a modeled capacity: the sum of
        # the answers' float OPS in batch order, before they are stamped.
        clock.serve(sum(ops.tolist()))
        now = clock.now()
        answers = []
        for i, pending in enumerate(batch):
            stage = int(result.exit_stages[i])
            latency_s = now - pending.enqueued_at
            answer = InferenceResponse(
                request_id=pending.ticket.request_id,
                label=int(result.labels[i]),
                exit_stage=stage,
                exit_stage_name=stage_names[stage],
                confidence=float(result.confidences[i]),
                delta=effective_delta,
                ops=float(ops[i]),
                energy_pj=float(energies[i]),
                model_spec=entry.spec,
                batch_size=len(batch),
                latency_s=latency_s,
                queue_wait_s=dispatched_at - pending.enqueued_at,
                shed=shed,
                deadline_missed=(
                    pending.deadline_s is not None
                    and latency_s > pending.deadline_s
                ),
                degraded=degraded,
            )
            pending.ticket._resolve(answer)
            answers.append(answer)
        self._record(
            answers,
            entry=entry,
            metrics=metrics,
            batch_id=batch_id,
            queue_depth=queue_depth,
            max_stage=max_stage,
            stages=[
                {
                    "stage": t.stage_index,
                    "name": t.stage_name,
                    "active": t.active,
                    "wall_s": t.wall_s,
                    "ops": float(entry.exit_ops[t.stage_index]),
                }
                for t in result.stage_timings or ()
            ],
        )
        # A shed/degraded batch force-exits by design; hard_cap_trip stays
        # the budget-cap signal and must not fire for those exits.
        if result.forced_exits and not shed and not degraded:
            observer.event(
                "hard_cap_trip",
                model_spec=entry.spec,
                max_stage=max_stage,
                forced=int(result.forced_exits),
                batch_size=len(batch),
            )
        if controller is not None:
            controller.observe(float(ops.mean()), len(batch))
        if adaptive is not None:
            # Stage 0 sees the full batch (nothing has exited yet), so its
            # record covers every request in submission order.
            adaptive.after_batch(
                self, result.exit_stages, result.stage_records[0].confidences
            )

    def _record(
        self,
        answers: list,
        *,
        entry: ModelEntry,
        metrics: ServingMetrics,
        batch_id: int,
        queue_depth: int | None = None,
        max_stage: int | None = None,
        stages: list[dict] | None = None,
    ) -> None:
        """Fold resolved answers, served and failed alike, into every view.

        The one write per answer: ``metrics`` (the snapshot), the
        observer's counters and gauges, and one :func:`~repro.obs.trace.
        span_of` span each.  The disabled observer costs one branch.
        ``stages`` is the batch's stage timeline, ``max_stage`` its depth
        cap.
        """
        metrics.record_batch(
            answers, self.dispatcher.clock.now(), queue_depth=queue_depth
        )
        observer = self.observer
        if not observer.enabled:
            return
        served = [a for a in answers if not a.failed]
        for answer in answers:
            if answer.failed:
                observer.inc(
                    "requests_failed_total", 1.0,
                    "Requests that resolved with a RequestFailed answer, "
                    "by cause.",
                    cause=answer.error,
                )
        if served:
            stage_names = entry.cdln.stage_names
            counts = np.bincount(
                [a.exit_stage for a in served], minlength=len(stage_names)
            )
            for stage, count in enumerate(counts):
                if count:
                    observer.inc(
                        "requests_total", float(count),
                        "Requests answered, by cascade exit stage.",
                        exit_stage=stage_names[stage],
                    )
            observer.observe_hist(
                "request_latency_seconds", [a.latency_s for a in served],
                "Queue-to-answer latency per request (seconds).",
            )
            observer.inc(
                "ops_total", float(np.sum([a.ops for a in served])),
                "Scalar OPS paid across answered requests.",
            )
            observer.inc(
                "energy_pj_total", float(np.sum([a.energy_pj for a in served])),
                "Energy (pJ) paid across answered requests.",
            )
            shed = sum(a.shed for a in served)
            if shed:
                observer.inc(
                    "requests_shed_total", float(shed),
                    "Requests served at a stage-0 early exit by backpressure.",
                )
            degraded = sum(a.degraded for a in served)
            if degraded:
                observer.inc(
                    "degraded_total", float(degraded),
                    "Requests served at a stage-0 early exit by a degraded "
                    "episode.",
                )
            observer.set_gauge(
                "delta", served[-1].delta,
                "Runtime confidence threshold currently in force.",
            )
            observer.set_gauge(
                "batch_size", float(served[-1].batch_size),
                "Size of the last dispatched micro-batch.",
            )
            if queue_depth is not None:
                observer.set_gauge(
                    "queue_depth", float(queue_depth),
                    "Queue depth at dispatch (batch plus still-waiting).",
                )
        if observer.trace is None:
            return
        for answer in answers:
            observer.span(
                span_of(
                    answer,
                    batch_id=batch_id,
                    model_spec=entry.spec,
                    max_stage=max_stage,
                    stages=stages,
                )
            )

    def __repr__(self) -> str:
        return (
            f"InferenceEngine(model={self._entry.spec}, policy={self.policy}, "
            f"controller={self.controller})"
        )


class AsyncEngine:
    """Worker-thread facade over an :class:`InferenceEngine`.

    ``submit`` returns a :class:`Ticket` immediately from any thread and
    queues the request in the engine's
    :class:`~repro.serving.batching.Dispatcher`.  A single background
    worker is the executor: each turn it blocks in
    :func:`~repro.serving.batching.collect_from_queue` until the window
    lets a batch leave (``max_batch_size`` waiting, or ``max_wait_s``
    since the window opened), then serves it.  The request contract
    (``deadline_s``, ``priority``, :class:`Ticket` semantics) is
    identical to the synchronous engine -- see the module API table.
    Use as a context manager::

        with AsyncEngine(engine) as server:
            tickets = [server.submit(img) for img in images]
            answers = [t.result(timeout=5.0) for t in tickets]
    """

    def __init__(self, engine: InferenceEngine) -> None:
        self.engine = engine
        self._thread: threading.Thread | None = None
        #: The worker's restart ladder, fresh on every ``start()``.
        self._supervisor = Supervisor(engine.resilience, engine.dispatcher)
        #: Batch currently being served (supervised mode fails these
        #: tickets on a worker crash instead of stranding them).
        self._inflight: list[_Pending] | None = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def worker_restarts(self) -> int:
        """Supervised restarts since the last ``start()``."""
        return self._supervisor.restarts[0]

    def health(self) -> HealthStatus:
        """Liveness/readiness of the async facade.

        ``live`` -- the worker thread is running (a silently-dead worker,
        the pre-supervision failure mode, reads not-live here);
        ``ready`` -- live, restart budget not exhausted, and the engine
        is not in a degraded episode.
        """
        engine_health = self.engine.health()
        return self._supervisor.health(
            serving=int(self.running),
            ready=engine_health.ready,
            degraded=engine_health.degraded,
            queue_depth=self.queue_depth(),
            consecutive_failures=engine_health.consecutive_failures,
        )

    def queue_depth(self) -> int:
        """Unified queue depth: waiting + in-flight, one meaning per stack
        (see :meth:`InferenceEngine.queue_depth`)."""
        return self.engine.queue_depth()

    def start(self) -> "AsyncEngine":
        if self.running:
            raise ConfigurationError("async engine is already running")
        # A restarted facade gets a fresh restart budget: the budget
        # bounds one worker session's crash loop, not the process.
        self._supervisor = Supervisor(self.engine.resilience, self.engine.dispatcher)
        self._inflight = None
        self.engine.dispatcher.draining = False
        self._thread = threading.Thread(
            target=self._run, name="repro-serving-worker", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, *, drain: bool = True, timeout: float | None = 10.0) -> None:
        """Shut the worker down, by default after answering the backlog.

        Raises :class:`TimeoutError` if the worker is still mid-backlog
        when ``timeout`` expires; the engine then stays in the running
        state (the worker exits once the queue is empty) and ``stop()``
        can be called again.
        """
        thread = self._thread
        if thread is None:
            return
        dispatcher = self.engine.dispatcher
        if thread.is_alive():
            if not drain:
                # Drop the backlog: unanswered tickets simply never resolve.
                dispatcher.clear()
            with dispatcher.cond:
                dispatcher.draining = True
                dispatcher.cond.notify_all()
            thread.join(timeout)
            if thread.is_alive():
                raise TimeoutError(
                    f"serving worker still draining after {timeout}s; "
                    "call stop() again (it keeps draining)"
                )
        self._thread = None
        dispatcher.draining = False

    def submit(
        self,
        image: np.ndarray,
        *,
        deadline_s: float | None = None,
        priority: int = 0,
    ) -> Ticket:
        """Enqueue one request from any thread; same contract as
        :meth:`InferenceEngine.submit` (see the module API table)."""
        if not self.running:
            raise ConfigurationError("async engine is not running; call start()")
        return self.engine.dispatcher.submit(
            image, deadline_s=deadline_s, priority=priority
        )

    def _run(self) -> None:
        """Worker entry point, supervised under a resilience policy.

        A crash goes to the :class:`~repro.serving.resilience.Supervisor`;
        the loop restarts once the backoff has passed on the dispatcher's
        condition (``stop()`` cuts it short, and the loop then drains), or
        exits once the budget is spent.  Without a policy the exception
        kills the thread: the pre-resilience tests pin that wedge.
        """
        engine = self.engine
        supervisor = self._supervisor
        while True:
            try:
                self._run_loop()
                return  # drained: clean shutdown
            except Exception as exc:  # noqa: BLE001 -- supervision boundary
                if engine.resilience is None:
                    raise
                inflight, self._inflight = self._inflight, None
                restart_at = engine._worker_crashed(
                    supervisor, exc, inflight or []
                )
                if restart_at is None:
                    return
                supervisor.wait(restart_at)

    def _run_loop(self) -> None:
        engine = self.engine
        dispatcher = engine.dispatcher
        idle_since = dispatcher.clock.now()
        while True:
            batch = collect_from_queue(
                dispatcher, idle_since=lambda: idle_since
            )
            if batch is None:
                continue  # idle poll; loop so stop() can interleave
            if not batch:
                return  # drained
            # Cleared only on success: a crash leaves the batch in
            # _inflight for the supervisor to fail instead of strand.
            self._inflight = batch.items
            engine._serve(batch)
            self._inflight = None
            idle_since = dispatcher.clock.now()

    def __enter__(self) -> "AsyncEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
