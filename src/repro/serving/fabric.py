"""Multi-replica serving fabric: N worker processes over shared parameters.

One :class:`~repro.serving.engine.InferenceEngine` is bounded by one
process; the paper's throughput-at-SLO numbers come from a *fleet*.  This
module scales the cascade horizontally without multiplying the memory
bill or forking the control plane:

* **Shared parameters** -- the fitted CDLN is pickled *once* into a
  :mod:`multiprocessing.shared_memory` segment (:class:`SharedParams`);
  every weight/bias/prototype array is hoisted out of the pickle stream
  and laid out 64-byte aligned in the segment.  Each replica rehydrates
  the model as **read-only numpy views** over that one mapping: N
  replicas pay one copy of the parameters, and a replica cannot silently
  corrupt a neighbour's weights.
* **One dispatcher, one queue** -- :meth:`ServingFabric.submit` keeps the
  engine surface (``submit(image, deadline_s=..., priority=...)`` ->
  :class:`~repro.serving.batching.Ticket`) and feeds the same
  :class:`~repro.serving.batching.Dispatcher` an engine uses, so intake,
  priority boarding, the batching window, queue depth and shedding
  behave exactly as on one engine.  The replica pool is the executor: a
  batch leaves only when some replica is idle, and goes to one of the
  idle replicas (at most one batch in flight per replica -- crash
  accounting stays trivial).
* **Fleet-level control** -- one logical
  :class:`~repro.serving.controller.DeltaController` lives in the
  dispatcher: it observes acked batch telemetry from *every* replica and
  broadcasts δ changes, so the soft OPS target is enforced across the
  fleet, not per process.  One shared
  :class:`~repro.serving.adaptive.DriftDetector` scores the
  count-weighted :meth:`~repro.serving.adaptive.RegimeSignature.merge` of
  per-replica window signatures (naive fraction averaging inflates PSI
  when replica windows are unevenly filled).  The merged window goes to
  :meth:`~repro.serving.adaptive.AdaptiveDeltaPolicy.after_window`, the
  same match, retarget and rebase step the policy runs in-process; the
  fabric only broadcasts the δ it lands on.
* **Resilience at the process boundary** -- the async facade's
  :class:`~repro.serving.resilience.Supervisor`, one executor per
  replica: a replica's *death* fails its in-flight tickets with cause
  ``worker_crash`` (never stranded), the replica restarts under the
  policy's backoff until ``max_restarts`` is spent, and a fully dead
  fleet fails its backlog with ``restart_budget``.
  :class:`~repro.serving.controller.ShedPolicy` acts on the *fleet*
  queue depth (waiting + in-flight across replicas, the unified depth
  meaning) and the replica serving a shed batch serves it at stage 0.

The fabric satisfies the duck-typed server contract
(:attr:`running` / :meth:`submit` / :meth:`queue_depth` / ``faults``), so
:class:`~repro.serving.loadgen.LoadRunner`, SLO reporting and chaos
plans drive it unchanged::

    report = LoadRunner(engine=fabric, ...).run(slo_p99_s=0.25, server=fabric)

Every final answer the parent delivers -- a replica's answer or a
failure the parent resolved itself -- folds once into
:attr:`ServingFabric.metrics`, the fleet counters and, for the parent's
own failures, a span.  On a clean run the views agree exactly --
concatenated replica trace spans == fleet metrics == SLO report.  Under a
replica SIGKILL, replicas flush their trace *before* acking a batch, so
an acked batch always has spans on disk; a killed in-flight batch has no
worker spans but gets parent-side ``worker_crash`` failure spans.  Every
request therefore carries at least one span, and parent failure spans are
authoritative when both exist (the client saw the failure).
"""

from __future__ import annotations

import io
import itertools
import pickle
import queue
import struct
import threading
from dataclasses import dataclass, replace
from multiprocessing import get_context, shared_memory
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers.base import Layer
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.trace import span_of
from repro.serving.adaptive import RegimeSignature, SignatureWindow
from repro.serving.batching import (
    Batch,
    Dispatcher,
    Ticket,
    WallClock,
    _Pending,
    collect_from_queue,
)
from repro.serving.config import ServingConfig
from repro.serving.engine import InferenceEngine, resolve_failure
from repro.serving.faults import FaultInjector
from repro.serving.metrics import ServingMetrics
from repro.serving.registry import ModelRegistry
from repro.serving.resilience import HealthStatus, Supervisor
from repro.utils.logging import get_logger

_log = get_logger("serving.fabric")

#: Alignment of every array in the shared segment: one cache line, and
#: big enough for any numpy itemsize, so rehydrated views are never split
#: across lines and vector loads stay aligned.
_ALIGN = 64

#: Worker batch-id namespacing: replica ``i`` session ``s`` counts from
#: ``(i + 1) * 1e9 + s * 1e6``, and its failure spans down from minus that,
#: minus 1; the parent counts from 0 -- concatenated trace files never
#: collide on ``batch_id``.
_REPLICA_BATCH_STRIDE = 1_000_000_000
_SESSION_BATCH_STRIDE = 1_000_000

#: Keeps child-side SharedMemory mappings alive for the process lifetime
#: (the rehydrated model's arrays are views into them).
_ATTACHED_SEGMENTS: list[shared_memory.SharedMemory] = []


# -- shared read-only parameters ------------------------------------------------
class _ParamPickler(pickle.Pickler):
    """Pickles an object graph while hoisting every plain ndarray out.

    Arrays leave the stream as persistent ids (their index in the
    manifest); everything else pickles normally, except that a layer
    leaves its gradient buffers behind: a served model never reads them
    (the optimizer reads ``layer.grads.get(key)``).  Object-dtype arrays
    stay inline -- they hold references, not flat numbers, and cannot
    live in a raw buffer.
    """

    def __init__(self, file, arrays: list[np.ndarray]) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._arrays = arrays

    def persistent_id(self, obj):  # noqa: D102 -- pickle protocol hook
        if type(obj) is np.ndarray and obj.dtype != object:
            self._arrays.append(np.ascontiguousarray(obj))
            return len(self._arrays) - 1
        return None

    def reducer_override(self, obj):  # noqa: D102 -- pickle protocol hook
        if not isinstance(obj, Layer):
            return NotImplemented
        rebuild, args, state, *rest = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        return (rebuild, args, {**state, "grads": {}}, *rest)


class _ParamUnpickler(pickle.Unpickler):
    def __init__(self, file, views: list[np.ndarray]) -> None:
        super().__init__(file)
        self._views = views

    def persistent_load(self, pid):  # noqa: D102 -- pickle protocol hook
        return self._views[pid]


class SharedParams:
    """A model pickled once into shared memory, rehydrated as read-only views.

    Layout of the segment::

        [8B little-endian meta length][meta pickle][aligned array data...]

    where ``meta`` holds the array-free pickle skeleton plus a manifest
    of ``(offset, dtype, shape)`` per hoisted array.  :meth:`rehydrate`
    (called in each replica) rebuilds the object with every array being
    a ``writeable=False`` numpy view into the segment -- zero copies per
    replica, and an accidental in-place write raises instead of
    corrupting the fleet's weights.

    The creating process owns the segment: call :meth:`dispose` exactly
    once when the fleet stops (``ServingFabric.stop`` does).
    """

    def __init__(self, obj: object) -> None:
        arrays: list[np.ndarray] = []
        skeleton_buf = io.BytesIO()
        _ParamPickler(skeleton_buf, arrays).dump(obj)
        manifest = []
        offset = 0
        for arr in arrays:
            offset = -(-offset // _ALIGN) * _ALIGN
            manifest.append((offset, arr.dtype.str, arr.shape))
            offset += arr.nbytes
        meta = pickle.dumps(
            {"skeleton": skeleton_buf.getvalue(), "manifest": manifest},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        data_start = -(-(8 + len(meta)) // _ALIGN) * _ALIGN
        self.size = max(data_start + offset, 1)
        self._shm = shared_memory.SharedMemory(create=True, size=self.size)
        self.name = self._shm.name
        self.num_arrays = len(arrays)
        buf = self._shm.buf
        buf[:8] = struct.pack("<Q", len(meta))
        buf[8:8 + len(meta)] = meta
        for (arr_offset, _, _), arr in zip(manifest, arrays):
            start = data_start + arr_offset
            dst = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=buf[start:start + arr.nbytes]
            )
            dst[...] = arr
            del dst
        self._disposed = False

    @staticmethod
    def _attach(name: str) -> shared_memory.SharedMemory:
        """Attach without (re-)registering with the resource tracker.

        Children must not register: the tracker would unlink the segment
        when the *first* child exits, yanking the weights out from under
        the rest of the fleet.  Python 3.13 has ``track=False``; older
        versions need the unregister workaround.
        """
        try:
            return shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13: suppress tracker registration
            from multiprocessing import resource_tracker

            original = resource_tracker.register
            resource_tracker.register = lambda *a, **kw: None
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original

    @classmethod
    def rehydrate(cls, name: str) -> object:
        """Rebuild the shared object in this process (arrays are views)."""
        shm = cls._attach(name)
        buf = shm.buf
        (meta_len,) = struct.unpack("<Q", bytes(buf[:8]))
        meta = pickle.loads(bytes(buf[8:8 + meta_len]))
        data_start = -(-(8 + meta_len) // _ALIGN) * _ALIGN
        views: list[np.ndarray] = []
        for offset, dtype_str, shape in meta["manifest"]:
            dtype = np.dtype(dtype_str)
            nbytes = int(dtype.itemsize * int(np.prod(shape, dtype=np.int64)))
            start = data_start + offset
            view = np.ndarray(shape, dtype=dtype, buffer=buf[start:start + nbytes])
            view.flags.writeable = False
            views.append(view)
        obj = _ParamUnpickler(io.BytesIO(meta["skeleton"]), views).load()
        # The views borrow the mapping; pin it for the process lifetime.
        _ATTACHED_SEGMENTS.append(shm)
        return obj

    def dispose(self) -> None:
        """Close and unlink the segment (owner side, idempotent)."""
        if self._disposed:
            return
        self._disposed = True
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover -- a live view still borrows it
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover -- already gone
            pass

    def __repr__(self) -> str:
        return (
            f"SharedParams(name={self.name!r}, size={self.size}, "
            f"arrays={self.num_arrays})"
        )


# -- replica worker -------------------------------------------------------------
@dataclass(frozen=True)
class _ReplicaSpec:
    """Everything one replica process needs, picklable for spawn."""

    replica_id: int
    session: int
    shm_name: str
    policy: object
    delta: float | None
    resilience: object
    faults: object
    validate_inputs: bool
    obs_dir: str | None
    capacity_ops_per_s: float | None
    report_every: int
    window: int
    batch_id_base: int


def _replica_main(spec: _ReplicaSpec, task_q, result_q) -> None:
    """Replica process entry point (module-level for spawn picklability).

    Protocol (parent -> replica): ``("batch", id, items, depth, shed)``,
    ``("delta", value)``, ``("stop",)``.  Replica -> parent: ``("ready",
    rid)``, ``("result", rid, batch_id, results, ok_ops,
    signature_or_None)``, ``("stopped", rid)``.

    The replica flushes its trace *before* acking each batch: an acked
    batch always has its spans on disk, which is the invariant fleet
    reconciliation stands on when a later SIGKILL loses the process.
    A compute error outside the resilience ladder propagates and kills
    the process -- replica death IS the failure signal; the parent's
    collector for the session then runs the death path.
    """
    model = SharedParams.rehydrate(spec.shm_name)
    observer = (
        Observer.to_directory(
            spec.obs_dir,
            meta={"replica": spec.replica_id, "session": spec.session},
        )
        if spec.obs_dir
        else NULL_OBSERVER
    )
    engine = InferenceEngine.from_config(
        ServingConfig(
            model=model,
            policy=spec.policy,
            delta=spec.delta,
            resilience=spec.resilience,
            faults=spec.faults,
            validate_inputs=spec.validate_inputs,
            observer=observer,
        )
    )
    # Capacity model: each batch's OPS cost wall time, so fleet throughput
    # scales with replica count the way accelerator occupancy would.
    engine.dispatcher.set_clock(WallClock(spec.capacity_ops_per_s))
    engine._batch_ids = itertools.count(spec.batch_id_base)
    engine._failure_span_ids = itertools.count(-spec.batch_id_base - 1, -1)
    # Replicas never retarget locally (the fleet owns the control loop):
    # installed as the engine's adaptive hook, the window only records.
    window = SignatureWindow(len(engine.entry.cdln.stage_names), spec.window)
    engine.adaptive = window
    result_q.put(("ready", spec.replica_id))
    batches = 0
    clean_stop = False
    try:
        while True:
            msg = task_q.get()
            kind = msg[0]
            if kind == "stop":
                clean_stop = True
                return
            if kind == "delta":
                engine.delta = float(msg[1])
                continue
            _, batch_id, items, fleet_depth, shed = msg
            now = engine.dispatcher.clock.now()
            pendings = [
                _Pending(
                    image=image,
                    ticket=Ticket(request_id),
                    # The wall clock is not comparable across processes,
                    # but age offsets are: replica spans see the true fleet
                    # queue wait, not just the replica-side wait.
                    enqueued_at=now - waited_s,
                    deadline_s=deadline_s,
                    priority=priority,
                )
                for request_id, image, deadline_s, priority, waited_s in items
            ]
            engine._process_batch(pendings, queue_depth=fleet_depth, shed=shed)
            results = []
            ok_ops = 0.0
            for pending in pendings:
                response = pending.ticket.result(timeout=0)
                if not response.failed:
                    ok_ops += float(response.ops)
                results.append((pending.ticket.request_id, response))
            batches += 1
            signature = (
                window.signature() if batches % spec.report_every == 0 else None
            )
            observer.flush()
            result_q.put(
                ("result", spec.replica_id, batch_id, results, ok_ops, signature)
            )
    finally:
        if clean_stop:
            observer.close()
            result_q.put(("stopped", spec.replica_id))
        else:
            # Crashing: persist what completed, let the exception kill us.
            observer.flush()


# -- fleet configuration --------------------------------------------------------
@dataclass(frozen=True)
class FabricConfig:
    """Declarative fleet topology around one :class:`ServingConfig`.

    The inner config is read with fleet placement: ``controller`` /
    ``adaptive`` / ``shed`` run *once* in the dispatcher (fleet-level
    control), ``resilience`` applies both inside each replica engine
    (retries, isolation, degraded fallback) and at the process boundary
    (replica restart budget and backoff), ``faults`` is re-seeded per
    replica via :meth:`~repro.serving.faults.FaultPlan.for_replica` so
    chaos decisions are independent streams, and ``model`` is shared
    read-only through :class:`SharedParams`.

    ``capacity_ops_per_s`` models replica accelerator capacity: each
    replica's engine runs on ``WallClock(capacity_ops_per_s)``, busy
    ``batch_ops / capacity`` seconds per batch before it stamps the
    answers, so benchmarks see throughput scale with the fleet.  ``None``
    serves at full host speed.
    """

    config: ServingConfig
    replicas: int = 2
    start_method: str = "spawn"
    capacity_ops_per_s: float | None = None
    obs_dir: str | Path | None = None
    #: Ship a window signature upstream every N acked batches.
    report_every: int = 1
    ready_timeout_s: float = 60.0
    drain_timeout_s: float = 30.0

    def validate(self) -> "FabricConfig":
        if self.replicas < 1:
            raise ConfigurationError(
                f"replicas must be >= 1, got {self.replicas}"
            )
        if self.start_method not in ("spawn", "fork", "forkserver"):
            raise ConfigurationError(
                f"start_method must be spawn/fork/forkserver, "
                f"got {self.start_method!r}"
            )
        if (
            self.capacity_ops_per_s is not None
            and not self.capacity_ops_per_s > 0
        ):
            raise ConfigurationError(
                f"capacity_ops_per_s must be > 0, got {self.capacity_ops_per_s}"
            )
        if self.report_every < 1:
            raise ConfigurationError(
                f"report_every must be >= 1, got {self.report_every}"
            )
        cfg = self.config.validate()
        if cfg.model is None:
            raise ConfigurationError(
                "a fabric shares one model via shared memory; pass "
                "ServingConfig(model=...), not a registry"
            )
        return self


@dataclass(frozen=True)
class FleetSnapshot:
    """Fleet-level countables from the dispatcher's (client-truth) view.

    Read off :attr:`ServingFabric.metrics`: ``requests`` counts answers the
    dispatcher actually delivered, ``shed_requests`` the shed ones among
    them; ``failed_by_cause`` folds replica-reported failures together
    with parent-side ``worker_crash`` / ``restart_budget`` /
    ``invalid_input`` failures.
    """

    replicas: int
    requests: int
    failed_requests: int
    failed_by_cause: tuple[tuple[str, int], ...]
    shed_requests: int
    restarts: int
    requests_by_replica: tuple[tuple[int, int], ...]


@dataclass(eq=False, slots=True)
class _Replica:
    """Parent-side bookkeeping for one replica process and its session."""

    id: int
    process: object = None
    task_q: object = None
    result_q: object = None
    collector: threading.Thread | None = None
    ready: threading.Event | None = None
    stopped: threading.Event | None = None
    sessions: int = 0
    state: str = "new"  # new -> live -> (backoff -> live)* -> dead
    #: ``(batch_id, batch)`` while a batch is out, else None.
    inflight: tuple[int, Batch] | None = None
    #: When this replica last became free to take a batch.
    idle_since: float = float("-inf")
    last_signature: RegimeSignature | None = None
    answered: int = 0


# -- the fabric -----------------------------------------------------------------
class ServingFabric:
    """N replica processes behind one queue, one controller, one detector.

    Lifecycle::

        fabric = ServingFabric(FabricConfig(config=cfg, replicas=2))
        with fabric:                      # start() .. stop()
            ticket = fabric.submit(image, deadline_s=0.25, priority=1)
            answer = ticket.result(timeout=5.0)

    Thread layout (all in the dispatcher process): one dispatcher thread
    forms batches and assigns them to idle replicas; one collector thread
    per replica session, the only reader of its result queue, stamps
    results back onto tickets, feeds the fleet control loop and, once its
    process has exited, runs the death path (:meth:`_replica_died`).
    """

    def __init__(self, fabric_config: FabricConfig) -> None:
        fc = fabric_config.validate()
        cfg = fc.config.build()
        self.fabric_config = fc
        self.config = cfg
        self.replicas = fc.replicas
        self.policy = cfg.policy
        self.controller = cfg.controller
        self.adaptive = cfg.adaptive
        self.resilience = cfg.resilience
        #: Intake fault injector for load generators (``corrupt_input``
        #: specs fire here, at the single intake; ``raise``/``delay``
        #: specs fire inside replicas under per-replica derived seeds).
        self.faults = (
            FaultInjector(cfg.faults) if cfg.faults is not None else None
        )
        self._obs_root = Path(fc.obs_dir) if fc.obs_dir is not None else None
        self._own_observer = False
        observer = cfg.observer
        if observer is NULL_OBSERVER and self._obs_root is not None:
            observer = Observer.to_directory(
                self._obs_root / "fleet", meta={"role": "dispatcher"}
            )
            self._own_observer = True
        self.observer = observer
        # One warm entry in the parent: cost tables for controller depth
        # caps and operating-table priming, plus the span model_spec.
        registry = ModelRegistry()
        #: The fleet's model entry; with :attr:`controller`, all that
        #: ``AdaptiveDeltaPolicy.prime``/``after_window`` read off an engine.
        self.entry = registry.register("fleet", cfg.model)
        self._cdln = self.entry.cdln
        #: Every final answer the dispatcher delivered, folded as an
        #: engine folds its own (see :meth:`fleet_snapshot`).
        self.metrics = ServingMetrics(self._cdln.stage_names)
        if self.adaptive is not None:
            self.adaptive.prime(self)
            detector = self.adaptive.detector
            if self.observer is not NULL_OBSERVER:
                if self.adaptive.observer is NULL_OBSERVER:
                    self.adaptive.observer = self.observer
                if detector.observer is NULL_OBSERVER:
                    detector.observer = self.observer
        if self.controller is not None:
            if self.controller.needs_calibration:
                raise ConfigurationError(
                    "a fleet controller cannot lazily calibrate (the "
                    "dispatcher never sees pixels); calibrate() it or "
                    "install an adaptive policy with an operating table"
                )
            cap = self.controller.max_stage(self.entry.cost_table)
            if cap is not None:
                raise ConfigurationError(
                    "fleet control enforces the soft OPS target by "
                    "broadcasting delta; a hard per-request depth cap "
                    f"(max_stage={cap}) is not supported across replicas"
                )
            if (
                self.observer is not NULL_OBSERVER
                and self.controller.observer is NULL_OBSERVER
            ):
                self.controller.observer = self.observer
        self._initial_delta = (
            float(self.controller.delta)
            if self.controller is not None
            else cfg.delta
        )
        self._ctx = get_context(fc.start_method)
        self._replicas = [_Replica(i) for i in range(fc.replicas)]
        #: Intake, the fleet queue, window, depth and shed decision; its
        #: condition also guards the fleet's own state.
        self._dispatcher = Dispatcher(
            self.policy,
            input_shape=self._cdln.baseline.input_shape,
            fail=self._fail,
            raise_invalid=self.resilience is None,
            validate_inputs=cfg.validate_inputs,
            shed=cfg.shed,
            observer=self.observer,
        )
        self._cond = self._dispatcher.cond
        #: One executor per replica; a budget of 0 without a policy.
        self._supervisor = Supervisor(
            self.resilience, self._dispatcher, self._fail,
            executors=fc.replicas,
        )
        self._batch_seq = itertools.count()
        self._span_ids = itertools.count()
        self._rr = 0
        self._broadcast_delta: float | None = None
        self._dispatch_thread: threading.Thread | None = None
        self._started = False
        self._stopped = False
        self._running = False

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> "ServingFabric":
        """Share the model, spawn the fleet, start the control threads."""
        if self._started:
            raise ConfigurationError("fabric already started")
        self._started = True
        self._params = SharedParams(self._cdln)
        _log.info(
            "fabric sharing %s (%d bytes, %d arrays) across %d replicas",
            self.entry.spec, self._params.size, self._params.num_arrays,
            self.replicas,
        )
        for rep in self._replicas:
            rep.state = "live"
            self._spawn_replica(rep)
        timeout = self.fabric_config.ready_timeout_s
        with self._cond:
            # Each collector notifies on its ``ready`` ack or its death.
            self._cond.wait_for(
                lambda: all(
                    r.ready.is_set() or r.state == "dead" for r in self._replicas
                ),
                timeout=timeout,
            )
            late = [r for r in self._replicas if not r.ready.is_set()]
        if late:
            rep = late[0]
            why = (
                f"replica {rep.id} died during startup "
                f"(exit code {rep.process.exitcode})"
                if rep.state == "dead"
                else f"replica {rep.id} not ready within {timeout}s"
            )
            for other in self._replicas:
                if other.process.is_alive():
                    other.process.terminate()
            self._params.dispose()
            raise ConfigurationError(why)
        self._running = True
        self._dispatch_thread = threading.Thread(
            target=self._dispatch_loop, name="fabric-dispatch", daemon=True
        )
        self._dispatch_thread.start()
        self.observer.event(
            "fabric_started", replicas=self.replicas,
            shared_bytes=self._params.size,
        )
        self._live_gauge()
        return self

    def stop(self) -> None:
        """Drain, stop every replica, reap the shared segment (idempotent)."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        with self._cond:
            self._dispatcher.draining = True
            self._cond.notify_all()
        if self._dispatch_thread is not None:
            self._dispatch_thread.join(
                timeout=self.fabric_config.drain_timeout_s
            )
        with self._cond:
            # A replica that dies now fails its batch on its collector,
            # which notifies: the wait ends early.
            self._cond.wait_for(
                lambda: not any(r.inflight for r in self._replicas),
                timeout=self.fabric_config.drain_timeout_s,
            )
            # Anything still stuck after the drain window: fail it, never
            # strand.
            for rep in self._replicas:
                if rep.inflight is not None:
                    batch, rep.inflight = rep.inflight[1], None
                    self._dispatcher.done(batch)
                    self._supervisor.crashed(
                        rep.id, batch.items,
                        f"replica {rep.id} never acked its batch before "
                        "fabric stop",
                        restart=False,
                    )
        self._dispatcher.fail_waiting(
            "restart_budget",
            "fabric stopped with no replica able to serve the backlog",
        )
        for rep in self._replicas:
            if rep.process.is_alive():
                try:
                    rep.task_q.put(("stop",))
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for rep in self._replicas:
            # The collector returns on the ``stopped`` ack, or as soon as a
            # replica that died without one has exited: no ack is awaited
            # from a process that is gone.
            rep.collector.join(timeout=10.0)
            rep.process.join(timeout=10.0)
            if rep.process.is_alive():  # pragma: no cover -- hung worker
                rep.process.terminate()
                rep.process.join(timeout=2.0)
                rep.collector.join(timeout=2.0)
        self._running = False
        self.observer.event(
            "fabric_stopped", restarts=sum(self._supervisor.restarts)
        )
        self._params.dispose()
        if self._own_observer:
            self.observer.close()
        else:
            self.observer.flush()

    def __enter__(self) -> "ServingFabric":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request intake ---------------------------------------------------------
    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._running

    def submit(
        self,
        image: np.ndarray,
        *,
        deadline_s: float | None = None,
        priority: int = 0,
    ) -> Ticket:
        """Enqueue one request on the fleet; same contract as the engines.

        Validation happens once, here at the single intake (replicas
        trust dispatched payloads).  With a resilience policy a bad
        payload resolves as an already-failed ticket (``invalid_input``);
        a fully dead fleet fails fast with ``restart_budget``.
        """
        if not self._running:
            raise ConfigurationError(
                "fabric is not running (call start(), or it was stopped)"
            )
        if self._supervisor.exhausted:
            if self.resilience is None:
                raise RuntimeError("every replica is dead")
            return self._supervisor.reject()
        return self._dispatcher.submit(
            image, deadline_s=deadline_s, priority=priority
        )

    def queue_depth(self) -> int:
        """Unified fleet depth: waiting plus in-flight across replicas."""
        return self._dispatcher.queue_depth()

    def health(self) -> HealthStatus:
        """Fleet liveness: live while any replica serves; ``degraded``
        flags a fleet serving with dead replicas (reduced capacity)."""
        with self._cond:
            return self._supervisor.health(
                serving=self.live_replicas if self._running else 0,
                ready=not self._dispatcher.draining,
                degraded=any(r.state == "dead" for r in self._replicas),
                queue_depth=self.queue_depth(),
            )

    # -- chaos / introspection --------------------------------------------------
    def kill_replica(self, replica_id: int) -> bool:
        """Chaos hook: SIGKILL one replica process mid-service.

        Returns True when a live process was killed; the session's
        collector then runs the death path (:meth:`_replica_died`).
        """
        if not 0 <= replica_id < len(self._replicas):
            raise ConfigurationError(
                f"no replica {replica_id} in a {len(self._replicas)}-wide "
                "fabric"
            )
        process = self._replicas[replica_id].process
        if process is None or not process.is_alive():
            return False
        process.kill()
        return True

    @property
    def worker_restarts(self) -> int:
        """Replica restarts since :meth:`start` (all replicas)."""
        return sum(self._supervisor.restarts)

    @property
    def live_replicas(self) -> int:
        with self._cond:
            return sum(1 for r in self._replicas if r.state == "live")

    def fleet_snapshot(self) -> FleetSnapshot:
        """The dispatcher's client-truth view (see :class:`FleetSnapshot`)."""
        with self._cond:
            snap = self.metrics.snapshot()
            return FleetSnapshot(
                replicas=len(self._replicas),
                requests=snap.requests,
                failed_requests=snap.failed_requests,
                failed_by_cause=snap.failed_by_cause,
                shed_requests=snap.shed_requests,
                restarts=sum(self._supervisor.restarts),
                requests_by_replica=tuple(
                    (r.id, r.answered) for r in self._replicas
                ),
            )

    @property
    def delta(self) -> float | None:
        """The fleet-wide threshold currently in force."""
        if self.controller is not None:
            return float(self.controller.delta)
        return self.config.delta

    # -- replica process management ---------------------------------------------
    def _make_spec(self, rep: _Replica) -> _ReplicaSpec:
        cfg = self.config
        obs_dir = None
        if self._obs_root is not None:
            obs_dir = str(
                self._obs_root / f"replica-{rep.id}" / f"session-{rep.sessions}"
            )
        delta = (
            self._broadcast_delta
            if self._broadcast_delta is not None
            else self._initial_delta
        )
        return _ReplicaSpec(
            replica_id=rep.id,
            session=rep.sessions,
            shm_name=self._params.name,
            policy=self.policy,
            delta=delta,
            resilience=cfg.resilience,
            faults=(
                cfg.faults.for_replica(rep.id)
                if cfg.faults is not None
                else None
            ),
            validate_inputs=cfg.validate_inputs,
            obs_dir=obs_dir,
            capacity_ops_per_s=self.fabric_config.capacity_ops_per_s,
            report_every=self.fabric_config.report_every,
            window=(
                self.adaptive.detector.window
                if self.adaptive is not None
                else 4
            ),
            batch_id_base=(
                (rep.id + 1) * _REPLICA_BATCH_STRIDE
                + rep.sessions * _SESSION_BATCH_STRIDE
            ),
        )

    def _spawn_replica(self, rep: _Replica) -> None:
        rep.ready = threading.Event()
        rep.stopped = threading.Event()
        rep.task_q = self._ctx.Queue()
        rep.result_q = self._ctx.Queue()
        rep.process = self._ctx.Process(
            target=_replica_main,
            args=(self._make_spec(rep), rep.task_q, rep.result_q),
            daemon=True,
            name=f"repro-replica-{rep.id}",
        )
        rep.process.start()
        rep.collector = threading.Thread(
            target=self._collect_loop,
            args=(rep, rep.process, rep.result_q),
            name=f"fabric-collect-{rep.id}",
            daemon=True,
        )
        rep.collector.start()

    # -- dispatcher -------------------------------------------------------------
    def _idle_replicas(self) -> list[_Replica]:
        return [
            r for r in self._replicas
            if r.state == "live" and r.inflight is None and r.ready.is_set()
        ]

    def _pool_idle_since(self) -> float | None:
        """When the first idle replica freed, or None while all are busy:
        the pool is the dispatcher's one executor."""
        idle = self._idle_replicas()
        return min(r.idle_since for r in idle) if idle else None

    def _dispatch_loop(self) -> None:
        """Ship each batch the dispatcher's window releases to an idle
        replica, until the drained queue (or a dead fleet) ends it."""
        dispatcher = self._dispatcher
        while True:
            with self._cond:
                batch = collect_from_queue(
                    dispatcher, idle_since=self._pool_idle_since
                )
                if batch is None:
                    if dispatcher.draining and all(
                        r.state == "dead" for r in self._replicas
                    ):
                        return  # stop() fails the backlog
                    continue
                if not batch:
                    return  # drained
                # The condition has been held since collect_from_queue saw
                # an idle replica, so that replica is still idle.
                idle = self._idle_replicas()
                rep = idle[self._rr % len(idle)]
                self._rr += 1
                batch_id = next(self._batch_seq)
                rep.inflight = (batch_id, batch)
                items = [
                    (
                        p.ticket.request_id, p.image, p.deadline_s,
                        p.priority, batch.dispatched_at - p.enqueued_at,
                    )
                    for p in batch.items
                ]
                rep.task_q.put(
                    ("batch", batch_id, items, batch.queue_depth, batch.shed)
                )
            self.observer.set_gauge(
                "fleet_queue_depth", float(batch.queue_depth),
                "Unified fleet queue depth at dispatch "
                "(waiting + in-flight across replicas).",
            )

    # -- result collection ------------------------------------------------------
    def _collect_loop(self, rep: _Replica, process, result_q) -> None:
        """One session's only reader: answers every message in order, and
        once the process has exited and the queue is drained, runs the
        death path.  Leaves at once on the session's ``stopped`` ack."""
        while True:
            # Sampled before the read: a process already dead has sent all
            # it ever will, so a read that then finds nothing is final.
            exited = not process.is_alive()
            try:
                msg = result_q.get(block=not exited, timeout=0.1)
            except queue.Empty:
                if exited:
                    break
                continue
            except (OSError, EOFError, ValueError):  # pragma: no cover
                break
            kind = msg[0]
            if kind == "ready":
                with self._cond:
                    rep.idle_since = self._dispatcher.clock.now()
                    rep.ready.set()
                    self._cond.notify_all()
            elif kind == "result":
                self._handle_result(rep, msg)
            elif kind == "stopped":
                rep.stopped.set()
                return
        self._replica_died(rep, process.exitcode)

    def _handle_result(self, rep: _Replica, msg: tuple) -> None:
        _, _, batch_id, results, ok_ops, signature = msg
        now = self._dispatcher.clock.now()
        with self._cond:
            inflight = rep.inflight
            answered = 0
            # A post-crash remnant answers nothing: its batch already
            # failed as worker_crash.  Its signature still counts.
            if inflight is not None and inflight[0] == batch_id:
                rep.inflight = None
                rep.idle_since = now
                batch = inflight[1]
                self._dispatcher.done(batch, now - batch.dispatched_at)
                lookup = {p.ticket.request_id: p for p in batch.items}
                finals = []
                for rid, response in results:
                    pending = lookup.get(rid)
                    if pending is None:
                        continue
                    latency_s = now - pending.enqueued_at
                    if response.failed:
                        final = replace(response, latency_s=latency_s)
                    else:
                        final = replace(
                            response,
                            latency_s=latency_s,
                            queue_wait_s=(
                                batch.dispatched_at - pending.enqueued_at
                            ),
                            deadline_missed=(
                                pending.deadline_s is not None
                                and latency_s > pending.deadline_s
                            ),
                        )
                    pending.ticket._resolve(final)
                    finals.append(final)
                answered = sum(not a.failed for a in finals)
                rep.answered += answered
                # Under the condition, so a snapshot counts every answer
                # a ticket already carries.
                self._record(finals, rep.id, batch)
            if self.controller is not None and answered:
                self.controller.observe(ok_ops / answered, answered)
                self._broadcast_delta_locked()
            if signature is not None:
                rep.last_signature = signature
                self._feed_drift_locked()
            self._cond.notify_all()

    # -- fleet control loop -----------------------------------------------------
    def _broadcast_delta_locked(self) -> None:
        if self.controller is None:
            return
        delta = float(self.controller.delta)
        if (
            self._broadcast_delta is not None
            and abs(delta - self._broadcast_delta) < 1e-12
        ):
            return
        if (
            self._broadcast_delta is None
            and abs(delta - (self._initial_delta or 0.0)) < 1e-12
        ):
            # Replicas already started on this value.
            self._broadcast_delta = delta
            return
        self._broadcast_delta = delta
        for rep in self._replicas:
            if rep.state != "dead" and rep.task_q is not None:
                try:
                    rep.task_q.put(("delta", delta))
                except (OSError, ValueError):  # pragma: no cover
                    pass
        self.observer.set_gauge(
            "delta", delta, "Fleet-wide runtime threshold in force."
        )

    def _feed_drift_locked(self) -> None:
        if self.adaptive is None:
            return
        signatures = [
            r.last_signature
            for r in self._replicas
            if r.state != "dead" and r.last_signature is not None
        ]
        if not signatures:
            return
        retarget = self.adaptive.after_window(
            self, RegimeSignature.merge(signatures)
        )
        if retarget is None:
            return
        self.observer.event(
            "fleet_retarget", regime=retarget.regime, score=retarget.score,
            distance=retarget.distance, delta=retarget.delta,
            trigger=retarget.trigger,
        )
        self._broadcast_delta_locked()

    # -- replica death ----------------------------------------------------------
    def _replica_died(self, rep: _Replica, exitcode: int | None) -> None:
        """The death path, run by the dead session's collector once it has
        read everything the process sent: the supervisor fails the
        in-flight batch and grants a restart, waited out on the
        dispatcher's condition (``stop()`` interrupts it), or gives the
        replica up.  A death during ``start()`` or draining never restarts.
        """
        supervisor, observer = self._supervisor, self.observer
        with self._cond:
            inflight, rep.inflight = rep.inflight, None
            items = inflight[1].items if inflight is not None else []
            if inflight is not None:
                self._dispatcher.done(inflight[1])
            serving = self._running and not self._dispatcher.draining
            restart_at = supervisor.crashed(
                rep.id, items,
                f"replica {rep.id} died (exit code {exitcode}) with the batch "
                "in flight",
                restart=serving,
            )
            rep.state = "dead" if restart_at is None else "backoff"
            fleet_gave_up = serving and supervisor.exhausted
            self._cond.notify_all()
        observer.event(
            "replica_crash", replica=rep.id, exitcode=exitcode,
            inflight_failed=len(items), restarts=supervisor.restarts[rep.id],
        )
        self._live_gauge()
        if restart_at is None:
            if serving:
                observer.event(
                    "replica_gave_up", replica=rep.id,
                    restarts=supervisor.restarts[rep.id],
                )
            if fleet_gave_up:
                observer.event(
                    "fleet_gave_up", backlog_failed=supervisor.backlog_failed
                )
            return
        observer.inc(
            "replica_restarts_total", 1.0,
            "Supervised replica-process restarts after a crash.",
        )
        supervisor.wait(restart_at)
        with self._cond:
            if self._dispatcher.draining:
                rep.state = "dead"
                self._cond.notify_all()
                return
            # Spawned under the condition: stop() sees either no new
            # session or a whole one.  Its spec carries the fleet delta.
            rep.sessions += 1
            self._spawn_replica(rep)
            rep.state = "live"
            self._cond.notify_all()
        observer.event(
            "replica_restart", replica=rep.id,
            restarts=supervisor.restarts[rep.id], session=rep.sessions,
        )
        self._live_gauge()

    def _live_gauge(self) -> None:
        self.observer.set_gauge(
            "fleet_live_replicas", float(self.live_replicas),
            "Replica processes currently serving.",
        )

    # -- the fleet's views -----------------------------------------------------
    def _fail(
        self, pending: _Pending, cause: str, message: str,
        replica_id: int | None = None,
    ) -> None:
        """Resolve a ticket the parent fails itself and fold the failure;
        the dispatcher's failure hook, and the supervisor's."""
        failure = resolve_failure(
            pending, cause, message, self._dispatcher.clock.now()
        )
        if failure is not None:
            self._record([failure], replica_id)

    def _record(
        self, answers: list, replica_id: int | None, batch: Batch | None = None
    ) -> None:
        """Fold final answers into :attr:`metrics` and the fleet counters.

        ``batch`` is the replica batch they answer; without one they are
        failures the parent resolved itself (``replica_id`` None: at
        intake), which get a span each.  A replica's answers have theirs
        in its own trace.
        """
        self.metrics.record_batch(
            answers,
            self._dispatcher.clock.now(),
            queue_depth=batch.queue_depth if batch is not None else None,
        )
        observer = self.observer
        if not observer.enabled:
            return
        replica = replica_id if replica_id is not None else -1
        answered = sum(not a.failed for a in answers)
        if answered:
            observer.inc(
                "fleet_requests_total", float(answered),
                "Requests answered by the fleet, by replica.",
                replica=replica,
            )
        for answer in answers:
            if answer.failed:
                observer.inc(
                    "requests_failed_total", 1.0,
                    "Requests that resolved with a RequestFailed answer, "
                    "by cause.",
                    cause=answer.error,
                )
                observer.inc(
                    "fleet_failed_total", 1.0,
                    "Fleet request failures, by replica and cause.",
                    replica=replica, cause=answer.error,
                )
        if batch is not None:
            shed = sum(a.shed for a in answers)
            if shed:
                observer.inc(
                    "fleet_shed_total", float(shed),
                    "Requests served at stage 0 by fleet backpressure, "
                    "by replica.",
                    replica=replica,
                )
            return
        if observer.trace is not None:
            for answer in answers:
                observer.span(
                    span_of(
                        answer,
                        batch_id=next(self._span_ids),
                        model_spec=self.entry.spec,
                    )
                )

    def __repr__(self) -> str:
        states = ",".join(r.state for r in self._replicas)
        return (
            f"ServingFabric(replicas={self.replicas}, states=[{states}], "
            f"running={self._running})"
        )
