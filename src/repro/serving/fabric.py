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
  :class:`~repro.serving.engine.Ticket`) and feeds a single fleet
  :class:`~repro.serving.batching.MicroBatcher`, so priority boarding and
  micro-batch formation behave exactly as on one engine.  Formed batches
  go to whichever replica is idle (at most one batch in flight per
  replica -- crash accounting stays trivial).
* **Fleet-level control** -- one logical
  :class:`~repro.serving.controller.DeltaController` lives in the
  dispatcher: it observes acked batch telemetry from *every* replica and
  broadcasts δ changes, so the soft OPS target is enforced across the
  fleet, not per process.  One shared
  :class:`~repro.serving.adaptive.DriftDetector` scores the
  count-weighted :meth:`~repro.serving.adaptive.RegimeSignature.merge` of
  per-replica window signatures (the PR-9 bugfix: naive fraction
  averaging inflates PSI when replica windows are unevenly filled);
  a drift event retargets the fleet controller off the operating table
  and rebases the detector -- the same loop
  :class:`~repro.serving.adaptive.AdaptiveDeltaPolicy` runs in-process.
* **Resilience at the process boundary** -- the same
  :class:`~repro.serving.resilience.ResiliencePolicy` ladder extends to
  replica *death*: in-flight tickets fail with cause ``worker_crash``
  (never stranded), the replica restarts under the policy's jittered
  exponential backoff until ``max_restarts`` is spent, and a fully dead
  fleet fails its backlog with ``restart_budget`` -- byte-for-byte the
  async facade's supervision contract, one level up.
  :class:`~repro.serving.controller.ShedPolicy` acts on the *fleet*
  queue depth (waiting + in-flight across replicas, the unified depth
  meaning) and force-sheds a batch on whichever replica serves it.

The fabric satisfies the duck-typed server contract
(:attr:`running` / :meth:`submit` / :meth:`queue_depth` / ``faults``), so
:class:`~repro.serving.loadgen.LoadRunner`, SLO reporting and chaos
plans drive it unchanged::

    report = LoadRunner(engine=fabric, ...).run(slo_p99_s=0.25, server=fabric)

Exactness boundary: on a clean run every ledger is exact -- concatenated
replica trace spans == fleet counters == SLO report.  Under a replica
SIGKILL, replicas flush their trace *before* acking a batch, so an acked
batch always has spans on disk; a killed in-flight batch has no worker
spans but gets parent-side ``worker_crash`` failure spans.  Every request
therefore carries at least one span, and parent failure spans are
authoritative when both exist (the client saw the failure).
"""

from __future__ import annotations

import io
import itertools
import pickle
import queue
import random
import struct
import threading
from dataclasses import dataclass, replace
from multiprocessing import get_context, shared_memory
from pathlib import Path
from time import perf_counter, sleep

import numpy as np

from repro.errors import ConfigurationError, InputValidationError, ShapeError
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.serving.adaptive import (
    DriftDetector,
    OperatingTable,
    RegimeEntry,
    RegimeSignature,
    RetargetEvent,
)
from repro.serving.regimes import (
    LearningDeltaPolicy,
    MiniCalibrator,
    next_learned_name,
)
from repro.serving.batching import MicroBatcher
from repro.serving.config import ServingConfig
from repro.serving.engine import (
    InferenceEngine,
    RequestFailed,
    Ticket,
    _Pending,
)
from repro.serving.faults import FaultInjector
from repro.serving.metrics import STAGE0_QUANTILE_GRID
from repro.serving.registry import ModelRegistry
from repro.serving.resilience import HealthStatus
from repro.utils.logging import get_logger

_log = get_logger("serving.fabric")

#: Alignment of every array in the shared segment: one cache line, and
#: big enough for any numpy itemsize, so rehydrated views are never split
#: across lines and vector loads stay aligned.
_ALIGN = 64

#: Worker batch-id namespacing: replica ``i`` session ``s`` counts from
#: ``(i + 1) * 1e9 + s * 1e6``, the parent counts from 0 -- concatenated
#: trace files never collide on ``batch_id``.
_REPLICA_BATCH_STRIDE = 1_000_000_000
_SESSION_BATCH_STRIDE = 1_000_000

#: Keeps child-side SharedMemory mappings alive for the process lifetime
#: (the rehydrated model's arrays are views into them).
_ATTACHED_SEGMENTS: list[shared_memory.SharedMemory] = []


# -- shared read-only parameters ------------------------------------------------
class _ParamPickler(pickle.Pickler):
    """Pickles an object graph while hoisting every plain ndarray out.

    Arrays leave the stream as persistent ids (their index in the
    manifest); everything else pickles normally.  Object-dtype arrays
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
    #: Served batches buffered replica-side for unknown-regime
    #: mini-calibration (0 = fleet has no learning policy, keep nothing).
    learn_batches: int = 0


class _SignatureTap:
    """Duck-typed stand-in for ``AdaptiveDeltaPolicy`` on replica engines.

    Replicas never retarget locally (the fleet owns the control loop);
    installing this as ``engine.adaptive`` only makes the dispatch path
    record stage-0 confidences and hand them here, where they fold into
    a rolling window.  :meth:`window_signature` is what the replica ships
    upstream -- a count-carrying :class:`RegimeSignature`, mergeable
    across replicas without the fraction-averaging bias.
    """

    def __init__(
        self, num_stages: int, window: int, learn_batches: int = 0
    ) -> None:
        self.num_stages = num_stages
        self.window = window
        self.learn_batches = learn_batches
        self._exit_counts: list[np.ndarray] = []
        self._confidences: list[np.ndarray] = []
        self._images: list[np.ndarray] = []

    def after_batch(self, engine, exit_stages, stage0_confidences):
        self._exit_counts.append(
            np.bincount(np.asarray(exit_stages), minlength=self.num_stages)
        )
        self._confidences.append(
            np.asarray(stage0_confidences, dtype=np.float64)
        )
        del self._exit_counts[: -self.window]
        del self._confidences[: -self.window]
        return None

    def record_batch_images(self, images: np.ndarray) -> None:
        """Buffer served pixels for a parent-requested mini-calibration.

        The engine calls this unconditionally when the hook exists; a
        fleet without a learning policy sets ``learn_batches=0`` and the
        buffer stays empty.
        """
        if not self.learn_batches:
            return
        self._images.append(np.asarray(images))
        del self._images[: -self.learn_batches]

    def window_images(self) -> np.ndarray | None:
        if not self._images:
            return None
        return np.concatenate(self._images, axis=0)

    def window_signature(self) -> RegimeSignature | None:
        if not self._exit_counts:
            return None
        counts = np.sum(self._exit_counts, axis=0)
        confidences = np.concatenate(self._confidences)
        return RegimeSignature(
            exit_fractions=counts / max(counts.sum(), 1),
            stage0_quantiles=np.quantile(confidences, STAGE0_QUANTILE_GRID),
            count=int(counts.sum()),
        )


def _replica_main(spec: _ReplicaSpec, task_q, result_q) -> None:
    """Replica process entry point (module-level for spawn picklability).

    Protocol (parent -> replica): ``("batch", id, items, depth, shed)``,
    ``("delta", value)``, ``("learn", name, reference_delta, deltas,
    max_samples)``, ``("regime", name, table_payload)``, ``("stop",)``.
    Replica -> parent: ``("ready", rid)``, ``("result", rid, batch_id,
    results, ok_ops, signature_or_None)``, ``("learned", rid, name,
    entry_payload_or_None, num_samples, overhead_ops)``, ``("regime_ack",
    rid, name, num_regimes)``, ``("stopped", rid, metrics_snapshot)``.

    ``learn`` runs a bounded mini-calibration over the replica's buffered
    recent window (the fleet picks ONE replica to pay this); ``regime``
    broadcasts the grown operating table so every replica acks the fleet's
    learned state and a future promotion to local control starts warm.

    The replica flushes its trace *before* acking each batch: an acked
    batch always has its spans on disk, which is the invariant fleet
    reconciliation stands on when a later SIGKILL loses the process.
    A compute error outside the resilience ladder propagates and kills
    the process -- replica death IS the failure signal; the dispatcher's
    supervisor fails the in-flight batch and restarts the replica.
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
    engine._batch_ids = itertools.count(spec.batch_id_base)
    tap = _SignatureTap(
        num_stages=len(engine.entry.cdln.stage_names),
        window=spec.window,
        learn_batches=spec.learn_batches,
    )
    engine.adaptive = tap
    operating_table: OperatingTable | None = None
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
            if kind == "learn":
                _, name, reference_delta, deltas, max_samples = msg
                images = tap.window_images()
                payload, num_samples, overhead_ops = None, 0, 0.0
                if images is not None:
                    calibrator = (
                        MiniCalibrator(max_samples=max_samples)
                        if deltas is None
                        else MiniCalibrator(
                            max_samples=max_samples, deltas=deltas
                        )
                    )
                    calibration = calibrator.fit(
                        engine.entry.cdln,
                        images,
                        name=name,
                        reference_delta=reference_delta,
                        exit_energies_pj=engine.entry.exit_energies_pj,
                    )
                    payload = calibration.entry.to_dict()
                    num_samples = calibration.num_samples
                    overhead_ops = calibration.overhead_ops
                result_q.put(
                    (
                        "learned", spec.replica_id, name,
                        payload, num_samples, overhead_ops,
                    )
                )
                continue
            if kind == "regime":
                _, name, table_payload = msg
                operating_table = OperatingTable.from_dict(table_payload)
                result_q.put(
                    (
                        "regime_ack", spec.replica_id, name,
                        len(operating_table),
                    )
                )
                continue
            _, batch_id, items, fleet_depth, force_shed = msg
            now = perf_counter()
            pendings = [
                _Pending(
                    image=image,
                    ticket=Ticket(request_id),
                    # perf_counter is not comparable across processes, but
                    # age offsets are: deadline cancellation sees the true
                    # fleet queue wait, not just the replica-side wait.
                    enqueued_at=now - waited_s,
                    deadline_s=deadline_s,
                    priority=priority,
                )
                for request_id, image, deadline_s, priority, waited_s in items
            ]
            engine._force_shed = force_shed
            try:
                engine._process_batch(pendings, queue_depth=fleet_depth)
            finally:
                engine._force_shed = False
            results = []
            ok_ops = 0.0
            for pending in pendings:
                response = pending.ticket.result(timeout=0)
                if not response.failed:
                    ok_ops += float(response.ops)
                results.append((pending.ticket.request_id, response))
            if spec.capacity_ops_per_s is not None:
                # Capacity model: charge the batch's OPS as wall time, so
                # fleet throughput scales with replica count the way real
                # accelerator occupancy would.
                sleep(ok_ops / spec.capacity_ops_per_s)
            batches += 1
            signature = (
                tap.window_signature()
                if batches % spec.report_every == 0
                else None
            )
            observer.flush()
            result_q.put(
                ("result", spec.replica_id, batch_id, results, ok_ops, signature)
            )
    finally:
        if clean_stop:
            try:
                snapshot = engine.metrics.snapshot()
            except Exception:  # noqa: BLE001 -- empty-metrics edge
                snapshot = None
            observer.close()
            result_q.put(("stopped", spec.replica_id, snapshot))
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
    replica sleeps ``batch_ops / capacity`` per batch, so benchmarks see
    throughput scale with the fleet.  ``None`` serves at full host speed.
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
    """Fleet-level countables from the dispatcher's (client-truth) ledger.

    ``requests`` counts answers the dispatcher actually delivered;
    ``failed_by_cause`` folds replica-reported failures together with
    parent-side ``worker_crash`` / ``restart_budget`` / ``invalid_input``
    failures.  Per-replica engine detail (latency percentiles, exit
    histograms) lives in :meth:`ServingFabric.replica_snapshots`.
    """

    replicas: int
    requests: int
    failed_requests: int
    failed_by_cause: tuple[tuple[str, int], ...]
    shed_requests: int
    restarts: int
    requests_by_replica: tuple[tuple[int, int], ...]
    #: Regimes mini-calibrated online by the fleet (learning policies).
    learned_regimes: int = 0
    #: OPS spent on replica-side mini-calibration passes -- the fleet's
    #: online control-plane cost, never folded into served request OPS.
    overhead_ops: float = 0.0


class _FleetEngineView:
    """The two attributes ``AdaptiveDeltaPolicy.prime`` reads off an
    engine, backed by fleet-level objects -- so priming the fleet is
    literally the same code path as priming one engine."""

    def __init__(self, controller, entry) -> None:
        self.controller = controller
        self.entry = entry


class _Replica:
    """Parent-side bookkeeping for one replica process."""

    __slots__ = (
        "id", "process", "task_q", "result_q", "collector", "epoch",
        "sessions", "restarts", "state", "restart_at", "inflight",
        "ready", "stopped", "snapshot", "last_signature", "last_regime",
        "jitter", "answered", "failed", "shed",
    )

    def __init__(self, replica_id: int, jitter_seed: int) -> None:
        self.id = replica_id
        self.process = None
        self.task_q = None
        self.result_q = None
        self.collector = None
        self.epoch = 0
        self.sessions = 0
        self.restarts = 0
        self.state = "new"  # new -> live -> (backoff -> live)* -> dead
        self.restart_at = 0.0
        self.inflight: dict | None = None
        self.ready = threading.Event()
        self.stopped = threading.Event()
        self.snapshot = None
        self.last_signature: RegimeSignature | None = None
        #: Last learned-regime broadcast this replica acked.
        self.last_regime: str | None = None
        self.jitter = random.Random(jitter_seed * 1_000_003 + replica_id)
        self.answered = 0
        self.failed: dict[str, int] = {}
        self.shed = 0


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
    per replica session stamps results back onto tickets and feeds the
    fleet control loop; one supervisor thread watches for replica death,
    fails in-flight work (``worker_crash``) and restarts under the
    resilience backoff budget.
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
        self.shed = cfg.shed
        self.resilience = cfg.resilience
        #: Intake fault injector for load generators (``corrupt_input``
        #: specs fire here, at the single intake; ``raise``/``delay``
        #: specs fire inside replicas under per-replica derived seeds).
        self.faults = (
            FaultInjector(cfg.faults) if cfg.faults is not None else None
        )
        self._validate_inputs = cfg.validate_inputs
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
        self._entry = registry.register("fleet", cfg.model)
        self._cdln = self._entry.cdln
        self._input_shape = self._cdln.baseline.input_shape
        self._detector: DriftDetector | None = None
        if self.adaptive is not None:
            self.adaptive.prime(
                _FleetEngineView(self.controller, self._entry)
            )
            self._detector = self.adaptive.detector
            if self.observer is not NULL_OBSERVER:
                if self.adaptive.observer is NULL_OBSERVER:
                    self.adaptive.observer = self.observer
                if self._detector.observer is NULL_OBSERVER:
                    self._detector.observer = self.observer
        if self.controller is not None:
            if self.controller.needs_calibration:
                raise ConfigurationError(
                    "a fleet controller cannot lazily calibrate (the "
                    "dispatcher never sees pixels); calibrate() it or "
                    "install an adaptive policy with an operating table"
                )
            cap = self.controller.max_stage(self._entry.cost_table)
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
        jitter_seed = (
            self.resilience.seed if self.resilience is not None else 0
        )
        self._replicas = [
            _Replica(i, jitter_seed) for i in range(fc.replicas)
        ]
        self._cond = threading.Condition()
        self._batcher = MicroBatcher(self.policy)
        self._window_opened_at: float | None = None
        self._ids = itertools.count()
        self._batch_seq = itertools.count()
        self._span_ids = itertools.count()
        self._rr = 0
        self._service_ewma_s: float | None = None
        self._shedding = False
        self._broadcast_delta: float | None = None
        self._crash_failures: dict[str, int] = {}
        #: In-flight mini-calibration request, or None: {"name", "replica",
        #: "event", "distance"}.  At most one at a time fleet-wide.
        self._learning: dict | None = None
        self._overhead_ops = 0.0
        self._regime_acks = 0
        self._dispatcher: threading.Thread | None = None
        self._supervisor: threading.Thread | None = None
        self._started = False
        self._stopped = False
        self._stopping = False
        self._shutdown = False
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
            self._entry.spec, self._params.size, self._params.num_arrays,
            self.replicas,
        )
        for rep in self._replicas:
            rep.state = "live"
            self._spawn_replica(rep)
        deadline = perf_counter() + self.fabric_config.ready_timeout_s
        for rep in self._replicas:
            while not rep.ready.wait(timeout=0.05):
                if not rep.process.is_alive():
                    why = (
                        f"replica {rep.id} died during startup "
                        f"(exit code {rep.process.exitcode})"
                    )
                    break
                if perf_counter() >= deadline:
                    why = (
                        f"replica {rep.id} not ready within "
                        f"{self.fabric_config.ready_timeout_s}s"
                    )
                    break
            else:
                continue
            self._shutdown = True
            for other in self._replicas:
                if other.process is not None and other.process.is_alive():
                    other.process.terminate()
            self._params.dispose()
            raise ConfigurationError(why)
        self._running = True
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="fabric-dispatch", daemon=True
        )
        self._dispatcher.start()
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="fabric-supervise", daemon=True
        )
        self._supervisor.start()
        self.observer.event(
            "fabric_started", replicas=self.replicas,
            shared_bytes=self._params.size,
        )
        self.observer.set_gauge(
            "fleet_live_replicas", float(self.replicas),
            "Replica processes currently serving.",
        )
        return self

    def stop(self) -> None:
        """Drain, stop every replica, reap the shared segment (idempotent)."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        self._stopping = True
        with self._cond:
            self._cond.notify_all()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=self.fabric_config.drain_timeout_s)
        deadline = perf_counter() + self.fabric_config.drain_timeout_s
        while perf_counter() < deadline:
            with self._cond:
                if not any(r.inflight for r in self._replicas):
                    break
            sleep(0.02)
        self._shutdown = True
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        # Anything still stuck after the drain window: fail it, never strand.
        with self._cond:
            stuck = []
            for rep in self._replicas:
                if rep.inflight is not None:
                    stuck.append((rep, rep.inflight))
                    rep.inflight = None
            backlog = self._batcher.drain()
            self._window_opened_at = None
        for rep, inflight in stuck:
            for _, ticket, enqueued_at, _ in inflight["items"]:
                self._fail_ticket(
                    ticket, enqueued_at, rep.id,
                    cause="worker_crash",
                    message=f"replica {rep.id} never acked its batch before "
                            "fabric stop",
                )
        for batch in backlog:
            for pending in batch:
                self._fail_ticket(
                    pending.ticket, pending.enqueued_at, None,
                    cause="restart_budget",
                    message="fabric stopped with no replica able to serve "
                            "the backlog",
                )
        for rep in self._replicas:
            if rep.process is not None and rep.process.is_alive():
                try:
                    rep.task_q.put(("stop",))
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for rep in self._replicas:
            if rep.process is None:
                continue
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
            "fabric_stopped",
            restarts=sum(r.restarts for r in self._replicas),
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
        if deadline_s is not None and not deadline_s > 0:
            raise ConfigurationError(
                f"deadline_s must be > 0 seconds, got {deadline_s}"
            )
        try:
            image = self._coerce_image(image)
        except InputValidationError as exc:
            if self.resilience is None:
                raise
            ticket = Ticket(next(self._ids))
            self._fail_ticket(
                ticket, perf_counter(), None,
                cause="invalid_input", message=str(exc),
            )
            return ticket
        with self._cond:
            all_dead = all(r.state == "dead" for r in self._replicas)
        if all_dead:
            if self.resilience is None:
                raise RuntimeError("every replica is dead")
            ticket = Ticket(next(self._ids))
            self._fail_ticket(
                ticket, perf_counter(), None,
                cause="restart_budget",
                message="every replica is dead; restart budget exhausted",
            )
            return ticket
        pending = _Pending(
            image=image,
            ticket=Ticket(next(self._ids)),
            enqueued_at=perf_counter(),
            deadline_s=deadline_s,
            priority=int(priority),
        )
        with self._cond:
            self._batcher.add(pending)
            if self._window_opened_at is None:
                self._window_opened_at = perf_counter()
            self._cond.notify_all()
        return pending.ticket

    def _coerce_image(self, image: np.ndarray) -> np.ndarray:
        image = np.asarray(image)
        expected = self._input_shape
        if image.shape == (1, *expected):
            image = image[0]
        elif image.shape != expected:
            raise ShapeError(
                f"image must have shape {expected} or {(1, *expected)}, "
                f"got {image.shape}"
            )
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

    def queue_depth(self) -> int:
        """Unified fleet depth: waiting plus in-flight across replicas."""
        with self._cond:
            return len(self._batcher) + sum(
                len(r.inflight["items"])
                for r in self._replicas
                if r.inflight is not None
            )

    def health(self) -> HealthStatus:
        """Fleet liveness: live while any replica serves; ``degraded``
        flags a fleet serving with dead replicas (reduced capacity)."""
        with self._cond:
            live = sum(1 for r in self._replicas if r.state == "live")
            dead = sum(1 for r in self._replicas if r.state == "dead")
            restarts = sum(r.restarts for r in self._replicas)
            budget = None
            if self.resilience is not None:
                budget = sum(
                    max(self.resilience.max_restarts - r.restarts, 0)
                    for r in self._replicas
                )
        return HealthStatus(
            live=self._running and live > 0,
            ready=self._running and not self._stopping and live > 0,
            degraded=dead > 0,
            queue_depth=self.queue_depth(),
            worker_restarts=restarts,
            restart_budget_remaining=budget,
        )

    # -- chaos / introspection --------------------------------------------------
    def kill_replica(self, replica_id: int) -> bool:
        """Chaos hook: SIGKILL one replica process mid-service.

        Returns True when a live process was killed.  The supervisor
        notices within its poll interval, fails the in-flight batch with
        ``worker_crash`` and restarts under the resilience backoff.
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
        return sum(r.restarts for r in self._replicas)

    @property
    def live_replicas(self) -> int:
        with self._cond:
            return sum(1 for r in self._replicas if r.state == "live")

    def replica_snapshots(self) -> dict[int, object]:
        """Final per-replica engine :class:`MetricsSnapshot`, keyed by
        replica id (populated by :meth:`stop`; crashed sessions report
        through parent-side failure accounting instead)."""
        return {
            r.id: r.snapshot
            for r in self._replicas
            if r.snapshot is not None
        }

    def fleet_snapshot(self) -> FleetSnapshot:
        """The dispatcher's client-truth ledger (see :class:`FleetSnapshot`)."""
        with self._cond:
            causes: dict[str, int] = dict(self._crash_failures)
            for rep in self._replicas:
                for cause, count in rep.failed.items():
                    causes[cause] = causes.get(cause, 0) + count
            return FleetSnapshot(
                replicas=len(self._replicas),
                requests=sum(r.answered for r in self._replicas),
                failed_requests=sum(causes.values()),
                failed_by_cause=tuple(sorted(causes.items())),
                shed_requests=sum(r.shed for r in self._replicas),
                restarts=sum(r.restarts for r in self._replicas),
                requests_by_replica=tuple(
                    (r.id, r.answered) for r in self._replicas
                ),
                learned_regimes=len(getattr(self.adaptive, "learned", ())),
                overhead_ops=self._overhead_ops,
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
            window=self._detector.window if self._detector is not None else 4,
            batch_id_base=(
                (rep.id + 1) * _REPLICA_BATCH_STRIDE
                + rep.sessions * _SESSION_BATCH_STRIDE
            ),
            learn_batches=(
                self.adaptive.learn_batches
                if isinstance(self.adaptive, LearningDeltaPolicy)
                else 0
            ),
        )

    def _spawn_replica(self, rep: _Replica) -> None:
        rep.epoch += 1
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
            args=(rep, rep.epoch, rep.process, rep.result_q),
            name=f"fabric-collect-{rep.id}",
            daemon=True,
        )
        rep.collector.start()

    # -- dispatcher -------------------------------------------------------------
    def _pick_replica_locked(self) -> _Replica | None:
        candidates = [
            r for r in self._replicas
            if r.state == "live" and r.inflight is None and r.ready.is_set()
        ]
        if not candidates:
            return None
        choice = candidates[self._rr % len(candidates)]
        self._rr += 1
        return choice

    def _dispatch_loop(self) -> None:
        policy = self.policy
        while True:
            with self._cond:
                rep = None
                while True:
                    if self._stopping and (
                        not len(self._batcher)
                        or not any(
                            r.state != "dead" for r in self._replicas
                        )
                    ):
                        return
                    rep = self._pick_replica_locked()
                    waiting = len(self._batcher)
                    if waiting and rep is not None:
                        opened = self._window_opened_at
                        waited = (
                            perf_counter() - opened
                            if opened is not None
                            else policy.max_wait_s
                        )
                        if (
                            waiting >= policy.max_batch_size
                            or waited >= policy.max_wait_s
                            or self._stopping
                        ):
                            break
                        self._cond.wait(
                            timeout=max(policy.max_wait_s - waited, 1e-3)
                        )
                    else:
                        self._cond.wait(timeout=0.02)
                batch = self._batcher.next_batch()
                self._window_opened_at = (
                    perf_counter() if len(self._batcher) else None
                )
                if not batch:
                    continue
                depth = len(batch) + len(self._batcher) + sum(
                    len(r.inflight["items"])
                    for r in self._replicas
                    if r.inflight is not None
                )
                shed = False
                if self.shed is not None:
                    predicted_wait = (
                        depth * self._service_ewma_s
                        if self._service_ewma_s is not None
                        else None
                    )
                    shed = self.shed.should_shed(
                        queue_depth=depth, predicted_wait_s=predicted_wait
                    )
                shed_flipped = shed != self._shedding
                self._shedding = shed
                batch_id = next(self._batch_seq)
                now = perf_counter()
                items = [
                    (
                        p.ticket.request_id, p.image, p.deadline_s,
                        p.priority, now - p.enqueued_at,
                    )
                    for p in batch
                ]
                rep.inflight = {
                    "batch_id": batch_id,
                    "items": [
                        (p.ticket.request_id, p.ticket, p.enqueued_at,
                         p.deadline_s)
                        for p in batch
                    ],
                    "sent_at": now,
                    "shed": shed,
                    "depth": depth,
                }
                rep.task_q.put(("batch", batch_id, items, depth, shed))
            if shed_flipped:
                self.observer.event(
                    "shed_engaged" if shed else "shed_released",
                    queue_depth=depth, batch_size=len(batch),
                )
            self.observer.set_gauge(
                "fleet_queue_depth", float(depth),
                "Unified fleet queue depth at dispatch "
                "(waiting + in-flight across replicas).",
            )

    # -- result collection ------------------------------------------------------
    def _collect_loop(self, rep: _Replica, epoch: int, process, result_q) -> None:
        # Leaves on the session's ``stopped`` ack, on a newer epoch, or once
        # its process has exited and the queue is drained -- never on
        # fabric shutdown alone, or an unread ack could hold up ``stop()``.
        while True:
            # Sampled before the poll: a process already dead has flushed
            # everything it will ever send, so an empty poll after it is final.
            exited = not process.is_alive()
            try:
                msg = result_q.get(timeout=0.1)
            except queue.Empty:
                if rep.epoch != epoch or exited:
                    return
                continue
            except (OSError, EOFError, ValueError):  # pragma: no cover
                return
            kind = msg[0]
            if kind == "ready":
                rep.ready.set()
                with self._cond:
                    self._cond.notify_all()
            elif kind == "result":
                self._handle_result(rep, msg)
            elif kind == "learned":
                self._handle_learned(rep, msg)
            elif kind == "regime_ack":
                with self._cond:
                    rep.last_regime = msg[2]
                    self._regime_acks += 1
                    self._cond.notify_all()
            elif kind == "stopped":
                rep.snapshot = msg[2]
                rep.stopped.set()
                return

    def _handle_result(self, rep: _Replica, msg: tuple) -> None:
        _, _, batch_id, results, ok_ops, signature = msg
        now = perf_counter()
        with self._cond:
            inflight = rep.inflight
            if inflight is not None and inflight["batch_id"] == batch_id:
                rep.inflight = None
                lookup = {
                    rid: (ticket, enqueued_at, deadline_s)
                    for rid, ticket, enqueued_at, deadline_s
                    in inflight["items"]
                }
                per_request_s = (now - inflight["sent_at"]) / max(
                    len(results), 1
                )
                self._service_ewma_s = (
                    per_request_s
                    if self._service_ewma_s is None
                    else 0.8 * self._service_ewma_s + 0.2 * per_request_s
                )
            else:
                # Post-crash remnant for an already-failed batch: tickets
                # resolved as worker_crash; first-writer-wins drops these.
                inflight, lookup = None, {}
            answered = 0
            failed_causes: dict[str, int] = {}
            for rid, response in results:
                found = lookup.get(rid)
                if found is None:
                    continue
                ticket, enqueued_at, deadline_s = found
                latency_s = now - enqueued_at
                if response.failed:
                    final = replace(response, latency_s=latency_s)
                    failed_causes[response.error] = (
                        failed_causes.get(response.error, 0) + 1
                    )
                else:
                    final = replace(
                        response,
                        latency_s=latency_s,
                        queue_wait_s=inflight["sent_at"] - enqueued_at,
                        deadline_missed=(
                            deadline_s is not None and latency_s > deadline_s
                        ),
                    )
                    answered += 1
                ticket._resolve(final)
            rep.answered += answered
            for cause, count in failed_causes.items():
                rep.failed[cause] = rep.failed.get(cause, 0) + count
            was_shed = inflight is not None and inflight["shed"]
            if was_shed:
                rep.shed += len(results)
            if self.controller is not None and answered:
                self.controller.observe(ok_ops / answered, answered)
                self._broadcast_delta_locked()
            if signature is not None:
                rep.last_signature = signature
                self._feed_drift_locked()
            self._cond.notify_all()
        observer = self.observer
        if not observer.enabled:
            return
        if answered:
            observer.inc(
                "fleet_requests_total", float(answered),
                "Requests answered by the fleet, by replica.",
                replica=rep.id,
            )
        for cause, count in failed_causes.items():
            observer.inc(
                "requests_failed_total", float(count),
                "Requests that resolved with a RequestFailed answer, "
                "by cause.",
                cause=cause,
            )
            observer.inc(
                "fleet_failed_total", float(count),
                "Fleet request failures, by replica and cause.",
                replica=rep.id, cause=cause,
            )
        if was_shed:
            observer.inc(
                "fleet_shed_total", float(len(results)),
                "Requests served at stage 0 by fleet backpressure, "
                "by replica.",
                replica=rep.id,
            )

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
        detector = self._detector
        if detector is None:
            return
        signatures = [
            r.last_signature
            for r in self._replicas
            if r.state != "dead" and r.last_signature is not None
        ]
        if not signatures:
            return
        merged = RegimeSignature.merge(signatures)
        event = detector.observe_signature(merged)
        if event is None or self.adaptive is None:
            return
        # Mirror AdaptiveDeltaPolicy.after_batch, with the merged fleet
        # window standing in for one engine's recent window.
        adaptive = self.adaptive
        controller = self.controller
        cap = controller.max_stage(self._entry.cost_table)
        regime, distance = adaptive.table.match(
            merged,
            delta=controller.delta,
            max_stage=cap,
            quantile_weight=detector.quantile_weight,
        )
        if (
            isinstance(adaptive, LearningDeltaPolicy)
            and distance > adaptive.unknown_distance
            and len(adaptive.learned) < adaptive.max_learned
            and self._learning is None
            and self._request_learning_locked(event, distance)
        ):
            # One replica is now scoring its recent window; the retarget
            # happens in _handle_learned when the fitted curve arrives.
            return
        self._retarget_fleet_locked(
            regime, event.score, event.observation, distance,
            trigger=event.trigger, learned=False,
        )

    def _retarget_fleet_locked(
        self,
        regime: str,
        score: float,
        observation: int,
        distance: float,
        *,
        trigger: str,
        learned: bool,
    ) -> None:
        adaptive = self.adaptive
        controller = self.controller
        cap = controller.max_stage(self._entry.cost_table)
        controller.retarget(adaptive.table, regime)
        self._detector.rebase(
            adaptive.table.entry(regime).signature_at(
                controller.delta, max_stage=cap
            )
        )
        retarget = RetargetEvent(
            observation=observation,
            regime=regime,
            score=score,
            distance=distance,
            delta=float(controller.delta),
            trigger=trigger,
            learned=learned,
        )
        adaptive.current_regime = regime
        adaptive.events.append(retarget)
        self.observer.event(
            "fleet_retarget", regime=regime, score=score,
            distance=distance, delta=float(controller.delta),
            trigger=trigger, learned=learned,
        )
        _log.info(
            "fleet retargeted to regime %r (score %.3f) -> delta %.3f",
            regime, score, controller.delta,
        )
        self._broadcast_delta_locked()

    def _request_learning_locked(self, event, distance: float) -> bool:
        """Ask one live replica to mini-calibrate its recent window.

        The fleet pays the bounded scoring pass exactly once, on a single
        replica (the others keep serving); returns False when no replica
        can take the request, in which case the caller falls back to a
        plain nearest-regime retarget.
        """
        adaptive = self.adaptive
        candidates = [
            r for r in self._replicas
            if r.state == "live" and r.ready.is_set()
            and r.last_signature is not None
        ]
        if not candidates:
            return False
        rep = candidates[0]
        name = next_learned_name(adaptive.table.regime_names)
        try:
            rep.task_q.put(
                (
                    "learn", name, adaptive.table.reference_delta,
                    adaptive.calibrator.deltas,
                    adaptive.calibrator.max_samples,
                )
            )
        except (OSError, ValueError):  # pragma: no cover -- dying queue
            return False
        self._learning = {
            "name": name,
            "replica": rep.id,
            "event": event,
            "distance": distance,
        }
        self.observer.event(
            "fleet_learning_requested",
            regime=name, replica=rep.id, distance=distance,
        )
        _log.info(
            "fleet requested mini-calibration %r on replica %d "
            "(distance %.3f > cutoff %.3f)",
            name, rep.id, distance, adaptive.unknown_distance,
        )
        return True

    def _handle_learned(self, rep: _Replica, msg: tuple) -> None:
        _, _, name, payload, num_samples, overhead_ops = msg
        with self._cond:
            pending, self._learning = self._learning, None
            if pending is None or pending["name"] != name:
                return  # stale reply (e.g. raced a restart); drop it
            adaptive = self.adaptive
            event = pending["event"]
            if payload is None:
                # The replica had no buffered window to score; re-arm the
                # detector so the next drifted window can retry.
                self.observer.event(
                    "fleet_learning_failed", regime=name, replica=rep.id,
                )
                self._detector.rearm()
                self._cond.notify_all()
                return
            entry = RegimeEntry.from_dict(name, payload)
            adaptive.table.add_regime(entry)
            if adaptive.table_path is not None:
                adaptive.table.save(adaptive.table_path)
            adaptive.learned.append(name)
            adaptive.overhead_ops_total += overhead_ops
            self._overhead_ops += overhead_ops
            self.observer.event(
                "fleet_regime_learned",
                regime=name, replica=rep.id,
                num_samples=num_samples, overhead_ops=overhead_ops,
            )
            self._retarget_fleet_locked(
                name, event.score, event.observation, pending["distance"],
                trigger=event.trigger, learned=True,
            )
            # Broadcast the grown table so every replica holds the fleet's
            # learned state (and acks it -- regime_acks is the barrier
            # tests and operators can wait on).
            table_payload = adaptive.table.to_dict()
            for r in self._replicas:
                if r.state != "dead" and r.task_q is not None:
                    try:
                        r.task_q.put(("regime", name, table_payload))
                    except (OSError, ValueError):  # pragma: no cover
                        pass
            self._cond.notify_all()

    # -- supervision ------------------------------------------------------------
    def _supervise_loop(self) -> None:
        while not self._shutdown:
            sleep(0.05)
            now = perf_counter()
            for rep in self._replicas:
                if self._stopping or self._shutdown:
                    return
                if (
                    rep.state == "live"
                    and rep.process is not None
                    and not rep.process.is_alive()
                    and not rep.stopped.is_set()
                ):
                    self._handle_replica_death(rep)
                elif rep.state == "backoff" and now >= rep.restart_at:
                    self._restart_replica(rep)

    def _handle_replica_death(self, rep: _Replica) -> None:
        # Drain anything the dying worker managed to ship: those batches
        # completed and their spans are flushed -- they are answers, not
        # casualties.
        while True:
            try:
                msg = rep.result_q.get_nowait()
            except (queue.Empty, OSError, EOFError, ValueError):
                break
            if msg[0] == "result":
                self._handle_result(rep, msg)
            elif msg[0] == "stopped":  # pragma: no cover -- raced a stop
                rep.snapshot = msg[2]
                rep.stopped.set()
        exitcode = rep.process.exitcode if rep.process is not None else None
        policy = self.resilience
        with self._cond:
            inflight, rep.inflight = rep.inflight, None
            if self._learning is not None and self._learning["replica"] == rep.id:
                # The mini-calibration died with the replica; re-arm the
                # detector so the next drifted window can retry elsewhere.
                self._learning = None
                if self._detector is not None:
                    self._detector.rearm()
            rep.restarts += 1
            can_restart = (
                policy is not None
                and policy.supervise
                and rep.restarts <= policy.max_restarts
            )
            if can_restart:
                rep.state = "backoff"
                rep.restart_at = perf_counter() + policy.backoff_s(
                    rep.restarts, rep.jitter.random()
                )
            else:
                rep.state = "dead"
            all_dead = all(r.state == "dead" for r in self._replicas)
            live = sum(1 for r in self._replicas if r.state == "live")
            self._cond.notify_all()
        items = inflight["items"] if inflight is not None else []
        for _, ticket, enqueued_at, _ in items:
            self._fail_ticket(
                ticket, enqueued_at, rep.id,
                cause="worker_crash",
                message=(
                    f"replica {rep.id} died (exit code {exitcode}) with "
                    "the batch in flight"
                ),
            )
        observer = self.observer
        observer.event(
            "replica_crash", replica=rep.id, exitcode=exitcode,
            inflight_failed=len(items), restarts=rep.restarts,
        )
        observer.set_gauge(
            "fleet_live_replicas", float(live),
            "Replica processes currently serving.",
        )
        _log.warning(
            "replica %d died (exit code %s); restart %d/%s",
            rep.id, exitcode, rep.restarts,
            policy.max_restarts if policy is not None else 0,
        )
        if rep.state == "backoff":
            observer.inc(
                "replica_restarts_total", 1.0,
                "Supervised replica-process restarts after a crash.",
            )
        else:
            observer.event(
                "replica_gave_up", replica=rep.id, restarts=rep.restarts
            )
            if all_dead:
                budget = policy.max_restarts if policy is not None else 0
                failed = self._fail_backlog(
                    f"every replica is dead; restart budget ({budget}) "
                    "exhausted"
                )
                observer.event("fleet_gave_up", backlog_failed=failed)

    def _restart_replica(self, rep: _Replica) -> None:
        with self._cond:
            if rep.state != "backoff" or self._stopping:
                return
            rep.sessions += 1
            rep.state = "live"
            live = sum(1 for r in self._replicas if r.state == "live")
        self._spawn_replica(rep)
        # A replica spawned mid-run must follow the current fleet delta,
        # not the start-of-run value baked into its spec.
        with self._cond:
            if (
                self._broadcast_delta is not None
                and self._initial_delta is not None
                and abs(self._broadcast_delta - self._initial_delta) > 1e-12
            ):
                rep.task_q.put(("delta", self._broadcast_delta))
            self._cond.notify_all()
        self.observer.event(
            "replica_restart", replica=rep.id, restarts=rep.restarts,
            session=rep.sessions,
        )
        self.observer.set_gauge(
            "fleet_live_replicas", float(live),
            "Replica processes currently serving.",
        )

    # -- failure accounting -----------------------------------------------------
    def _fail_ticket(
        self,
        ticket: Ticket,
        enqueued_at: float,
        replica_id: int | None,
        *,
        cause: str,
        message: str,
    ) -> bool:
        """Parent-side mirror of ``InferenceEngine._fail_pending``: resolve
        the ticket failed and account it across counters and the parent
        trace (full v1 span shape, so fleet reconciliation re-derives the
        same causes from concatenated traces)."""
        if ticket.done:
            return False
        latency_s = perf_counter() - enqueued_at
        ticket._resolve(
            RequestFailed(
                request_id=ticket.request_id,
                error=cause,
                message=message,
                retries=0,
                latency_s=latency_s,
            )
        )
        with self._cond:
            self._crash_failures[cause] = (
                self._crash_failures.get(cause, 0) + 1
            )
        observer = self.observer
        if not observer.enabled:
            return True
        observer.inc(
            "requests_failed_total", 1.0,
            "Requests that resolved with a RequestFailed answer, by cause.",
            cause=cause,
        )
        observer.inc(
            "fleet_failed_total", 1.0,
            "Fleet request failures, by replica and cause.",
            replica=replica_id if replica_id is not None else -1,
            cause=cause,
        )
        if observer.trace is None:
            return True
        observer.span(
            {
                "kind": "span",
                "request_id": ticket.request_id,
                "batch_id": next(self._span_ids),
                "model_spec": self._entry.spec,
                "queue_wait_s": latency_s,
                "latency_s": latency_s,
                "exit_stage": -1,
                "exit_stage_name": "",
                "confidence": 0.0,
                "delta": 0.0,
                "max_stage": None,
                "batch_size": 1,
                "ops": 0.0,
                "energy_pj": 0.0,
                "shed": False,
                "degraded": False,
                "error": cause,
                "stages": [],
            }
        )
        return True

    def _fail_backlog(self, message: str) -> int:
        with self._cond:
            batches = self._batcher.drain()
            self._window_opened_at = None
        failed = 0
        for batch in batches:
            for pending in batch:
                if self._fail_ticket(
                    pending.ticket, pending.enqueued_at, None,
                    cause="restart_budget", message=message,
                ):
                    failed += 1
        return failed

    def __repr__(self) -> str:
        states = ",".join(r.state for r in self._replicas)
        return (
            f"ServingFabric(replicas={self.replicas}, states=[{states}], "
            f"running={self._running})"
        )
