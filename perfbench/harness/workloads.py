"""The four workloads: set-up, measured phases and the traced ledger.

Every workload trains ``mnist_3c`` at ``Scale.small()`` in float32 from
one fixed training seed and serves that seed's 1000 test digits (clean,
or corrupted for the hard workload) at δ = 0.6 under the program's
default micro-batch policy.  The run's ``--seed`` draws the request
stream: arrival times and which digit each request carries, or the
order of the offline calls.  The model and the digit pool stay fixed, so
accuracy and OPS move only with the program, not with a retrained model.
Every answer is checked against ``CDLN.predict``.  A traced run repeats
the measured phase with spans recorded around the program's public entry
points.
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import statistics
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep

import numpy as np

import repro.cdl.network as cdl_network
import repro.serving.engine as serving_engine
from repro.data.corruptions import corrupt_dataset
from repro.experiments.common import Scale, get_datasets, get_trained
from repro.obs import Observer
from repro.ops.counting import count_layer_ops
from repro.serving import (
    AsyncEngine,
    FabricConfig,
    InferenceEngine,
    ServingConfig,
    ServingFabric,
)

from harness import ledger as ledger_mod
from harness.gate import Gate, Reference
from harness.openloop import OpenLoopRun, poisson_schedule, run_open_loop
from harness.provenance import digest
from harness.stats import percentile
from harness.tracer import Patches, Tracer, first_rows, second_rows

ARCHITECTURE = "mnist_3c"
SCALE = Scale.small()
TRAINING_SEED = 0
DELTA = 0.6
OFFLINE_BATCH = 512
#: Engine or fabric builds per run; ``setup.build_s`` is their median.
BUILDS = 3
WARMUP_S = 0.5
OBSERVER_METHODS = ("span", "event", "inc", "set_gauge", "observe_hist")


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``offline`` (closed batches through CDLN.predict), ``engine``
    #: (open loop into AsyncEngine) or ``fleet`` (open loop into a
    #: one-replica ServingFabric).
    mode: str
    rate_per_s: float = 0.0
    corruption: tuple[str, float] | None = None
    observed: bool = False


#: The workloads by name; BENCHMARK.json gives the reason for each.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("offline_clean", "offline"),
        Workload("serve_steady_clean", "engine", rate_per_s=500.0),
        Workload("serve_peak_hard", "engine", rate_per_s=1250.0,
                 corruption=("contrast", 0.7), observed=True),
        Workload("fleet_steady_clean", "fleet", rate_per_s=500.0),
    )
}


@dataclass
class Phase:
    """One measured stretch of a workload: what the client saw."""

    #: Latency samples (seconds); ``inf`` for failed, refused or stranded.
    latencies_s: np.ndarray
    throughput_per_s: float
    attempted: int
    failed: int
    #: Correct labels, OPS and exit-stage counts over the judged answers.
    correct: int
    answered_ops: np.ndarray
    exit_counts: np.ndarray
    #: Fields of the answered responses (open loop only), by name.
    answers: dict[str, np.ndarray] = field(default_factory=dict)
    run: OpenLoopRun | None = None

    @property
    def judged(self) -> int:
        """Answers that accuracy, OPS and exit fractions are taken over."""
        return int(self.exit_counts.sum())

    def latency_ms(self, q: float) -> float:
        return percentile(self.latencies_s, q) * 1e3


@dataclass
class Prepared:
    """Inputs and the program under test, ready to measure."""

    workload: Workload
    pool: np.ndarray
    labels: np.ndarray
    trained: object
    reference: Reference
    gate: Gate
    train_s: float
    build_s: list[float]
    server: object = None
    observer: Observer | None = None

    @property
    def cdln(self):
        return self.trained.cdln


# -- set-up ----------------------------------------------------------------------
def _params_dtype(cdln) -> str:
    layer = cdln.baseline.layers[0]
    return str(next(iter(layer.params.values())).dtype)


def _build(prepared: Prepared, work_root: Path):
    """Build and start one engine or fabric; returns (server, observer)."""
    workload = prepared.workload
    if workload.mode == "fleet":
        config = ServingConfig(model=prepared.trained, delta=DELTA)
        fabric = ServingFabric(FabricConfig(config=config, replicas=1))
        return fabric.start(), None
    observer = None
    if workload.observed:
        observer = Observer.to_directory(tempfile.mkdtemp(dir=work_root))
    engine = InferenceEngine.from_config(
        ServingConfig(model=prepared.trained, delta=DELTA, observer=observer)
    )
    return AsyncEngine(engine).start(), observer


def _stop(server, observer) -> None:
    if server is not None:
        server.stop()
    if observer is not None:
        observer.close()


def prepare(workload: Workload, work_root: Path) -> Prepared:
    """Generate the digits, then time training and ``BUILDS`` builds."""
    _train, test = get_datasets(SCALE, TRAINING_SEED)
    dataset = (
        corrupt_dataset(test, workload.corruption[0], workload.corruption[1],
                        rng=TRAINING_SEED)
        if workload.corruption is not None
        else test
    )
    pool = np.ascontiguousarray(dataset.images, dtype=np.float32)
    labels = dataset.labels.copy()
    t0 = perf_counter()
    trained = get_trained(ARCHITECTURE, SCALE, TRAINING_SEED, delta=DELTA)
    train_s = perf_counter() - t0
    dtype = _params_dtype(trained.cdln)
    if dtype != "float32":
        raise RuntimeError(f"model computes in {dtype}, the benchmark requires float32")
    reference = Reference.build(trained.cdln, pool, DELTA, OFFLINE_BATCH)
    prepared = Prepared(
        workload=workload, pool=pool, labels=labels, trained=trained,
        reference=reference, gate=Gate(reference), train_s=train_s, build_s=[],
    )
    if workload.mode == "offline":
        prepared.build_s.append(0.0)
        return prepared
    for i in range(BUILDS):
        t0 = perf_counter()
        server, observer = _build(prepared, work_root)
        prepared.build_s.append(perf_counter() - t0)
        if i < BUILDS - 1:
            _stop(server, observer)
    prepared.server, prepared.observer = server, observer
    return prepared


# -- measured phases ---------------------------------------------------------------
def offline_calls(order: np.ndarray) -> list[np.ndarray]:
    """Pool indices of each predict call in one cycle.

    The pool, in ``order``, is repeated end to end and cut into calls of
    ``OFFLINE_BATCH`` until a cut falls on a pool boundary, so every call
    holds exactly 512 images (one latency mode, not two) and a cycle
    covers every image equally often.
    """
    n = order.shape[0]
    cycle = math.lcm(n, OFFLINE_BATCH)
    return np.split(order[np.arange(cycle) % n], cycle // OFFLINE_BATCH)


def offline_order(p: Prepared, seed: int) -> np.ndarray:
    """The seed's order of the pool for offline calls."""
    return np.random.default_rng([seed, 2]).permutation(p.pool.shape[0])


def measure_offline(p: Prepared, order: np.ndarray, seconds: float,
                    tracer: Tracer | None = None) -> Phase:
    """Predict calls of 512 images until ``seconds`` elapse and a cycle is done.

    Each image's latency is the wall time of the predict call carrying it.
    Accuracy and OPS are taken over the first cycle, which weighs every
    pool image equally, so they repeat exactly at a fixed seed.
    """
    cdln, pool = p.cdln, p.pool
    calls = offline_calls(order)
    call_s: list[float] = []
    exit_counts = np.zeros(len(p.reference.exit_ops), dtype=np.int64)
    correct = 0
    gc.collect()
    stop_at = perf_counter() + seconds
    while perf_counter() < stop_at or len(call_s) < len(calls):
        images = calls[len(call_s) % len(calls)]
        batch = pool[images]
        if tracer is not None:
            tracer.open("call.predict")
        t0 = perf_counter()
        result = cdln.predict(batch, DELTA, batch_size=OFFLINE_BATCH)
        call_s.append(perf_counter() - t0)
        if tracer is not None:
            tracer.close(images.size)
        p.gate.check("offline", images, result.labels, result.exit_stages)
        p.gate.check_costs("offline", result.costs)
        if len(call_s) <= len(calls):
            exit_counts += np.bincount(result.exit_stages, minlength=exit_counts.size)
            correct += int((result.labels == p.labels[images]).sum())
    images_done = len(call_s) * OFFLINE_BATCH
    return Phase(
        latencies_s=np.repeat(call_s, OFFLINE_BATCH),
        throughput_per_s=images_done / sum(call_s),
        attempted=images_done,
        failed=0,
        correct=correct,
        answered_ops=np.repeat(p.reference.exit_ops, exit_counts),
        exit_counts=exit_counts,
    )


def measure_open_loop(p: Prepared, schedule, where: str) -> Phase:
    """Send ``schedule`` into the running server and gate every answer."""
    gc.collect()
    run = run_open_loop(p.server.submit, schedule, p.pool)
    answered = run.answered
    answers = {name: values[answered] for name, values in run.answers.items()}
    images = schedule.payload[answered]
    labels = answers["label"].astype(np.int64)
    stages = answers["exit_stage"].astype(np.int64)
    p.gate.check(where, images, labels, stages, answers["ops"])
    p.gate.require(run.stranded == 0, f"{where}: {run.stranded} tickets never resolved")
    return Phase(
        latencies_s=run.latencies_s(),
        throughput_per_s=run.throughput_per_s(),
        attempted=run.attempted,
        failed=run.attempted - answered.size,
        correct=int((labels == p.labels[images]).sum()),
        answered_ops=answers["ops"],
        exit_counts=np.bincount(stages, minlength=len(p.reference.exit_ops)),
        answers=answers,
        run=run,
    )


def schedules(p: Prepared, seed: int, seconds: float):
    """(warm-up, measured) arrival schedules, both fixed by ``seed``."""
    rate, n = p.workload.rate_per_s, p.pool.shape[0]
    warm = poisson_schedule(rate, WARMUP_S, n, np.random.default_rng([seed, 1]))
    measured = poisson_schedule(rate, seconds, n, np.random.default_rng([seed, 0]))
    return warm, measured


# -- tracing ---------------------------------------------------------------------
def instrument(p: Prepared, tracer: Tracer) -> Patches:
    """Wrap the program's public entry points on the live objects of ``p``."""
    patches = Patches()
    cdln = p.cdln
    for layer in cdln.baseline.layers:
        patches.set(layer, "forward",
                    tracer.wrap(f"nn.{layer.name}", layer.forward, first_rows))
    for stage in cdln.linear_stages:
        scores = stage.classifier.confidence_scores
        patches.set(stage.classifier, "confidence_scores",
                    tracer.wrap(f"cdl.{stage.name}", scores, first_rows))
    module = cdln.activation_module
    patches.set(module, "decide", tracer.wrap("cdl.decide", module.decide, first_rows))
    for owner in (cdl_network, serving_engine):
        patches.set(owner, "execute_cascade",
                    tracer.wrap("cascade", owner.execute_cascade, second_rows))
    server = p.server
    if isinstance(server, AsyncEngine):
        patches.set(server, "submit", tracer.wrap("engine.submit", server.submit))
        metrics = server.engine.metrics
        patches.set(metrics, "record_batch",
                    tracer.wrap("metrics.record_batch", metrics.record_batch))
        patches.set(serving_engine, "collect_from_queue",
                    _dispatch_spans(tracer, serving_engine.collect_from_queue))
    elif isinstance(server, ServingFabric):
        patches.set(server, "submit", tracer.wrap("fabric.submit", server.submit))
    if p.observer is not None:
        for method in OBSERVER_METHODS:
            patches.set(p.observer, method,
                        tracer.wrap(f"obs.{method}", getattr(p.observer, method)))
    return patches


def _dispatch_spans(tracer: Tracer, collect):
    """Wrap the async worker's batch collection to delimit its dispatches.

    The worker alternates between collecting a batch from its queue and
    dispatching it.  The span ``engine.dispatch`` runs from the end of one
    collection to the start of the next, so its self time is the batch's
    service time minus its cascade, metrics and obs children.
    """

    def traced(*args, **kwargs):
        if tracer.top() == "engine.dispatch":
            tracer.close(traced.rows)
        tracer.open("batching.collect")
        try:
            items = collect(*args, **kwargs)
        finally:
            tracer.close()
        if items:
            traced.rows = len(items)
            tracer.open("engine.dispatch")
        return items

    traced.rows = 0
    return traced


def traced_ledger(p: Prepared, phase_fn, untraced: Phase,
                  book: ledger_mod.Ledger) -> None:
    """Repeat the measured phase with spans on; fold everything into ``book``."""
    tracer = Tracer()
    own = {threading.get_native_id()}
    patches = instrument(p, tracer)
    # An idle async worker re-enters its (now wrapped) collection within
    # one 50 ms poll; wait so the first traced batch is delimited too.
    sleep(0.1)
    trace_file = _trace_file(p)
    bytes_before = _flushed_size(p, trace_file)
    cpu_before = ledger_mod.thread_cpu_s()
    try:
        traced = phase_fn(tracer)
        # Let the worker finish the last batch's bookkeeping and go idle.
        sleep(0.2)
        spans = list(tracer.spans)
        cpu_after = ledger_mod.thread_cpu_s()
    finally:
        patches.undo()
    stages = p.cdln.stage_names
    layer_ops = {
        layer.name: count_layer_ops(layer).total for layer in p.cdln.baseline.layers
    }
    exits = dict(zip(stages, traced.exit_counts.tolist()))
    ledger_mod.fill_from_spans(book, spans, layer_ops, exits)
    for stage, count in exits.items():
        book.set(f"cascade.exit_frac.{stage}", count / max(traced.judged, 1))
    mode = p.workload.mode
    if mode == "engine":
        ledger_mod.fill_engine_responses(book, traced.answers)
    elif mode == "fleet":
        ledger_mod.fill_fabric_responses(book, traced.answers)
    if trace_file is not None:
        book.set("obs.trace_bytes", _flushed_size(p, trace_file) - bytes_before)
    book.set("setup.train_s", p.train_s)
    book.set("setup.build_s", statistics.median(p.build_s))
    if traced.run is not None:
        late = traced.run.late_s()
        book.set_percentile("loadgen.late_ms.p50", late, 50, 1e3)
        book.set_percentile("loadgen.late_ms.p99", late, 99, 1e3)
        book.set("loadgen.offered_rps", traced.run.offered_rps())
    self_s, _rows, _calls = ledger_mod.span_totals(spans)
    book.set(
        "unattributed_s",
        sum(v for k, v in self_s.items() if k.startswith("call."))
        + ledger_mod.untraced_thread_cpu_s(cpu_before, cpu_after, spans, own),
    )
    if mode == "offline":
        overhead = untraced.throughput_per_s / traced.throughput_per_s - 1.0
    else:
        overhead = traced.latency_ms(50) / untraced.latency_ms(50) - 1.0
    book.set("trace.overhead_frac", overhead)
    book.set("client.throughput_per_s", untraced.throughput_per_s)
    book.set("client.latency_p50_ms", untraced.latency_ms(50))
    book.set_percentile("client.latency_p99_ms", untraced.latencies_s, 99, 1e3)


def _trace_file(p: Prepared) -> Path | None:
    if p.observer is None or p.observer.trace is None:
        return None
    return Path(p.observer.trace.path)


def _flushed_size(p: Prepared, path: Path | None) -> int:
    if path is None:
        return 0
    p.observer.flush()
    return path.stat().st_size


# -- one run ---------------------------------------------------------------------
@dataclass
class RunResult:
    phase: Phase
    setup_s: float
    peak_rss_mb: float
    input_digest: str
    gate: Gate
    baseline_ops: float
    compute_dtype: str
    layers: ledger_mod.Ledger | None = None


def _reset_peak_rss() -> None:
    """Restart this process's resident-set high-water mark (Linux).

    Set-up and the reference pass peak higher than serving does; from
    here on, the mark records the measured work alone.
    """
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def _peak_rss_kb() -> int:
    """This process's resident-set high-water mark since the last reset."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(workload: Workload, seed: int, seconds: float,
        ledger: ledger_mod.Ledger | None, root: Path) -> RunResult:
    """Set up, warm up, measure (and trace into ``ledger``), tear down, gate."""
    work_root = root / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        p = prepare(workload, work_dir)
        try:
            result = _measure(p, seed, seconds, ledger)
        finally:
            _stop(p.server, p.observer)
        if workload.mode == "fleet":
            # The replicas have exited; the largest one's peak, which it
            # reached serving, since a replica does nothing else.
            replica_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            result.peak_rss_mb += replica_kb / 1024.0
        return result
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def _measure(p: Prepared, seed: int, seconds: float,
             ledger: ledger_mod.Ledger | None) -> RunResult:
    _reset_peak_rss()
    workload = p.workload
    if workload.mode == "offline":
        order = offline_order(p, seed)
        input_digest = digest(p.pool, p.labels, order)

        def phase_fn(tracer=None):
            return measure_offline(p, order, seconds, tracer)
    else:
        warm, measured = schedules(p, seed, seconds)
        input_digest = digest(p.pool, p.labels, warm.due_s, warm.payload,
                              measured.due_s, measured.payload)
        measure_open_loop(p, warm, "warm-up")

        def phase_fn(tracer=None):
            return measure_open_loop(p, measured, workload.name)
    phase = phase_fn()
    result = RunResult(
        phase=phase,
        setup_s=p.train_s + statistics.median(p.build_s),
        peak_rss_mb=_peak_rss_kb() / 1024.0,
        input_digest=input_digest,
        gate=p.gate,
        baseline_ops=p.reference.baseline_ops,
        compute_dtype=_params_dtype(p.cdln),
    )
    if ledger is not None:
        traced_ledger(p, phase_fn, phase, ledger)
        result.layers = ledger
    return result
