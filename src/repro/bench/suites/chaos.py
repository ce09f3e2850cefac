"""Chaos benchmark: the resilience layer's availability claim, gated.

One seeded :class:`~repro.serving.faults.FaultPlan` -- transient compute
errors, persistent poison requests, a hard multi-batch outage window,
NaN payloads, latency spikes -- is replayed against the same schedule
twice:

* **Unprotected engine** (no :class:`~repro.serving.resilience.
  ResiliencePolicy`): the first injected batch fault kills the (virtual)
  worker, every remaining arrival is stranded, and the report shows the
  outage -- ``dropped`` in the hundreds, availability far below 1.
* **Resilient engine**: supervision + bisection isolation + bounded
  retries + degraded stage-0 fallback keep availability at or above
  99 % with *zero* stranded tickets: every scheduled request resolves,
  with an answer or a :class:`~repro.serving.engine.RequestFailed`.

The failure accounting is gated exactly, three ways: the
:class:`~repro.serving.slo.SLOReport` failed/degraded counts, the
:class:`~repro.serving.metrics.MetricsSnapshot` per-cause counters, and
the trace spans folded by :func:`repro.obs.fold_spans` must agree with
``==``, not approx.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.bench.registry import BenchContext, BenchResult, Tolerance, benchmark
from repro.experiments.common import Scale, get_datasets, get_trained
from repro.obs import Observer, fold_spans, read_spans
from repro.serving import (
    ArrivalSchedule,
    FaultPlan,
    FaultSpec,
    InferenceEngine,
    LoadRunner,
    MicroBatchPolicy,
    ResiliencePolicy,
    ServingConfig,
)
from repro.utils.tables import AsciiTable

GROUP = "chaos"
DELTA = 0.6
SLO_P99_S = 0.25
#: Modeled service capacity, scalar OPS/s -- generous, so availability is
#: decided by the faults, not by queueing.
CAPACITY_OPS_PER_S = 3e8
#: The availability floor the resilient engine must hold under the plan.
AVAILABILITY_FLOOR = 0.99


def _chaos_plan() -> FaultPlan:
    """The seeded fault mix both engines face.

    Windows are placed so the *unprotected* run wedges mid-trace (the
    first batches answer, then the outage kills it -- a report exists
    and shows the damage) while the resilient run has to survive every
    kind: the outage drives degraded mode, transient errors are saved by
    retries, persistent poisons and NaN payloads are quarantined
    one-for-one.
    """
    return FaultPlan(
        specs=(
            # Hard outage: every dispatch in the batch window raises.
            FaultSpec(kind="raise_in_batch", rate=1.0, first=6, last=30),
            # Transient compute errors: one fire per request id, so the
            # bounded retry answers them (no failures, retries > 0).
            FaultSpec(
                kind="request_error", rate=0.01, transient=True, fires=1,
                first=60,
            ),
            # Persistent poison requests: quarantined after retries.
            FaultSpec(kind="request_error", rate=0.004, first=200),
            # NaN payloads at intake: rejected by input validation.
            FaultSpec(kind="corrupt_input", rate=0.006, first=100),
            # Service-time jitter, charged to the virtual clock.
            FaultSpec(kind="latency_spike", rate=0.05, magnitude_s=0.002),
        ),
        seed=42,
    )


def _chaos_engine(trained, *, resilient: bool, observer=None) -> InferenceEngine:
    return InferenceEngine.from_config(
        ServingConfig(
            model=trained.cdln,
            delta=DELTA,
            # Small batches so the bisection ladder is actually exercised.
            policy=MicroBatchPolicy(max_batch_size=8, max_wait_s=0.05),
            resilience=(
                ResiliencePolicy(
                    max_retries=1, degraded_after=2, degraded_window=8
                )
                if resilient
                else None
            ),
            faults=_chaos_plan(),
            observer=observer,
        )
    )


@benchmark(
    "chaos_resilience",
    group=GROUP,
    title="Chaos -- resilience holds 99% availability under a fault plan",
    tiers={
        "tiny": {"rate_rps": 150.0, "duration_s": 4.0},
        "small": {"rate_rps": 150.0, "duration_s": 8.0},
        "full": {"rate_rps": 150.0, "duration_s": 16.0},
    },
    tolerances={
        "availability": Tolerance(abs=0.005),
        "failed_count": Tolerance(),
        "degraded_count": Tolerance(),
        "retries": Tolerance(),
        "dropped": Tolerance(),
        "reconcile_exact": Tolerance(),
        "unprotected_dropped": None,
        "unprotected_availability": None,
    },
)
def bench_chaos_resilience(ctx: BenchContext) -> BenchResult:
    trained = get_trained("mnist_3c", Scale.tiny(), seed=ctx.seed)
    _, test = get_datasets(Scale.tiny(), seed=ctx.seed)
    schedule = ArrivalSchedule.poisson(
        rate_rps=float(ctx.params["rate_rps"]),
        duration_s=float(ctx.params["duration_s"]),
        seed=3,
        deadline_s=SLO_P99_S,
    )

    # -- unprotected: the plan wedges the engine mid-trace -------------
    bare_engine = _chaos_engine(trained, resilient=False)
    bare = LoadRunner(bare_engine, schedule, test.images).simulate(
        ops_per_second=CAPACITY_OPS_PER_S, slo_p99_s=SLO_P99_S
    )

    # -- resilient: same plan, full failure-handling ladder ------------
    with tempfile.TemporaryDirectory() as tmp:
        with Observer.to_directory(
            Path(tmp), meta={"bench": "chaos_resilience"}
        ) as obs:
            engine = _chaos_engine(trained, resilient=True, observer=obs)
            report = LoadRunner(engine, schedule, test.images).simulate(
                ops_per_second=CAPACITY_OPS_PER_S, slo_p99_s=SLO_P99_S
            )
            obs.flush()
            spans = read_spans(Path(tmp) / "trace.jsonl")

    snap = engine.metrics.snapshot()
    trace = fold_spans(spans)
    # Three views of the same answers, one count -- `==`, not approx.
    exact = (
        trace.spans == report.answered + report.failed_count
        and trace.failed_requests == report.failed_count
        and trace.failed_by_cause == snap.failed_by_cause
        and snap.degraded_requests == report.degraded_count
        and trace.degraded_requests == report.degraded_count
    )
    # Zero stranded tickets: every scheduled arrival resolved.
    stranded = report.requests - report.answered - report.failed_count

    table = AsciiTable(
        ["engine", "answered", "failed", "degraded", "dropped",
         "availability"],
        title="Chaos plan: unprotected vs resilient",
    )
    table.add_row(
        ["unprotected", bare.answered, bare.failed_count,
         bare.degraded_count, bare.dropped, f"{bare.availability:.3f}"]
    )
    table.add_row(
        ["resilient", report.answered, report.failed_count,
         report.degraded_count, report.dropped,
         f"{report.availability:.3f}"]
    )
    return BenchResult(
        metrics={
            "availability": report.availability,
            "failed_count": float(report.failed_count),
            "degraded_count": float(report.degraded_count),
            "retries": float(snap.retries),
            "dropped": float(report.dropped),
            "reconcile_exact": float(exact),
            "unprotected_dropped": float(bare.dropped),
            "unprotected_availability": bare.availability,
        },
        units=float(report.requests),
        text=table.render(),
        payload={
            "availability": report.availability,
            "failed_by_cause": dict(snap.failed_by_cause),
            "degraded_count": report.degraded_count,
            "retries": snap.retries,
            "stranded": stranded,
            "dropped": report.dropped,
            "exact": exact,
            "unprotected_dropped": bare.dropped,
            "unprotected_availability": bare.availability,
        },
    )


@bench_chaos_resilience.check
def _check_chaos_resilience(res: BenchResult) -> None:
    # The plan genuinely wedges an unprotected engine: most of the trace
    # is stranded and availability collapses.
    assert res.payload["unprotected_dropped"] > 0
    assert res.payload["unprotected_availability"] < 0.5
    # The resilient engine survives the same plan at the gated floor.
    assert res.payload["availability"] >= AVAILABILITY_FLOOR
    assert res.payload["dropped"] == 0
    assert res.payload["stranded"] == 0
    # Every resilience mechanism actually fired.
    assert res.payload["retries"] > 0
    assert res.payload["degraded_count"] > 0
    assert res.payload["failed_by_cause"].get("invalid_input", 0) > 0
    assert res.payload["failed_by_cause"].get("injected_fault", 0) > 0
    # Report == metrics == trace, exactly.
    assert res.payload["exact"] is True
