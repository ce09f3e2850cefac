"""Load-generation benchmarks: the two SLO claims the loadgen PR makes.

Both run :meth:`~repro.serving.loadgen.LoadRunner.simulate` -- the real
cascade under deterministic virtual time (service time is modeled as
``batch OPS / ops_per_second``), so the numbers are reproducible across
machines and the regression gate can hold counts exactly.

* **Throughput at SLO** (``serving_slo_tiny``) -- a steady Poisson
  arrival process at a sustainable rate meets a 250 ms p99 target with
  zero shed and zero drops, and the report's headline
  ``throughput_at_slo_rps`` equals the achieved rate (non-zero).
* **Shedding tames the burst** (``loadgen_shed``) -- under a 4x
  overload burst the unprotected engine blows through the p99 SLO;
  installing ``ShedPolicy`` (serve stage-0 early exits under
  backpressure, never drop) brings p99 back inside the target at 100 %
  goodput, and ``SLOReport.shed_count`` reconciles *exactly* with both
  ``MetricsSnapshot.shed_requests`` and the per-request trace spans
  (:func:`repro.obs.fold_spans`).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.bench.registry import BenchContext, BenchResult, Tolerance, benchmark
from repro.experiments.common import Scale, get_datasets, get_trained
from repro.obs import Observer, fold_spans, read_spans
from repro.serving import (
    ArrivalSchedule,
    InferenceEngine,
    LoadRunner,
    ServingConfig,
    ShedPolicy,
)
from repro.utils.tables import AsciiTable

GROUP = "loadgen"
DELTA = 0.6
SLO_P99_S = 0.25
#: Modeled service capacity, scalar OPS/s.  ~150 req/s of the tiny
#: cascade fits comfortably; a 4x burst does not.
CAPACITY_OPS_PER_S = 3e7


def _tiny_workload(ctx: BenchContext):
    """The reference cascade at tiny scale regardless of tier.

    These benchmarks measure the *load generator and shed policy*, not
    model quality -- tiers scale offered traffic, not the model.
    """
    trained = get_trained("mnist_3c", Scale.tiny(), seed=ctx.seed)
    _, test = get_datasets(Scale.tiny(), seed=ctx.seed)
    return trained, test


@benchmark(
    "serving_slo_tiny",
    group=GROUP,
    title="Loadgen -- steady Poisson meets the p99 SLO",
    tiers={
        "tiny": {"rate_rps": 150.0, "duration_s": 4.0},
        "small": {"rate_rps": 150.0, "duration_s": 8.0},
        "full": {"rate_rps": 150.0, "duration_s": 16.0},
    },
    tolerances={
        "slo_met": Tolerance(),
        "shed_count": Tolerance(),
        "dropped": Tolerance(),
        "throughput_at_slo_rps": Tolerance(rel=0.25),
        "latency_p99_s": Tolerance(rel=0.25, abs=1e-3),
        "goodput_fraction": Tolerance(abs=0.02),
    },
)
def bench_serving_slo(ctx: BenchContext) -> BenchResult:
    trained, test = _tiny_workload(ctx)
    schedule = ArrivalSchedule.poisson(
        rate_rps=float(ctx.params["rate_rps"]),
        duration_s=float(ctx.params["duration_s"]),
        seed=3,
        deadline_s=SLO_P99_S,
    )
    engine = InferenceEngine.from_config(
        ServingConfig(model=trained.cdln, delta=DELTA)
    )
    runner = LoadRunner(engine, schedule, test.images)
    report = runner.simulate(
        ops_per_second=CAPACITY_OPS_PER_S, slo_p99_s=SLO_P99_S
    )
    return BenchResult(
        metrics={
            "slo_met": float(report.slo_met),
            "shed_count": float(report.shed_count),
            "dropped": float(report.dropped),
            "throughput_at_slo_rps": report.throughput_at_slo_rps,
            "latency_p99_s": report.latency_p99_s,
            "goodput_fraction": report.goodput_fraction,
        },
        units=float(report.answered),
        text=report.render(),
        payload={
            "slo_met": report.slo_met,
            "shed": report.shed_count,
            "dropped": report.dropped,
            "throughput_at_slo_rps": report.throughput_at_slo_rps,
        },
    )


@bench_serving_slo.check
def _check_serving_slo(res: BenchResult) -> None:
    # Sustainable load: the SLO holds without any degraded-mode answers.
    assert res.payload["slo_met"] is True
    assert res.payload["shed"] == 0
    assert res.payload["dropped"] == 0
    assert res.payload["throughput_at_slo_rps"] > 0.0


@benchmark(
    "loadgen_shed",
    group=GROUP,
    title="Loadgen -- shedding keeps a 4x burst inside the SLO",
    tiers={
        "tiny": {"rate_rps": 150.0, "duration_s": 3.0, "shed_depth": 16},
        "small": {"rate_rps": 150.0, "duration_s": 6.0, "shed_depth": 16},
        "full": {"rate_rps": 150.0, "duration_s": 12.0, "shed_depth": 16},
    },
    tolerances={
        "shed_slo_met": Tolerance(),
        "shed_dropped": Tolerance(),
        "reconcile_exact": Tolerance(),
        "shed_count": Tolerance(),
        "shed_p99_s": Tolerance(rel=0.25, abs=1e-3),
        "shed_goodput_fraction": Tolerance(abs=0.02),
        "unprotected_p99_s": None,
    },
)
def bench_loadgen_shed(ctx: BenchContext) -> BenchResult:
    trained, test = _tiny_workload(ctx)
    schedule = ArrivalSchedule.bursty(
        rate_rps=float(ctx.params["rate_rps"]),
        burst_factor=4.0,
        burst_start_s=1.0,
        burst_duration_s=1.0,
        duration_s=float(ctx.params["duration_s"]),
        seed=3,
        deadline_s=SLO_P99_S,
    )

    unprotected = InferenceEngine.from_config(
        ServingConfig(model=trained.cdln, delta=DELTA)
    )
    bare = LoadRunner(unprotected, schedule, test.images).simulate(
        ops_per_second=CAPACITY_OPS_PER_S, slo_p99_s=SLO_P99_S
    )

    with tempfile.TemporaryDirectory() as tmp:
        with Observer.to_directory(Path(tmp), meta={"bench": "loadgen_shed"}) as obs:
            engine = InferenceEngine.from_config(
                ServingConfig(
                    model=trained.cdln,
                    delta=DELTA,
                    shed=ShedPolicy(
                        max_queue_depth=int(ctx.params["shed_depth"])
                    ),
                    observer=obs,
                )
            )
            shed = LoadRunner(engine, schedule, test.images).simulate(
                ops_per_second=CAPACITY_OPS_PER_S, slo_p99_s=SLO_P99_S
            )
            obs.flush()
            spans = read_spans(Path(tmp) / "trace.jsonl")

    snap = engine.metrics.snapshot()
    trace = fold_spans(spans)
    stage0 = all(s["exit_stage"] == 0 for s in spans if s.get("shed"))
    # Three views of the same answers, one count -- `==`, not approx.
    exact = (
        trace.spans == shed.answered
        and trace.shed_requests == shed.shed_count
        and snap.shed_requests == shed.shed_count
        and stage0
    )

    table = AsciiTable(
        ["engine", "p99 (s)", "SLO met", "shed", "dropped", "goodput"],
        title="4x burst: unprotected vs shed-protected",
    )
    table.add_row(
        ["unprotected", f"{bare.latency_p99_s:.3f}", str(bare.slo_met),
         bare.shed_count, bare.dropped, f"{bare.goodput_fraction:.2f}"]
    )
    table.add_row(
        [f"shed (depth={ctx.params['shed_depth']})",
         f"{shed.latency_p99_s:.3f}", str(shed.slo_met),
         shed.shed_count, shed.dropped, f"{shed.goodput_fraction:.2f}"]
    )
    return BenchResult(
        metrics={
            "shed_slo_met": float(shed.slo_met),
            "shed_dropped": float(shed.dropped),
            "reconcile_exact": float(exact),
            "shed_count": float(shed.shed_count),
            "shed_p99_s": shed.latency_p99_s,
            "shed_goodput_fraction": shed.goodput_fraction,
            "unprotected_p99_s": bare.latency_p99_s,
        },
        units=float(shed.answered),
        text=table.render(),
        payload={
            "unprotected_met": bare.slo_met,
            "shed_met": shed.slo_met,
            "shed_dropped": shed.dropped,
            "shed_count": shed.shed_count,
            "exact": exact,
        },
    )


@bench_loadgen_shed.check
def _check_loadgen_shed(res: BenchResult) -> None:
    # The burst genuinely overloads: without protection the SLO breaks.
    assert res.payload["unprotected_met"] is False
    # Shedding saves it -- p99 back inside the target, nothing dropped,
    # and overload traffic actually went through the degraded mode.
    assert res.payload["shed_met"] is True
    assert res.payload["shed_dropped"] == 0
    assert res.payload["shed_count"] > 0
    # Report, metrics snapshot and trace spans agree request-for-request.
    assert res.payload["exact"] is True
