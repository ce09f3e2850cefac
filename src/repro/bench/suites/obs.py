"""Observability benchmarks: the two guarantees the obs PR makes.

* **Disabled telemetry is free** -- an engine built with the default
  :data:`~repro.obs.observer.NULL_OBSERVER` serves within 2 % of the
  throughput of a fully-traced engine.  The disabled path's work is a
  strict subset of the traced path's (same branches, none of the payload
  construction, no I/O), so holding ``t_disabled <= 1.02 * t_traced``
  under an alternating within-run A/B conservatively bounds what the
  hooks can possibly cost; the absolute req/s numbers are informational
  (runner-dependent).
* **Spans reconcile exactly** -- folding a traced workload's spans
  (:func:`repro.obs.fold_spans`: per-span OPS grouped by batch,
  batch-ordered, numpy-summed -- the same accumulation
  :class:`~repro.serving.metrics.ServingMetrics` performs) reproduces
  ``MetricsSnapshot.mean_ops`` bit for bit, compared with ``==`` and not
  ``approx``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from time import perf_counter

from repro.bench.registry import BenchContext, BenchResult, Tolerance, benchmark
from repro.experiments.common import get_datasets, get_trained
from repro.obs import Observer, fold_spans, read_spans
from repro.serving import InferenceEngine, MicroBatchPolicy, ServingConfig
from repro.utils.tables import AsciiTable

GROUP = "obs"
DELTA = 0.6


@benchmark(
    "obs_overhead",
    group=GROUP,
    title="Observability -- disabled-observer serving overhead",
    tiers={
        "tiny": {"requests": 128, "reps": 3},
        "small": {"requests": 256, "reps": 4},
        "full": {"requests": 512, "reps": 5},
    },
    tolerances={
        "disabled_vs_traced_frac": None,
        "disabled_rps": None,
        "traced_rps": None,
        "traced_span_count": Tolerance(),
    },
)
def bench_obs_overhead(ctx: BenchContext) -> BenchResult:
    trained = get_trained("mnist_3c", ctx.scale, seed=ctx.seed)
    _, test = get_datasets(ctx.scale, seed=ctx.seed)
    images = test.images[: min(int(ctx.params.get("requests", 256)), len(test))]
    reps = int(ctx.params.get("reps", 3))
    policy = MicroBatchPolicy(max_batch_size=64)

    with tempfile.TemporaryDirectory() as tmp:
        observer = Observer.to_directory(Path(tmp), meta={"bench": "obs_overhead"})
        disabled = InferenceEngine.from_config(
            ServingConfig(model=trained.cdln, delta=DELTA, policy=policy)
        )
        traced = InferenceEngine.from_config(
            ServingConfig(
                model=trained.cdln, delta=DELTA, policy=policy,
                observer=observer,
            )
        )
        # One untimed pass each (caches, lazy warm paths).
        disabled.classify_many(images)
        traced.classify_many(images)
        disabled_s = traced_s = 0.0
        # Alternate A/B within the run so machine-load drift hits both
        # paths symmetrically instead of biasing one side.
        for _ in range(reps):
            start = perf_counter()
            disabled.classify_many(images)
            disabled_s += perf_counter() - start
            start = perf_counter()
            traced.classify_many(images)
            traced_s += perf_counter() - start
        observer.close()
        spans = read_spans(Path(tmp) / "trace.jsonl")

    served = len(images) * reps
    disabled_rps = served / disabled_s
    traced_rps = served / traced_s
    frac = disabled_s / traced_s - 1.0
    table = AsciiTable(
        ["engine", "req/s", "vs traced"], title="Disabled-observer overhead"
    )
    table.add_row(["traced (spans+metrics+events)", round(traced_rps, 1), "1.00x"])
    table.add_row(
        ["disabled (NULL_OBSERVER)", round(disabled_rps, 1),
         f"{disabled_rps / traced_rps:.2f}x"]
    )
    return BenchResult(
        metrics={
            "disabled_vs_traced_frac": frac,
            "disabled_rps": disabled_rps,
            "traced_rps": traced_rps,
            # (1 + reps) passes: the untimed warm pass also writes spans.
            "traced_span_count": float(len(spans)),
        },
        # No ``units``: the body times two engines; a single throughput
        # number would blend them.  The real rates are the *_rps metrics.
        text=table.render(),
        payload={"frac": frac, "spans": len(spans), "expected": served + len(images)},
    )


@bench_obs_overhead.check
def _check_obs_overhead(res: BenchResult) -> None:
    # The acceptance bound: disabled serving within 2% of traced serving
    # (hooks are a strict subset of tracing work, so this caps their cost).
    assert res.payload["frac"] < 0.02, (
        f"disabled-observer path is {res.payload['frac']:+.1%} vs traced"
    )
    assert res.payload["spans"] == res.payload["expected"]


@benchmark(
    "obs_reconcile",
    group=GROUP,
    title="Observability -- span OPS reconcile with ServingMetrics exactly",
    tiers={
        "tiny": {"requests": 150},
        "small": {"requests": 400},
        "full": {"requests": 1000},
    },
    tolerances={
        "reconcile_exact": Tolerance(),
        "span_count_matches": Tolerance(),
        "mean_ops": Tolerance(rel=0.25),
    },
)
def bench_obs_reconcile(ctx: BenchContext) -> BenchResult:
    trained = get_trained("mnist_3c", ctx.scale, seed=ctx.seed)
    _, test = get_datasets(ctx.scale, seed=ctx.seed)
    images = test.images[: min(int(ctx.params.get("requests", 400)), len(test))]

    with tempfile.TemporaryDirectory() as tmp:
        with Observer.to_directory(Path(tmp), meta={"bench": "obs_reconcile"}) as obs:
            engine = InferenceEngine.from_config(
                ServingConfig(
                    model=trained.cdln,
                    delta=DELTA,
                    policy=MicroBatchPolicy(max_batch_size=48),
                    observer=obs,
                )
            )
            engine.classify_many(images)
            obs.flush()
            spans = read_spans(Path(tmp) / "trace.jsonl")
    snap = engine.metrics.snapshot()
    trace = fold_spans(spans)
    count = trace.spans
    # Bit-for-bit, same division as the snapshot -- `==`, not approx.
    exact = count == snap.requests and trace.mean_ops == snap.mean_ops
    table = AsciiTable(["quantity", "value"], title="Span/metrics reconciliation")
    table.add_row(["requests (metrics)", snap.requests])
    table.add_row(["spans (trace)", count])
    table.add_row(["mean OPS (metrics)", repr(snap.mean_ops)])
    table.add_row(["mean OPS (spans)", repr(trace.mean_ops)])
    table.add_row(["bit-exact", str(exact)])
    return BenchResult(
        metrics={
            "reconcile_exact": float(exact),
            "span_count_matches": float(count == snap.requests),
            "mean_ops": snap.mean_ops,
        },
        units=float(len(images)),
        text=table.render(),
        payload={"exact": exact, "spans": count, "requests": snap.requests},
    )


@bench_obs_reconcile.check
def _check_obs_reconcile(res: BenchResult) -> None:
    assert res.payload["spans"] == res.payload["requests"]
    assert res.payload["exact"] is True
