"""Observability tour: traced serving, a live scrape, and the trace CLI.

Serves a short workload with every telemetry sink enabled -- the
per-request span trace, the labeled metrics registry, and the lifecycle
event log -- then shows the three read paths: a Prometheus text scrape,
the span fold's OPS total (bit-exact against the engine's own metrics,
since both fold the same answers), and the ``python -m repro.obs
summary`` operator view.

Usage::

    python examples/observability_demo.py [output-dir]

Writes ``trace.jsonl``, ``events.jsonl``, ``metrics.prom`` and
``metrics.json`` under the output directory (default: a temp dir).
"""

import sys
import tempfile
from pathlib import Path

from repro import CdlTrainingConfig, InferenceEngine, make_dataset_pair, train_cdln
from repro.obs import Observer, fold_spans, read_spans
from repro.obs.cli import main as obs_cli
from repro.serving import MicroBatchPolicy, ServingConfig
from repro.utils.logging import enable_console_logging

DELTA = 0.6


def main() -> None:
    enable_console_logging(fmt="json")  # one JSON object per log line
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())

    train, test = make_dataset_pair(2000, 600, rng=0)
    trained = train_cdln(
        train, config=CdlTrainingConfig(baseline_epochs=4), rng=1
    )

    # -- serve with every sink enabled ---------------------------------------
    with Observer.to_directory(outdir, meta={"example": "observability"}) as obs:
        engine = InferenceEngine.from_config(
            ServingConfig(
                model=trained.cdln,
                delta=DELTA,
                policy=MicroBatchPolicy(max_batch_size=32),
                observer=obs,
            )
        )
        engine.classify_many(test.images)
        obs.write_prometheus(outdir / "metrics.prom")
        obs.write_metrics_json(outdir / "metrics.json")
        print(f"lifecycle events: {', '.join(obs.events.kinds())}")

    # -- the scrape ----------------------------------------------------------
    scrape = (outdir / "metrics.prom").read_text()
    print("\n-- Prometheus scrape (requests_total series) --")
    for line in scrape.splitlines():
        if line.startswith("requests_total"):
            print(line)

    # -- span-reconciled accounting: bit-exact vs the engine -----------------
    trace = fold_spans(read_spans(outdir / "trace.jsonl"))
    snap = engine.metrics.snapshot()
    assert trace.requests == snap.requests
    assert trace.mean_ops == snap.mean_ops  # ==, not approx
    print(f"\n{trace.spans} spans fold to mean OPS {trace.mean_ops:.1f} "
          f"(engine reports {snap.mean_ops:.1f}; bit-exact)")
    print(f"tail latency: p99 {snap.latency_p99_s * 1e3:.3f} ms, "
          f"p99.9 {snap.latency_p999_s * 1e3:.3f} ms, "
          f"max queue depth {snap.max_queue_depth}")

    # -- the operator view ---------------------------------------------------
    print("\n-- python -m repro.obs summary --")
    obs_cli(["summary", str(outdir / "trace.jsonl")])
    print(f"\nartifacts under {outdir}")


if __name__ == "__main__":
    main()
