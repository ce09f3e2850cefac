"""Adaptive serving tour: operating tables, drift detection, retargeting.

Builds a scenario-conditioned operating table offline, attaches it to a
registered model, then serves a stream that suddenly shifts to heavy
noise: the drift detector notices within a few batches and the
controller jumps to the shifted regime's precomputed operating point --
no online recalibration pass.  Finishes with the head-to-head recipe:
the same drifting stream served under scheduled recalibration vs
adaptive retargeting, with calibration overhead accounted on both sides.

Usage::

    python examples/adaptive_serving.py
"""

import tempfile
from pathlib import Path

from repro import CdlTrainingConfig, make_dataset_pair, train_cdln
from repro.cdl.architectures import ARCHITECTURES
from repro.scenarios import DriftSchedule, DriftStream, Scenario, budgeted_drift_replay
from repro.serving import (
    AdaptiveDeltaPolicy,
    DeltaController,
    InferenceEngine,
    ModelRegistry,
    OperatingTable,
    ServingConfig,
)

DELTA = 0.6


def main() -> None:
    train, test = make_dataset_pair(3000, 1000, rng=0)
    # Tap every pooling layer so the cascade has depth to adapt over.
    spec = ARCHITECTURES["mnist_3c"]
    trained = train_cdln(
        train,
        config=CdlTrainingConfig(
            architecture="mnist_3c", baseline_epochs=4, gain_epsilon=None
        ),
        attach_indices=spec.all_tap_indices,
        rng=1,
    )
    cdln = trained.cdln

    # -- offline: precompute the operating table -----------------------------
    scenarios = [
        Scenario(name="clean"),
        Scenario(name="noise", corruptions=(("gaussian_noise", 1.0),)),
        Scenario(name="occlusion", corruptions=(("occlusion", 0.8),)),
    ]
    table = OperatingTable.build(cdln, test, scenarios, reference_delta=DELTA)
    registry = ModelRegistry()
    with tempfile.TemporaryDirectory() as tmp:
        path = table.save(Path(tmp) / "mnist_3c.optable.json")
        print(f"built {table!r}, saved to {path}")
        # The registry reads the table from disk as it registers the
        # model, so the directory can go once this returns.
        registry.register("mnist", trained, operating_table=path)
    for name in table.regime_names:
        entry = table.entry(name)
        ops = [p.mean_ops for p in entry.points]
        print(
            f"  {name:>10}: mean OPS {min(ops):.0f}..{max(ops):.0f} over "
            f"{len(entry.points)} deltas"
        )

    # -- online: serve a shifting stream adaptively --------------------------
    baseline_ops = float(cdln.path_cost_table().baseline_cost.total)
    controller = DeltaController(target_mean_ops=0.75 * baseline_ops)
    engine = InferenceEngine.from_config(
        ServingConfig(
            registry=registry,
            model_spec="mnist",
            controller=controller,
            adaptive=AdaptiveDeltaPolicy(registry.resolve("mnist").operating_table),
        )
    )
    stream = DriftStream.from_scenario(
        test,
        scenarios[1],
        DriftSchedule.sudden(4),
        batch_size=48,
        num_batches=12,
        rng=0,
    )
    print(f"\nserving {len(stream)} drifting batches (shift at batch 4) ...")
    for batch in stream:
        engine.classify_many(batch.images)
        policy = engine.adaptive
        score = policy.detector.last_score
        print(
            f"  batch {batch.index:2d}: shifted={batch.mix_fraction:.1f} "
            f"regime={policy.current_regime:<8} delta={controller.delta:.2f} "
            f"score={'n/a' if score is None else format(score, '.3f')}"
        )
    for event in engine.adaptive.events:
        print(
            f"retargeted at observation {event.observation}: -> "
            f"{event.regime!r} (score {event.score:.3f}, delta {event.delta:.2f})"
        )
    print(engine.metrics.snapshot().render())

    # -- head to head: scheduled recalibration vs adaptive -------------------
    print("\nscheduled recalibration vs adaptive retargeting:")
    for label, kwargs in (
        ("scheduled", dict(recalibrate_every=3)),
        ("adaptive", dict(adaptive=True)),
    ):
        result = budgeted_drift_replay(
            cdln,
            test,
            scenarios[1],
            DriftSchedule.sudden(4),
            batch_size=48,
            num_batches=12,
            rng=0,
            delta=DELTA,
            **kwargs,
        )
        print(
            f"  {label:>9}: post-shift budget error "
            f"{result.post_shift_budget_error() * 100:5.1f}% incl overhead / "
            f"{result.post_shift_budget_error(include_overhead=False) * 100:5.1f}% excl, "
            f"overhead {result.total_overhead_ops:.3g} OPS, "
            f"cap held: {result.hard_cap_held}"
        )


if __name__ == "__main__":
    main()
