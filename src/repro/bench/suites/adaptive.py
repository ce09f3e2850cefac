"""Adaptive-serving benchmarks: drift response vs scheduled recalibration.

The adaptive PR's claims, measured and checked:

* on a sudden shift, the detector fires within a few batches, the
  table retarget lands, and the post-shift mean-OPS budget error --
  with calibration overhead accounted fairly on both sides -- is at or
  below the scheduled-recalibration baseline, with zero hard-cap
  violations,
* on an all-clean stream the detector stays quiet (false-trigger rate
  zero), so adaptation is free when nothing is happening,
* on a shift to a regime the table has never seen, live learning holds
  the budget where the frozen table served open loop misses it
  several-fold, and the same table with cost feedback also holds it
  (re-fires onto the regime already installed keep the feedback).

Wall-clock quantities stay informational; the model-level quantities
(detection latency, budget errors, trigger counts, cap violations) gate
with bands.
"""

from __future__ import annotations

import numpy as np

from repro.bench.registry import BenchContext, BenchResult, Tolerance, benchmark
from repro.experiments.common import get_datasets, get_trained
from repro.scenarios.drift import DriftSchedule
from repro.scenarios.evaluate import budgeted_drift_replay
from repro.scenarios.spec import Scenario

GROUP = "adaptive"
DELTA = 0.6


def _detection_latency(result, shift_at: int) -> float:
    """Batches between shift start and the first phase served in a
    non-reference regime (stream length when never detected)."""
    for phase in result.phases:
        if phase.regime is not None and phase.regime != result.phases[0].regime:
            return float(phase.batch_index - shift_at)
    return float(len(result.phases) - shift_at)


@benchmark(
    "adaptive_drift_response",
    group=GROUP,
    title="Adaptive serving -- sudden-shift response vs scheduled recalibration",
    rounds=2,
    tiers={
        "tiny": {"num_batches": 9, "batch_size": 32},
        "small": {"num_batches": 12, "batch_size": 48},
        "full": {"num_batches": 16, "batch_size": 64},
    },
    tolerances={
        "budget_violations": Tolerance(),
        "retargets": Tolerance(abs=1),
        "detection_latency_batches": Tolerance(abs=2),
        "adaptive_error": Tolerance(abs=0.10),
        "scheduled_error": Tolerance(abs=0.75),
        "adaptive_error_no_overhead": Tolerance(abs=0.10),
        "scheduled_error_no_overhead": Tolerance(abs=0.10),
        "overhead_ratio": Tolerance(abs=0.10),
    },
)
def bench_drift_response(ctx: BenchContext) -> BenchResult:
    """One sudden shift, served twice: scheduled recalibration vs adaptive
    table retargeting, same stream, same budgets."""
    trained = get_trained("mnist_3c", ctx.scale, ctx.seed, attach="all")
    _, test = get_datasets(ctx.scale, ctx.seed)
    num_batches = int(ctx.params.get("num_batches", 9))
    batch_size = int(ctx.params.get("batch_size", 32))
    shift_at = num_batches // 3
    scenario = Scenario(
        name="gaussian_noise@1", corruptions=(("gaussian_noise", 1.0),)
    )
    args = dict(
        batch_size=batch_size,
        num_batches=num_batches,
        rng=ctx.seed,
        delta=DELTA,
    )
    schedule = DriftSchedule.sudden(shift_at)
    scheduled = budgeted_drift_replay(
        trained.cdln,
        test,
        scenario,
        schedule,
        recalibrate_every=max(2, num_batches // 4),
        **args,
    )
    adaptive = budgeted_drift_replay(
        trained.cdln, test, scenario, schedule, adaptive=True, **args
    )
    requests = float(num_batches * batch_size)
    text = "\n\n".join(
        [
            "Scheduled recalibration:\n" + scheduled.render(),
            "Adaptive retargeting:\n" + adaptive.render(),
        ]
    )
    return BenchResult(
        metrics={
            "budget_violations": float(
                scheduled.budget_violations + adaptive.budget_violations
            ),
            "retargets": float(adaptive.retargets),
            "detection_latency_batches": _detection_latency(adaptive, shift_at),
            "adaptive_error": adaptive.post_shift_budget_error(),
            "scheduled_error": scheduled.post_shift_budget_error(),
            "adaptive_error_no_overhead": adaptive.post_shift_budget_error(
                include_overhead=False
            ),
            "scheduled_error_no_overhead": scheduled.post_shift_budget_error(
                include_overhead=False
            ),
            # Online control-plane OPS per served request, as a fraction of
            # the soft target (scheduled pays scoring passes; adaptive 0).
            "overhead_ratio": (
                (scheduled.total_overhead_ops - adaptive.total_overhead_ops)
                / requests
                / scheduled.target_mean_ops
            ),
        },
        units=2 * requests,
        text=text,
        payload={
            "scheduled": scheduled,
            "adaptive": adaptive,
            "shift_at": shift_at,
        },
    )


@bench_drift_response.check
def _check_drift_response(res: BenchResult) -> None:
    scheduled = res.payload["scheduled"]
    adaptive = res.payload["adaptive"]
    # Hard caps are structural on both paths: zero violations, ever.
    assert scheduled.hard_cap_held and adaptive.hard_cap_held
    # The acceptance story: with overhead accounted fairly, adaptive holds
    # the budget at or below the scheduled baseline...
    assert adaptive.post_shift_budget_error() <= scheduled.post_shift_budget_error()
    # ...by retargeting (at least once) instead of paying scoring passes.
    assert adaptive.retargets >= 1
    assert adaptive.total_overhead_ops == 0.0
    assert scheduled.total_overhead_ops > 0.0
    # The detector caught the shift before the stream ended.
    assert _detection_latency(adaptive, res.payload["shift_at"]) < len(
        adaptive.phases
    ) - res.payload["shift_at"]


@benchmark(
    "adaptive_false_triggers",
    group=GROUP,
    title="Adaptive serving -- false-trigger rate on clean streams",
    rounds=2,
    tiers={
        "tiny": {"num_batches": 10, "batch_size": 32, "streams": 3},
        "small": {"num_batches": 12, "batch_size": 48, "streams": 4},
        "full": {"num_batches": 16, "batch_size": 64, "streams": 5},
    },
    tolerances={
        "false_triggers": Tolerance(),
        "max_drift_score": Tolerance(abs=0.10),
        "mean_drift_score": Tolerance(abs=0.06),
    },
)
def bench_false_triggers(ctx: BenchContext) -> BenchResult:
    """Several independently seeded all-clean streams served adaptively:
    the detector must not fire, and its score must sit well under the
    threshold."""
    trained = get_trained("mnist_3c", ctx.scale, ctx.seed, attach="all")
    _, test = get_datasets(ctx.scale, ctx.seed)
    num_batches = int(ctx.params.get("num_batches", 10))
    batch_size = int(ctx.params.get("batch_size", 32))
    streams = int(ctx.params.get("streams", 3))
    clean = Scenario(name="clean")
    results = [
        budgeted_drift_replay(
            trained.cdln,
            test,
            clean,
            # The schedule never reaches its shift: an all-clean stream.
            DriftSchedule.sudden(num_batches + 1),
            batch_size=batch_size,
            num_batches=num_batches,
            rng=ctx.seed + i,
            delta=DELTA,
            adaptive=True,
        )
        for i in range(streams)
    ]
    scores = [
        p.drift_score
        for r in results
        for p in r.phases
        if p.drift_score is not None
    ]
    triggers = sum(r.retargets for r in results)
    text = (
        f"{streams} clean stream(s) x {num_batches} batches: "
        f"{triggers} retarget(s), drift score max {max(scores):.3f} / "
        f"mean {float(np.mean(scores)):.3f} (threshold 0.25)"
    )
    return BenchResult(
        metrics={
            "false_triggers": float(triggers),
            "max_drift_score": float(max(scores)),
            "mean_drift_score": float(np.mean(scores)),
        },
        units=float(streams * num_batches * batch_size),
        text=text,
        payload={"results": results, "scores": scores},
    )


@bench_false_triggers.check
def _check_false_triggers(res: BenchResult) -> None:
    # Quiet on clean traffic: no retargets, scores clear of the threshold.
    assert res.metrics["false_triggers"] == 0.0
    assert res.metrics["max_drift_score"] < 0.25
    for result in res.payload["results"]:
        assert result.hard_cap_held


@benchmark(
    "adaptive_unknown_regime",
    group=GROUP,
    title="Adaptive serving -- unknown-regime learning vs frozen table vs scheduled",
    rounds=2,
    tiers={
        "tiny": {"num_batches": 60, "batch_size": 32},
        "small": {"num_batches": 60, "batch_size": 48},
        "full": {"num_batches": 72, "batch_size": 64},
    },
    tolerances={
        "budget_violations": Tolerance(),
        "learning_error": Tolerance(abs=0.08),
        "frozen_error": Tolerance(abs=0.10),
        "feedback_error": Tolerance(abs=0.08),
        "scheduled_error": Tolerance(abs=0.75),
        "frozen_to_learning_ratio": Tolerance(rel=0.75),
        "learned_regimes": Tolerance(),
        "overhead_per_request_ratio": Tolerance(abs=0.05),
    },
)
def bench_unknown_regime(ctx: BenchContext) -> BenchResult:
    """A sudden shift to a regime the operating table has never seen
    (the offline table only knows clean traffic), served four ways: live
    mini-calibration, the frozen table open loop (cost feedback off), the
    frozen table with cost feedback, scheduled recalibration."""
    trained = get_trained("mnist_3c", ctx.scale, ctx.seed, attach="all")
    _, test = get_datasets(ctx.scale, ctx.seed)
    num_batches = int(ctx.params.get("num_batches", 60))
    batch_size = int(ctx.params.get("batch_size", 32))
    shift_at = max(2, num_batches // 10)
    scenario = Scenario(
        name="gaussian_noise@1", corruptions=(("gaussian_noise", 1.0),)
    )
    clean_only = [Scenario(name="clean", seed=ctx.seed)]
    schedule = DriftSchedule.sudden(shift_at)
    args = dict(
        batch_size=batch_size,
        num_batches=num_batches,
        rng=ctx.seed,
        delta=DELTA,
    )
    learning = budgeted_drift_replay(
        trained.cdln,
        test,
        scenario,
        schedule,
        learning=True,
        table_scenarios=clean_only,
        learn_samples=32,
        unknown_distance=0.5,
        **args,
    )
    frozen = budgeted_drift_replay(
        trained.cdln,
        test,
        scenario,
        schedule,
        adaptive=True,
        table_scenarios=clean_only,
        controller_kwargs={"feedback_smoothing": 0.0},
        **args,
    )
    feedback = budgeted_drift_replay(
        trained.cdln,
        test,
        scenario,
        schedule,
        adaptive=True,
        table_scenarios=clean_only,
        **args,
    )
    scheduled = budgeted_drift_replay(
        trained.cdln,
        test,
        scenario,
        schedule,
        recalibrate_every=max(2, num_batches // 4),
        **args,
    )
    requests = float(num_batches * batch_size)
    text = "\n\n".join(
        [
            "Learning (mini-calibration past the match cutoff):\n"
            + learning.render(),
            "Frozen clean-only table, feedback off:\n" + frozen.render(),
            "Frozen clean-only table with feedback:\n" + feedback.render(),
            "Scheduled recalibration:\n" + scheduled.render(),
        ]
    )
    return BenchResult(
        metrics={
            "budget_violations": float(
                learning.budget_violations
                + frozen.budget_violations
                + feedback.budget_violations
                + scheduled.budget_violations
            ),
            "learning_error": learning.post_shift_budget_error(),
            "frozen_error": frozen.post_shift_budget_error(),
            "feedback_error": feedback.post_shift_budget_error(),
            "scheduled_error": scheduled.post_shift_budget_error(),
            "frozen_to_learning_ratio": (
                frozen.post_shift_budget_error()
                / max(learning.post_shift_budget_error(), 1e-9)
            ),
            "learned_regimes": float(learning.learned_regimes),
            # The one-off mini-calibration cost per served request, as a
            # fraction of the soft target -- the amortized learning bill.
            "overhead_per_request_ratio": (
                learning.total_overhead_ops
                / requests
                / learning.target_mean_ops
            ),
        },
        units=4 * requests,
        text=text,
        payload={
            "learning": learning,
            "frozen": frozen,
            "feedback": feedback,
            "scheduled": scheduled,
        },
    )


@bench_unknown_regime.check
def _check_unknown_regime(res: BenchResult) -> None:
    learning = res.payload["learning"]
    frozen = res.payload["frozen"]
    feedback = res.payload["feedback"]
    scheduled = res.payload["scheduled"]
    assert learning.hard_cap_held and frozen.hard_cap_held
    assert feedback.hard_cap_held and scheduled.hard_cap_held
    # The acceptance story: live learning holds the post-shift budget...
    assert learning.post_shift_budget_error() <= 0.15
    # ...where the frozen table served open loop is >= 3x worse.
    assert (
        frozen.post_shift_budget_error()
        >= 3.0 * learning.post_shift_budget_error()
    )
    # EWMA feedback alone absorbs this shift too: the detector keeps
    # re-firing onto the clean regime, and those no-op retargets must not
    # discard the folded cost ratio.
    assert feedback.post_shift_budget_error() <= 0.15
    # Exactly one regime was fitted online, its scoring pass charged to
    # overhead (and therefore visible in the fair error), never to the
    # served mean.
    assert learning.learned_regimes == 1
    assert learning.total_overhead_ops > 0.0
    assert frozen.total_overhead_ops == 0.0
    assert learning.post_shift_budget_error(
        include_overhead=False
    ) <= learning.post_shift_budget_error()


#: Detector settings the gradual-ramp bench pins, tuned under the bench
#: compute policy (float32): a wide smoothing window so tiny-batch PSI
#: noise cannot flap the level signal, and a slope the ramps sustain but
#: stationary clean noise cannot -- counted only while the score sits
#: above the elevation floor ("elevated and still climbing").
RATE_DETECTOR_KWARGS = {
    "window": 8,
    "rate_threshold": 0.005,
    "rate_window": 6,
    "rate_patience": 3,
    "rate_floor_fraction": 0.5,
}


@benchmark(
    "adaptive_gradual_ramp",
    group=GROUP,
    title="Adaptive serving -- drift-rate trigger on slow ramps",
    rounds=2,
    tiers={
        "tiny": {"num_batches": 40, "batch_size": 64},
        "small": {"num_batches": 40, "batch_size": 64},
        "full": {"num_batches": 48, "batch_size": 64},
    },
    tolerances={
        "budget_violations": Tolerance(),
        "rate_first_ramps": Tolerance(),
        "level_only_retargets": Tolerance(),
        "false_triggers": Tolerance(),
        "mean_detection_batches": Tolerance(abs=8),
    },
)
def bench_gradual_ramp(ctx: BenchContext) -> BenchResult:
    """Slow ramps the level detector never catches, three slopes, plus a
    level-only control arm and clean streams: the drift-rate signal must
    fire on every ramp and stay quiet otherwise."""
    trained = get_trained("mnist_3c", ctx.scale, ctx.seed, attach="all")
    _, test = get_datasets(ctx.scale, ctx.seed)
    num_batches = int(ctx.params.get("num_batches", 40))
    batch_size = int(ctx.params.get("batch_size", 32))
    scenario = Scenario(
        name="gaussian_noise@1", corruptions=(("gaussian_noise", 1.0),)
    )
    ramp_start = 4
    spans = (68, 76, 84)  # ramp lengths: mix still ~<0.5 at stream end
    args = dict(
        batch_size=batch_size,
        num_batches=num_batches,
        delta=DELTA,
        adaptive=True,
    )
    ramps = [
        budgeted_drift_replay(
            trained.cdln,
            test,
            scenario,
            DriftSchedule.gradual(ramp_start, ramp_start + span),
            rng=ctx.seed,
            detector_kwargs=RATE_DETECTOR_KWARGS,
            **args,
        )
        for span in spans
    ]
    # Control arm: the same slowest ramp, same smoothing window, rate
    # signal disabled -- the level detector alone must sleep through it.
    level_only = budgeted_drift_replay(
        trained.cdln,
        test,
        scenario,
        DriftSchedule.gradual(ramp_start, ramp_start + spans[-1]),
        rng=ctx.seed,
        detector_kwargs={"window": RATE_DETECTOR_KWARGS["window"]},
        **args,
    )
    clean = [
        budgeted_drift_replay(
            trained.cdln,
            test,
            scenario,
            DriftSchedule.sudden(num_batches + 1),
            rng=ctx.seed + 100 + i,
            detector_kwargs=RATE_DETECTOR_KWARGS,
            **args,
        )
        for i in range(3)
    ]
    rate_first = sum(
        1
        for r in ramps
        if r.retarget_triggers and r.retarget_triggers[0] == "rate"
    )
    detections = [
        float(r.retarget_observations[0])
        for r in ramps
        if r.retarget_observations
    ]
    text = (
        f"{len(ramps)} ramp(s) x {num_batches} batches: "
        f"{rate_first}/{len(ramps)} rate-triggered, first detection at "
        f"mean batch {float(np.mean(detections)):.1f}; level-only control "
        f"{level_only.retargets} retarget(s); "
        f"{sum(r.retargets for r in clean)} false trigger(s) on "
        f"{len(clean)} clean stream(s)"
    )
    return BenchResult(
        metrics={
            "budget_violations": float(
                sum(r.budget_violations for r in ramps + clean)
                + level_only.budget_violations
            ),
            "rate_first_ramps": float(rate_first),
            "level_only_retargets": float(level_only.retargets),
            "false_triggers": float(sum(r.retargets for r in clean)),
            "mean_detection_batches": float(np.mean(detections)),
        },
        units=float((len(ramps) + len(clean) + 1) * num_batches * batch_size),
        text=text,
        payload={"ramps": ramps, "level_only": level_only, "clean": clean},
    )


@bench_gradual_ramp.check
def _check_gradual_ramp(res: BenchResult) -> None:
    ramps = res.payload["ramps"]
    level_only = res.payload["level_only"]
    clean = res.payload["clean"]
    for r in ramps + clean + [level_only]:
        assert r.hard_cap_held
    # Every ramp is caught, and by the rate signal, not the level one.
    assert all(
        r.retarget_triggers and r.retarget_triggers[0] == "rate"
        for r in ramps
    )
    # The level detector alone sleeps through the slowest ramp...
    assert level_only.retargets == 0
    # ...and the rate signal adds zero false triggers on clean streams.
    assert sum(r.retargets for r in clean) == 0
