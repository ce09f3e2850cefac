"""Robustness under corruption & drift (beyond the paper's clean MNIST).

The paper's efficiency claim is conditional on "most inputs are easy";
this experiment measures what happens when they are not: the default
scenario suite (clean + every corruption x severity + class skew +
composite) evaluated through the score cache, plus a sudden-shift drift
replay through the serving engine under a soft mean-OPS target and a
hard per-request cap -- served twice, head to head: once under the
scheduled ``recalibrate_every`` policy, once with adaptive
operating-table retargeting (:mod:`repro.serving.adaptive`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import Scale, get_datasets, get_trained
from repro.scenarios.drift import DriftSchedule
from repro.scenarios.evaluate import (
    DriftReplayResult,
    RobustnessReport,
    budgeted_drift_replay,
    evaluate_suite,
)
from repro.scenarios.suite import default_suite

DELTA = 0.6
DRIFT_BATCHES = 12
DRIFT_BATCH_SIZE = 32


@dataclass(frozen=True)
class ScenarioRobustnessResult:
    """The suite report plus both serving drift replays.

    ``drift`` is the scheduled-recalibration replay, ``adaptive_drift``
    the same stream served with detector-driven table retargeting.
    """

    report: RobustnessReport
    drift: DriftReplayResult
    adaptive_drift: DriftReplayResult

    def comparison(self) -> str:
        """One-paragraph head-to-head of the two drift policies."""
        lines = ["Scheduled recalibration vs adaptive retargeting (post-shift):"]
        for name, result in (
            ("scheduled", self.drift),
            ("adaptive", self.adaptive_drift),
        ):
            lines.append(
                f"  {name:>9}: budget error "
                f"{result.post_shift_budget_error() * 100:.1f}% incl overhead "
                f"({result.post_shift_budget_error(include_overhead=False) * 100:.1f}% excl), "
                f"{result.recalibrations} recalibration(s), "
                f"{result.retargets} retarget(s), "
                f"overhead {result.total_overhead_ops:g} OPS"
            )
        return "\n".join(lines)

    def render(self) -> str:
        return "\n\n".join(
            [
                self.report.render(),
                "Drift replay -- scheduled recalibration:\n" + self.drift.render(),
                "Drift replay -- adaptive retargeting:\n"
                + self.adaptive_drift.render(),
                self.comparison(),
            ]
        )


def run(scale: Scale | None = None, seed: int = 0) -> ScenarioRobustnessResult:
    scale = scale or Scale.small()
    _train, test = get_datasets(scale, seed)
    trained = get_trained("mnist_3c", scale, seed)
    suite = default_suite()
    report = evaluate_suite(trained.cdln, test, suite, delta=DELTA)

    # The drift replay serves the all-taps cascade: gain admission can leave
    # the tiny model with a single linear stage, too shallow for a depth cap
    # and a soft delta target to both act.
    cdln = get_trained("mnist_3c", scale, seed, attach="all").cdln
    replay_args = dict(
        batch_size=DRIFT_BATCH_SIZE,
        num_batches=DRIFT_BATCHES,
        rng=seed,
        delta=DELTA,
    )
    scenario = suite.get("gaussian_noise@1")
    schedule = DriftSchedule.sudden(DRIFT_BATCHES // 3)
    drift = budgeted_drift_replay(
        cdln,
        test,
        scenario,
        schedule,
        recalibrate_every=max(2, DRIFT_BATCHES // 4),
        **replay_args,
    )
    adaptive_drift = budgeted_drift_replay(
        cdln, test, scenario, schedule, adaptive=True, **replay_args
    )
    return ScenarioRobustnessResult(
        report=report, drift=drift, adaptive_drift=adaptive_drift
    )
