"""Scenario evaluation: robustness reports and serving drift replays.

Two measurement paths, matching the two ways the cascade is consumed:

* **Offline robustness** -- :func:`evaluate_suite` realizes every scenario,
  scores the backbone once per scenario through a
  :class:`~repro.cdl.score_cache.StageScoreCache` (any δ grid then replays
  for free, exactly), and aggregates accuracy, exit-depth histogram, OPS,
  energy and confidence-calibration error into a
  :class:`RobustnessReport`.
* **Online drift** -- :func:`replay_drift` pushes a
  :class:`~repro.scenarios.drift.DriftStream` through a real
  :class:`~repro.serving.engine.InferenceEngine` with a budget-aware
  :class:`~repro.serving.controller.DeltaController`, recording per-batch
  cost/accuracy/δ so budget adherence and recalibration under shift are
  observable (and the hard per-request cap checkable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cdl.network import CDLN
from repro.cdl.score_cache import StageScoreCache
from repro.cdl.statistics import evaluate_cached
from repro.data.dataset import DigitDataset
from repro.energy.technology import TECHNOLOGY_45NM, TechnologyModel
from repro.errors import ConfigurationError
from repro.scenarios.drift import DriftStream
from repro.scenarios.spec import Scenario
from repro.scenarios.suite import ScenarioSuite
from repro.utils.tables import AsciiTable
from repro.utils.validation import check_positive_int


def expected_calibration_error(
    confidences: np.ndarray, correct: np.ndarray, *, num_bins: int = 10
) -> float:
    """Expected calibration error of exit confidences against correctness.

    Standard equal-width binning over [0, 1]: the weighted mean absolute
    gap between each bin's mean confidence and its empirical accuracy.
    Empty inputs yield 0 (a well-formed degenerate answer).
    """
    check_positive_int(num_bins, "num_bins")
    confidences = np.asarray(confidences, dtype=np.float64).ravel()
    correct = np.asarray(correct, dtype=bool).ravel()
    if confidences.shape != correct.shape:
        raise ConfigurationError(
            f"confidences {confidences.shape} and correctness {correct.shape} disagree"
        )
    if confidences.size == 0:
        return 0.0
    bins = np.clip(
        (confidences * num_bins).astype(np.int64), 0, num_bins - 1
    )
    error = 0.0
    for b in range(num_bins):
        mask = bins == b
        if not mask.any():
            continue
        gap = abs(confidences[mask].mean() - correct[mask].mean())
        error += (mask.sum() / confidences.size) * gap
    return float(error)


@dataclass(frozen=True)
class ScenarioResult:
    """Everything measured for one scenario at one δ.

    Units: ``mean_ops`` in scalar OPS per input, ``normalized_ops``
    relative to the unconditional baseline's OPS, ``mean_energy_pj`` in
    pJ, ``accuracy`` / ``exit_fractions`` / ``calibration_error`` as
    fractions in [0, 1], ``mean_exit_stage`` as a stage index (0 is the
    first linear stage).  ``delta`` is the runtime threshold the replay
    used (``None`` = the activation module's default).
    """

    scenario: Scenario
    delta: float | None
    num_samples: int
    accuracy: float
    mean_ops: float
    normalized_ops: float
    mean_energy_pj: float
    exit_fractions: np.ndarray
    mean_exit_stage: float
    calibration_error: float
    stage_names: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.name,
            "corruption": self.scenario.primary_corruption,
            "severity": self.scenario.severity,
            "delta": self.delta,
            "num_samples": self.num_samples,
            "accuracy": self.accuracy,
            "mean_ops": self.mean_ops,
            "normalized_ops": self.normalized_ops,
            "mean_energy_pj": self.mean_energy_pj,
            "exit_fractions": [float(f) for f in self.exit_fractions],
            "mean_exit_stage": self.mean_exit_stage,
            "calibration_error": self.calibration_error,
        }


@dataclass(frozen=True)
class RobustnessReport:
    """A suite's worth of :class:`ScenarioResult` s, with the aggregates
    the acceptance story cares about: accuracy-vs-severity and exit-depth
    shift under corruption."""

    results: tuple[ScenarioResult, ...]
    suite_name: str = "suite"

    def __post_init__(self) -> None:
        if not self.results:
            raise ConfigurationError("a robustness report needs at least one result")

    # -- lookups ---------------------------------------------------------------
    def for_scenario(self, name: str) -> ScenarioResult:
        for result in self.results:
            if result.scenario.name == name:
                return result
        raise ConfigurationError(
            f"no result for scenario {name!r}; have "
            f"{[r.scenario.name for r in self.results]}"
        )

    @property
    def clean(self) -> ScenarioResult | None:
        """The clean reference result, when the suite includes one."""
        for result in self.results:
            if result.scenario.is_clean:
                return result
        return None

    def by_corruption(self) -> dict[str, list[ScenarioResult]]:
        """Single-corruption results grouped by name, sorted by severity."""
        groups: dict[str, list[ScenarioResult]] = {}
        for result in self.results:
            if len(result.scenario.corruptions) == 1:
                groups.setdefault(result.scenario.primary_corruption, []).append(result)
        for group in groups.values():
            group.sort(key=lambda r: r.scenario.severity)
        return groups

    def severity_profile(self) -> list[tuple[float, float, float, float]]:
        """``(severity, mean accuracy, mean exit stage, mean normalized OPS)``
        aggregated over every single-corruption scenario, ascending severity
        (severity 0 is the clean result when present)."""
        buckets: dict[float, list[ScenarioResult]] = {}
        if self.clean is not None:
            buckets[0.0] = [self.clean]
        for group in self.by_corruption().values():
            for result in group:
                buckets.setdefault(result.scenario.severity, []).append(result)
        profile = []
        for severity in sorted(buckets):
            rs = buckets[severity]
            profile.append(
                (
                    severity,
                    float(np.mean([r.accuracy for r in rs])),
                    float(np.mean([r.mean_exit_stage for r in rs])),
                    float(np.mean([r.normalized_ops for r in rs])),
                )
            )
        return profile

    def accuracy_degrades_monotonically(self, slack: float = 0.0) -> bool:
        """True when aggregate accuracy is non-increasing in severity."""
        profile = self.severity_profile()
        return all(
            profile[i + 1][1] <= profile[i][1] + slack
            for i in range(len(profile) - 1)
        )

    def exit_depth_shift(self) -> float:
        """Mean exit stage at peak severity minus the clean mean exit stage."""
        profile = self.severity_profile()
        if len(profile) < 2:
            return 0.0
        return profile[-1][2] - profile[0][2]

    # -- rendering -------------------------------------------------------------
    def render(self) -> str:
        table = AsciiTable(
            [
                "scenario",
                "severity",
                "accuracy (%)",
                "mean OPS",
                "norm OPS",
                "mean pJ",
                "mean exit",
                "ECE",
            ],
            title=f"Robustness report -- {self.suite_name}",
        )
        for r in self.results:
            table.add_row(
                [
                    r.scenario.name,
                    f"{r.scenario.severity:g}",
                    round(r.accuracy * 100, 2),
                    int(round(r.mean_ops)),
                    round(r.normalized_ops, 3),
                    int(round(r.mean_energy_pj)),
                    round(r.mean_exit_stage, 2),
                    round(r.calibration_error, 3),
                ]
            )
        profile = AsciiTable(
            ["severity", "mean accuracy (%)", "mean exit stage", "mean norm OPS"],
            title="Aggregate severity profile (single-corruption scenarios)",
        )
        for severity, accuracy, exit_stage, ops in self.severity_profile():
            profile.add_row(
                [f"{severity:g}", round(accuracy * 100, 2), round(exit_stage, 2),
                 round(ops, 3)]
            )
        verdicts = [
            "accuracy degrades monotonically with severity: "
            + ("yes" if self.accuracy_degrades_monotonically() else "NO"),
            "exit-depth shift under peak corruption: "
            f"{self.exit_depth_shift():+.2f} stages",
        ]
        return "\n".join([table.render(), "", profile.render(), *verdicts])

    def to_dict(self) -> dict:
        return {
            "suite": self.suite_name,
            "results": [r.to_dict() for r in self.results],
            "severity_profile": [
                {
                    "severity": s,
                    "accuracy": a,
                    "mean_exit_stage": e,
                    "normalized_ops": o,
                }
                for s, a, e, o in self.severity_profile()
            ],
            "monotonic_degradation": self.accuracy_degrades_monotonically(),
            "exit_depth_shift": self.exit_depth_shift(),
        }


def realize_and_score(
    cdln: CDLN,
    base: DigitDataset,
    scenario: Scenario,
    *,
    batch_size: int = 256,
) -> tuple[DigitDataset, StageScoreCache]:
    """Realize ``scenario`` over ``base`` and score the backbone once.

    Returns the realized dataset and its
    :class:`~repro.cdl.score_cache.StageScoreCache` -- the expensive half
    of every scenario evaluation, split out so consumers that need both
    the per-δ results *and* the raw cache (operating-table construction,
    drift-signature fingerprinting) pay the backbone exactly once: pass
    the pair back via ``evaluate_scenario(..., prepared=...)``.
    """
    data = scenario.realize(base)
    return data, StageScoreCache.build(cdln, data.images, batch_size=batch_size)


def evaluate_scenario(
    cdln: CDLN,
    base: DigitDataset,
    scenario: Scenario,
    *,
    deltas: Sequence[float | None] | float | None = None,
    technology: TechnologyModel = TECHNOLOGY_45NM,
    batch_size: int = 256,
    prepared: tuple[DigitDataset, StageScoreCache] | None = None,
) -> list[ScenarioResult]:
    """Evaluate one scenario; one result per requested δ.

    The backbone is scored exactly once (one
    :class:`~repro.cdl.score_cache.StageScoreCache` build over the realized
    images); every δ replays from the cache, bit-exact with a live run.

    Parameters
    ----------
    deltas:
        One δ, a sequence of δs, or ``None`` for the activation module's
        default; each yields one :class:`ScenarioResult`.
    prepared:
        Optional ``(realized dataset, cache)`` pair from
        :func:`realize_and_score`, to share one scoring pass with other
        consumers of the same scenario.
    """
    if deltas is None or isinstance(deltas, (int, float)):
        deltas = [deltas]
    if prepared is None:
        prepared = realize_and_score(cdln, base, scenario, batch_size=batch_size)
    data, cache = prepared
    results = []
    for delta in deltas:
        ev = evaluate_cached(cache, data, delta=delta, technology=technology)
        exits = ev.result.exit_stages
        results.append(
            ScenarioResult(
                scenario=scenario,
                delta=delta,
                num_samples=len(data),
                accuracy=ev.accuracy,
                mean_ops=ev.ops.average_ops,
                normalized_ops=ev.normalized_ops,
                mean_energy_pj=ev.energy.average_pj,
                exit_fractions=ev.stage_exit_fractions(),
                mean_exit_stage=float(exits.mean()) if exits.size else 0.0,
                calibration_error=expected_calibration_error(
                    ev.result.confidences, ev.result.labels == data.labels
                ),
                stage_names=ev.result.stage_names,
            )
        )
    return results


def evaluate_suite(
    cdln: CDLN,
    base: DigitDataset,
    suite: ScenarioSuite,
    *,
    delta: float | None = None,
    technology: TechnologyModel = TECHNOLOGY_45NM,
    batch_size: int = 256,
) -> RobustnessReport:
    """Run every scenario in ``suite`` against ``base`` at one δ."""
    results: list[ScenarioResult] = []
    for scenario in suite:
        results.extend(
            evaluate_scenario(
                cdln,
                base,
                scenario,
                deltas=[delta],
                technology=technology,
                batch_size=batch_size,
            )
        )
    return RobustnessReport(results=tuple(results), suite_name=suite.name)


# -- drift replay through the serving engine -------------------------------------


@dataclass(frozen=True)
class DriftPhaseStats:
    """Per-batch telemetry of a drift replay.

    ``mean_ops`` / ``max_ops`` cover the *served requests only*;
    ``overhead_ops`` carries the control-plane OPS spent immediately
    before this batch (initial calibration on batch 0, scheduled
    recalibration passes later -- each is a full backbone scoring pass
    over the calibration images).  Keeping the two separate is what makes
    adaptive-vs-scheduled comparisons fair: a scheduled recalibration is
    not free, and a table retarget costs nothing online.
    """

    batch_index: int
    mix_fraction: float
    accuracy: float
    mean_ops: float
    max_ops: float
    mean_exit_stage: float
    delta: float
    num_requests: int = 0
    #: OPS spent on calibration passes attributed to this batch (0 when
    #: no recalibration preceded it; retargets are free).
    overhead_ops: float = 0.0
    #: Drift-detector score after this batch (adaptive replays only).
    drift_score: float | None = None
    #: Drift-rate estimate (robust slope of the score) after this batch
    #: (adaptive replays with a rate-enabled detector only).
    drift_rate: float | None = None
    #: Operating regime the controller served this batch under
    #: (adaptive replays only).
    regime: str | None = None


@dataclass(frozen=True)
class DriftReplayResult:
    """What happened when the engine served a drifting stream.

    ``recalibrations`` counts scheduled live calibration passes,
    ``retargets`` counts adaptive table retargets; ``offline_table_ops``
    records what building the operating table cost *offline* (amortized
    across every deployment of the model, and excluded from the online
    budget accounting -- see :meth:`budget_error`).
    """

    phases: tuple[DriftPhaseStats, ...]
    target_mean_ops: float | None
    hard_ops_budget: float | None
    #: Requests whose scalar OPS exceeded the hard budget (0 by construction
    #: when the controller's depth cap works).
    budget_violations: int
    max_ops_overall: float
    final_delta: float
    recalibrations: int
    retargets: int = 0
    offline_table_ops: float = 0.0
    #: Detector signal behind each retarget, in order ("level" / "rate").
    retarget_triggers: tuple[str, ...] = ()
    #: Detector observation count at each retarget (resets on rebase, so
    #: the first entry is the batch budget the detection consumed).
    retarget_observations: tuple[int, ...] = ()

    @property
    def hard_cap_held(self) -> bool:
        return self.budget_violations == 0

    @property
    def total_overhead_ops(self) -> float:
        """Online control-plane OPS (calibration passes) across the replay."""
        return float(sum(p.overhead_ops for p in self.phases))

    def mean_ops_by_regime(self) -> tuple[float, float]:
        """Mean per-batch OPS over (clean, shifted) regimes (NaN if absent)."""
        clean = [p.mean_ops for p in self.phases if p.mix_fraction < 0.5]
        shifted = [p.mean_ops for p in self.phases if p.mix_fraction >= 0.5]
        return (
            float(np.mean(clean)) if clean else float("nan"),
            float(np.mean(shifted)) if shifted else float("nan"),
        )

    def mean_ops_overall(self, *, include_overhead: bool = False) -> float:
        """Request-weighted mean OPS, optionally amortizing calibration
        overhead over the served requests."""
        requests = sum(p.num_requests for p in self.phases)
        served = sum(p.mean_ops * p.num_requests for p in self.phases)
        if include_overhead:
            served += self.total_overhead_ops
        return served / max(requests, 1)

    def budget_error(
        self,
        *,
        phases: Sequence[DriftPhaseStats] | None = None,
        include_overhead: bool = True,
    ) -> float:
        """Relative mean-OPS error against the soft target.

        ``|mean served OPS - target| / target`` over ``phases`` (all by
        default), with each phase's calibration overhead amortized over
        its requests when ``include_overhead`` -- the fair basis for
        adaptive-vs-scheduled comparisons.  NaN without a soft target.
        """
        if self.target_mean_ops is None:
            return float("nan")
        subset = list(self.phases if phases is None else phases)
        requests = sum(p.num_requests for p in subset)
        if requests == 0:
            return float("nan")
        served = sum(p.mean_ops * p.num_requests for p in subset)
        if include_overhead:
            served += sum(p.overhead_ops for p in subset)
        mean = served / requests
        return abs(mean - self.target_mean_ops) / self.target_mean_ops

    def post_shift_budget_error(self, *, include_overhead: bool = True) -> float:
        """:meth:`budget_error` restricted to majority-shifted batches --
        how well the controller held the budget once the world changed."""
        return self.budget_error(
            phases=[p for p in self.phases if p.mix_fraction >= 0.5],
            include_overhead=include_overhead,
        )

    def render(self) -> str:
        table = AsciiTable(
            ["batch", "shifted", "accuracy (%)", "mean OPS", "max OPS", "mean exit",
             "delta"],
            title="Drift replay through the serving engine",
        )
        for p in self.phases:
            table.add_row(
                [
                    p.batch_index,
                    f"{p.mix_fraction:.2f}",
                    round(p.accuracy * 100, 1),
                    int(round(p.mean_ops)),
                    int(round(p.max_ops)),
                    round(p.mean_exit_stage, 2),
                    round(p.delta, 3),
                ]
            )
        lines = [table.render()]
        if self.hard_ops_budget is not None:
            lines.append(
                f"hard per-request cap {self.hard_ops_budget:g} OPS: "
                + (
                    "held for every request"
                    if self.hard_cap_held
                    else f"VIOLATED {self.budget_violations} time(s)"
                )
                + f" (max seen {self.max_ops_overall:g})"
            )
        if self.target_mean_ops is not None:
            clean_ops, shifted_ops = self.mean_ops_by_regime()
            lines.append(
                f"soft target {self.target_mean_ops:g} mean OPS: served "
                f"{clean_ops:g} clean / {shifted_ops:g} shifted, final "
                f"delta {self.final_delta:.3f} after {self.recalibrations} "
                f"recalibration(s) / {self.retargets} retarget(s)"
            )
        if self.total_overhead_ops > 0:
            requests = max(sum(p.num_requests for p in self.phases), 1)
            lines.append(
                f"calibration overhead: {self.total_overhead_ops:g} OPS "
                f"({self.total_overhead_ops / requests:g} per served request)"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "target_mean_ops": self.target_mean_ops,
            "hard_ops_budget": self.hard_ops_budget,
            "budget_violations": self.budget_violations,
            "max_ops_overall": self.max_ops_overall,
            "final_delta": self.final_delta,
            "recalibrations": self.recalibrations,
            "retargets": self.retargets,
            "overhead_ops": self.total_overhead_ops,
            "offline_table_ops": self.offline_table_ops,
            "retarget_triggers": list(self.retarget_triggers),
            "retarget_observations": list(self.retarget_observations),
            "phases": [
                {
                    "batch": p.batch_index,
                    "mix_fraction": p.mix_fraction,
                    "accuracy": p.accuracy,
                    "mean_ops": p.mean_ops,
                    "max_ops": p.max_ops,
                    "mean_exit_stage": p.mean_exit_stage,
                    "delta": p.delta,
                    "num_requests": p.num_requests,
                    "overhead_ops": p.overhead_ops,
                    "drift_score": p.drift_score,
                    "drift_rate": p.drift_rate,
                    "regime": p.regime,
                }
                for p in self.phases
            ],
        }


def budgeted_drift_replay(
    cdln: CDLN,
    base: DigitDataset,
    scenario: Scenario,
    schedule,
    *,
    batch_size: int = 32,
    num_batches: int = 12,
    rng: int | np.random.Generator | None = 0,
    delta: float = 0.6,
    target_fraction: float = 0.75,
    recalibrate_every: int | None = None,
    adaptive: bool = False,
    table_deltas: Sequence[float] | None = None,
    table_scenarios: Sequence[Scenario] | None = None,
    detector_kwargs: dict | None = None,
    controller_kwargs: dict | None = None,
) -> DriftReplayResult:
    """The standard budgeted replay recipe (one definition for the CLI, the
    Robustness experiment and the drift bench): soft target at
    ``target_fraction`` of the baseline cost, hard cap halfway between the
    two deepest exits (no cap on single-exit cascades), ``scenario``
    realized over ``base`` and streamed under ``schedule``.

    With ``adaptive=True`` the same recipe swaps its drift response: an
    :class:`~repro.serving.adaptive.OperatingTable` is built offline over
    the clean and shifted regimes (``table_deltas`` grid), and the engine
    retargets from it when the drift detector fires, *instead of* the
    scheduled ``recalibrate_every`` replays -- the head-to-head the
    adaptive bench suite measures.  The table's (offline, amortizable)
    build cost is recorded in
    :attr:`DriftReplayResult.offline_table_ops`.

    ``table_scenarios`` overrides which regimes are tabulated offline --
    e.g. a clean-*only* table models a deployment whose live mix was
    never characterized (the unknown-regime head-to-head).
    ``detector_kwargs`` configures the derived detector (e.g.
    ``rate_threshold`` for ramp detection) on any adaptive replay, and
    ``controller_kwargs`` the budget controller (e.g.
    ``feedback_smoothing=0.0`` serves the table open loop).
    """
    from dataclasses import replace

    from repro.serving.adaptive import DEFAULT_TABLE_GRID, OperatingTable

    costs = cdln.path_cost_table()
    totals = costs.exit_totals()
    target = target_fraction * float(costs.baseline_cost.total)
    hard = float((totals[-2] + totals[-1]) / 2) if len(totals) >= 2 else None
    stream = DriftStream.from_scenario(
        base,
        scenario,
        schedule,
        batch_size=batch_size,
        num_batches=num_batches,
        rng=rng,
    )
    table = None
    offline_ops = 0.0
    if adaptive:
        if table_scenarios is not None:
            regimes = list(table_scenarios)
        elif scenario.is_clean:
            regimes = [scenario]
        else:
            regimes = [Scenario(name="clean", seed=scenario.seed), scenario]
        table = OperatingTable.build(
            cdln,
            base,
            regimes,
            deltas=tuple(table_deltas or DEFAULT_TABLE_GRID),
            reference_delta=delta,
        )
        # One full scoring pass per regime over the base pool.
        offline_ops = len(regimes) * len(base) * float(totals[-1])
    result = replay_drift(
        cdln,
        stream,
        target_mean_ops=target,
        hard_ops_budget=hard,
        delta=delta,
        recalibrate_every=None if adaptive else recalibrate_every,
        operating_table=table,
        detector_kwargs=detector_kwargs,
        controller_kwargs=controller_kwargs,
    )
    return replace(result, offline_table_ops=offline_ops) if adaptive else result


def replay_drift(
    cdln: CDLN,
    stream: DriftStream,
    *,
    target_mean_ops: float | None = None,
    hard_ops_budget: float | None = None,
    delta: float = 0.6,
    calibration_images: np.ndarray | None = None,
    recalibrate_every: int | None = None,
    operating_table=None,
    detector=None,
    detector_kwargs: dict | None = None,
    controller_kwargs: dict | None = None,
) -> DriftReplayResult:
    """Serve a drift stream through a real engine under a budget controller.

    Parameters
    ----------
    target_mean_ops / hard_ops_budget:
        Passed to a :class:`~repro.serving.controller.DeltaController`;
        with neither, the engine serves at the fixed ``delta``.  Units:
        scalar OPS per request.
    controller_kwargs:
        Further :class:`~repro.serving.controller.DeltaController`
        arguments, e.g. ``feedback_smoothing=0.0`` to turn the cost
        feedback off.
    calibration_images:
        Pre-shift workload used for the initial calibration (defaults to
        the stream's clean pool).  Only used without an operating table
        -- the adaptive path starts from the table's reference regime
        instead and pays no online calibration at all.
    recalibrate_every:
        Recalibrate on the most recent batches every N batches, modelling
        an operator refreshing the controller as live traffic drifts; the
        feedback loop (``observe``) runs regardless.  Every pass is
        charged to the next phase's ``overhead_ops`` (one full backbone
        scoring pass per calibration image).
    operating_table:
        Optional :class:`~repro.serving.adaptive.OperatingTable`: install
        an adaptive policy that detects drift live and retargets δ from
        the table (requires ``target_mean_ops``).
    detector:
        Optional preconfigured
        :class:`~repro.serving.adaptive.DriftDetector` for the adaptive
        policy (default: derived from the table's reference regime, with
        ``detector_kwargs`` applied).
    """
    from repro.serving.adaptive import AdaptiveDeltaPolicy
    from repro.serving.batching import MicroBatchPolicy
    from repro.serving.config import ServingConfig
    from repro.serving.controller import DeltaController
    from repro.serving.engine import InferenceEngine

    if recalibrate_every is not None:
        check_positive_int(recalibrate_every, "recalibrate_every")
    if detector is not None and operating_table is None:
        raise ConfigurationError(
            "a drift detector is only used together with an operating_table"
        )
    if operating_table is not None and target_mean_ops is None:
        raise ConfigurationError(
            "adaptive replay needs target_mean_ops (the operating table "
            "is a mean-OPS curve)"
        )
    # Calibration cost accounting: scoring one image for calibration runs
    # the full backbone plus every stage head -- the deepest exit's path
    # cost.  Charged to the phase the (re)calibration happened before.
    full_pass_ops = float(cdln.path_cost_table().exit_totals()[-1])
    controller = None
    if target_mean_ops is not None or hard_ops_budget is not None:
        controller = DeltaController(
            target_mean_ops=target_mean_ops,
            hard_ops_budget=hard_ops_budget,
            delta=delta,
            **(controller_kwargs or {}),
        )
    adaptive = None
    if operating_table is not None:
        adaptive = AdaptiveDeltaPolicy(
            operating_table, detector, detector_kwargs=detector_kwargs
        )
    engine = InferenceEngine.from_config(
        ServingConfig(
            model=cdln,
            controller=controller,
            delta=None if controller is not None else delta,
            policy=MicroBatchPolicy(max_batch_size=stream.batch_size),
            adaptive=adaptive,
        )
    )
    overhead_pending = 0.0
    if (
        adaptive is None
        and controller is not None
        and controller.target_mean_ops is not None
    ):
        sample = (
            calibration_images
            if calibration_images is not None
            else stream.clean.images
        )
        engine.calibrate(sample)
        overhead_pending += sample.shape[0] * full_pass_ops
    phases: list[DriftPhaseStats] = []
    recent: list[np.ndarray] = []
    recalibrations = 0
    violations = 0
    max_ops_overall = 0.0
    for batch in stream:
        if (
            recalibrate_every is not None
            and controller is not None
            and controller.target_mean_ops is not None
            and batch.index > 0
            and batch.index % recalibrate_every == 0
            and recent
        ):
            sample = np.concatenate(recent)
            engine.calibrate(sample)
            overhead_pending += sample.shape[0] * full_pass_ops
            recalibrations += 1
        responses = engine.classify_many(batch.images)
        ops = np.array([r.ops for r in responses])
        exits = np.array([r.exit_stage for r in responses])
        labels = np.array([r.label for r in responses])
        max_ops_overall = max(max_ops_overall, float(ops.max()))
        if hard_ops_budget is not None:
            violations += int(np.sum(ops > hard_ops_budget * (1 + 1e-12)))
        phases.append(
            DriftPhaseStats(
                batch_index=batch.index,
                mix_fraction=batch.mix_fraction,
                accuracy=float(np.mean(labels == batch.labels)),
                mean_ops=float(ops.mean()),
                max_ops=float(ops.max()),
                mean_exit_stage=float(exits.mean()),
                delta=float(responses[0].delta),
                num_requests=len(responses),
                overhead_ops=overhead_pending,
                drift_score=(
                    adaptive.detector.last_score if adaptive is not None else None
                ),
                drift_rate=(
                    adaptive.detector.last_rate if adaptive is not None else None
                ),
                regime=(
                    adaptive.current_regime if adaptive is not None else None
                ),
            )
        )
        overhead_pending = 0.0
        if recalibrate_every is not None:
            # Only the scheduled path reads the recent-batch window; the
            # adaptive/fixed paths must not hold the whole stream alive.
            recent.append(batch.images)
            recent = recent[-recalibrate_every:]
    return DriftReplayResult(
        phases=tuple(phases),
        target_mean_ops=target_mean_ops,
        hard_ops_budget=hard_ops_budget,
        budget_violations=violations,
        max_ops_overall=max_ops_overall,
        final_delta=(
            controller.delta if controller is not None else float(delta)
        ),
        recalibrations=recalibrations,
        retargets=len(adaptive.events) if adaptive is not None else 0,
        retarget_triggers=(
            tuple(e.trigger for e in adaptive.events)
            if adaptive is not None
            else ()
        ),
        retarget_observations=(
            tuple(e.observation for e in adaptive.events)
            if adaptive is not None
            else ()
        ),
    )
