"""Budget-aware runtime control of the confidence threshold delta.

The paper's Section V.E observes that delta "can be easily adjusted during
runtime to achieve the best tradeoff between accuracy and efficiency" --
but it never says *how* to pick it.  In a serving context the natural
formulation is a budget: "spend at most B ops (or pJ) per request on
average", or "never spend more than B on any single request".

:class:`DeltaController` implements both:

* **Soft (mean) budget** -- a calibration pass computes every stage's
  confidence scores once for a sample workload, then *simulates* the
  cascade's exit pattern for a whole grid of deltas in pure numpy (stage
  decisions are per-input, so the simulation is exact, not approximate).
  The resulting delta -> mean-ops curve is inverted to pick the operating
  point closest to the budget, and a multiplicative feedback term keeps
  the choice honest when live traffic drifts from the calibration sample.
* **Hard (per-request) budget** -- translated into a depth cap: the
  deepest stage whose cumulative exit cost fits the budget.  The executor
  force-terminates every input there, so the guarantee holds per request
  by construction, not statistically.

Costs close the loop with :mod:`repro.ops.counting` via the model's
:class:`~repro.ops.profile.PathCostTable`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.obs.observer import NULL_OBSERVER
from repro.ops.profile import PathCostTable
from repro.utils.logging import get_logger

_log = get_logger("serving.controller")

_DEFAULT_GRID = tuple(np.round(np.linspace(0.02, 0.98, 49), 4))


@dataclass(frozen=True)
class ShedPolicy:
    """Backpressure: when to shed a micro-batch to a stage-0 early exit.

    Load shedding here never *drops* a request -- a shed batch is served
    with the cascade force-terminated at stage 0 (the cheapest exit that
    still produces a label), so overload trades answer quality for
    bounded queueing delay instead of trading availability.  The engine
    consults :meth:`should_shed` once per dispatched micro-batch with the
    queue depth at dispatch and (when it has a service-time estimate) the
    predicted queue wait.

    Parameters
    ----------
    max_queue_depth:
        Shed while more than this many requests are *in the system* at
        dispatch -- the unified queue-depth meaning: the in-flight
        (dispatched) batch plus everything still waiting, transport
        queue included on the async facade.  One definition across
        facades (``InferenceEngine.queue_depth`` ==
        ``AsyncEngine.queue_depth`` semantics) keeps a fleet-level
        threshold unbiased by which facade serves a replica.  Depth is
        an exact, deterministic signal -- the one the simulated load
        runner and the gated benchmarks use.
    max_predicted_wait_s:
        Shed while ``queue_depth x EWMA(per-request service seconds)``
        exceeds this bound.  Service seconds are read on the dispatcher's
        clock: the wall clock, or ``simulate()``'s virtual clock.
    """

    max_queue_depth: int | None = None
    max_predicted_wait_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_queue_depth is None and self.max_predicted_wait_s is None:
            raise ConfigurationError(
                "ShedPolicy needs max_queue_depth and/or max_predicted_wait_s"
            )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_predicted_wait_s is not None and not self.max_predicted_wait_s > 0:
            raise ConfigurationError(
                f"max_predicted_wait_s must be > 0, got {self.max_predicted_wait_s}"
            )

    def should_shed(
        self, *, queue_depth: int, predicted_wait_s: float | None = None
    ) -> bool:
        """True when this dispatch should be served at stage 0."""
        if (
            self.max_queue_depth is not None
            and queue_depth > self.max_queue_depth
        ):
            return True
        return (
            self.max_predicted_wait_s is not None
            and predicted_wait_s is not None
            and predicted_wait_s > self.max_predicted_wait_s
        )


def nearest_delta_index(deltas, delta: float) -> int:
    """Index of the grid delta nearest to ``delta``.

    The single nearest-point semantic shared by the controller's
    calibration curve and the operating table's regime curves -- the two
    interconvert, so their lookups must never diverge.
    """
    return int(np.abs(np.asarray(deltas, dtype=np.float64) - delta).argmin())


@dataclass(frozen=True)
class CalibrationPoint:
    """One simulated operating point of the delta -> cost curve."""

    delta: float
    mean_ops: float
    exit_fractions: np.ndarray


@dataclass(frozen=True)
class DeltaCalibration:
    """A delta -> mean-ops curve measured on a sample workload."""

    points: tuple[CalibrationPoint, ...]
    sample_size: int

    def __post_init__(self) -> None:
        if not self.points:
            raise ConfigurationError("calibration needs at least one point")

    def point_for_delta(self, delta: float) -> CalibrationPoint:
        """The calibrated point whose delta is nearest to ``delta``."""
        return self.points[nearest_delta_index([p.delta for p in self.points], delta)]

    def best_for_budget(self, target_mean_ops: float) -> CalibrationPoint:
        """The point whose predicted mean ops is closest to the target.

        Ties break toward the cheaper point, so a borderline budget errs
        on the side of saving energy rather than spending it.
        """
        ops = np.array([p.mean_ops for p in self.points])
        best = np.abs(ops - target_mean_ops).min()
        candidates = [
            p for p in self.points if abs(p.mean_ops - target_mean_ops) <= best + 1e-9
        ]
        return min(candidates, key=lambda p: p.mean_ops)

    @property
    def min_mean_ops(self) -> float:
        return min(p.mean_ops for p in self.points)

    @property
    def max_mean_ops(self) -> float:
        return max(p.mean_ops for p in self.points)


class DeltaController:
    """Adapts the runtime delta so serving cost tracks a budget.

    Parameters
    ----------
    target_mean_ops:
        Soft budget: desired mean scalar OPS per request.  Requires a
        calibration (the engine calibrates lazily on its first micro-batch
        if :meth:`calibrate` was never called explicitly).
    hard_ops_budget:
        Hard budget: no single request may pay more than this.  Enforced
        structurally through :meth:`max_stage`.
    delta:
        Initial / fallback threshold used before any calibration exists.
    delta_grid:
        Candidate thresholds swept during calibration.
    feedback_smoothing:
        EWMA factor for the observed/predicted cost ratio (0 disables
        feedback; 1 trusts only the latest batch).
    """

    def __init__(
        self,
        *,
        target_mean_ops: float | None = None,
        hard_ops_budget: float | None = None,
        delta: float = 0.6,
        delta_grid: tuple[float, ...] = _DEFAULT_GRID,
        feedback_smoothing: float = 0.2,
    ) -> None:
        if target_mean_ops is None and hard_ops_budget is None:
            raise ConfigurationError(
                "DeltaController needs target_mean_ops and/or hard_ops_budget"
            )
        if target_mean_ops is not None and target_mean_ops <= 0:
            raise ConfigurationError(
                f"target_mean_ops must be > 0, got {target_mean_ops}"
            )
        if hard_ops_budget is not None and hard_ops_budget <= 0:
            raise ConfigurationError(
                f"hard_ops_budget must be > 0, got {hard_ops_budget}"
            )
        if not delta_grid:
            raise ConfigurationError("delta_grid must not be empty")
        if not 0.0 <= feedback_smoothing <= 1.0:
            raise ConfigurationError(
                f"feedback_smoothing must lie in [0, 1], got {feedback_smoothing}"
            )
        self.target_mean_ops = target_mean_ops
        self.hard_ops_budget = hard_ops_budget
        self.delta_grid = tuple(float(d) for d in delta_grid)
        self.feedback_smoothing = float(feedback_smoothing)
        self._delta = float(delta)
        self._calibration: DeltaCalibration | None = None
        self._cost_ratio = 1.0  # EWMA of observed / predicted mean ops
        self._folds = 0  # batches folded into _cost_ratio, ever
        #: (table entry, depth cap) the last retarget installed; None once
        #: a calibrate() replaces that curve.
        self._installed: tuple[object, int | None] | None = None
        #: Lifecycle-event sink (``recalibration`` / ``retarget``); the
        #: engine rebinds this when telemetry is enabled.
        self.observer = NULL_OBSERVER

    # -- state -----------------------------------------------------------------
    @property
    def delta(self) -> float:
        """The threshold the engine should use for the next batch."""
        return self._delta

    @property
    def calibration(self) -> DeltaCalibration | None:
        return self._calibration

    @property
    def feedback_folds(self) -> int:
        """Served batches folded into the feedback ratio so far."""
        return self._folds

    @property
    def needs_calibration(self) -> bool:
        return self.target_mean_ops is not None and self._calibration is None

    def max_stage(self, costs: PathCostTable) -> int | None:
        """Depth cap implementing the hard budget (None when unconstrained).

        The deepest stage whose cumulative exit cost fits the budget; every
        input is force-terminated there, so per-request cost can never
        exceed the budget.
        """
        if self.hard_ops_budget is None:
            return None
        cap = self._cap_for_totals(costs.exit_totals())
        if cap == -1:
            raise ConfigurationError(
                f"hard_ops_budget={self.hard_ops_budget:g} is below the "
                f"cheapest exit ({costs.exit_totals()[0]:g} ops at stage "
                f"{costs.stage_names[0]!r}); no cascade depth can satisfy it"
            )
        return cap

    def _cap_for_totals(self, totals: np.ndarray) -> int | None:
        """Depth cap against raw exit totals (-1: budget unsatisfiable)."""
        totals = np.asarray(totals, dtype=np.float64)
        affordable = np.nonzero(totals <= self.hard_ops_budget)[0]
        if affordable.size == 0:
            return -1
        deepest = int(affordable.max())
        return None if deepest == totals.shape[0] - 1 else deepest

    # -- calibration ------------------------------------------------------------
    def calibrate(self, cdln, images: np.ndarray) -> DeltaCalibration:
        """Sweep the delta grid on a sample workload and pick the operating point.

        Stage scores are computed once (one
        :class:`~repro.cdl.score_cache.StageScoreCache` build); each grid
        delta is then evaluated by exact numpy replay, so even a dense grid
        costs a fraction of one real predict pass.
        """
        from repro.cdl.score_cache import StageScoreCache

        if not cdln.is_fitted:
            raise NotFittedError("cannot calibrate against an unfitted CDLN")
        if images.shape[0] == 0:
            raise ConfigurationError("calibration needs at least one image")
        costs = cdln.path_cost_table()
        totals = costs.exit_totals()
        cap = self.max_stage(costs)
        cache = StageScoreCache.build(cdln, images)
        points = []
        for delta in self.delta_grid:
            exits = cache.exit_stages(delta, max_stage=cap)
            fractions = np.bincount(exits, minlength=costs.num_stages) / exits.shape[0]
            points.append(
                CalibrationPoint(
                    delta=float(delta),
                    mean_ops=float(totals[exits].mean()),
                    exit_fractions=fractions,
                )
            )
        self._calibration = DeltaCalibration(
            points=tuple(points), sample_size=int(images.shape[0])
        )
        self._installed = None
        self._repick()
        self.observer.event(
            "recalibration",
            sample_size=int(images.shape[0]),
            delta=self._delta,
            predicted_mean_ops=self._calibration.point_for_delta(
                self._delta
            ).mean_ops,
        )
        _log.info(
            "calibrated on %d images: delta=%.3f predicted %.3g mean ops",
            images.shape[0],
            self._delta,
            self._calibration.point_for_delta(self._delta).mean_ops,
        )
        return self._calibration

    # -- retargeting ------------------------------------------------------------
    def retarget(self, table, regime: str) -> CalibrationPoint:
        """Jump to a precomputed regime's operating curve (no backbone work).

        Installs the :class:`~repro.serving.adaptive.OperatingTable`
        regime's δ → mean-OPS curve as this controller's calibration,
        resets the feedback ratio (the old regime's observed/predicted
        history is stale by definition), and repicks δ for the soft
        target.  This is the adaptive answer to drift: where
        :meth:`calibrate` pays a full scoring pass over a live sample,
        ``retarget`` is a pure table lookup.

        When this controller also holds a hard budget, the installed
        curve is folded at the implied depth cap (exactly -- capped exit
        = ``min(exit, cap)``) using the table's recorded exit totals, so
        the δ → mean-OPS prediction matches what capped serving will
        actually pay, just as :meth:`calibrate` folds the cap into its
        simulation.  Tables saved before exit totals were recorded fall
        back to the uncapped curve.

        Retargeting to the curve already installed -- the same table entry
        under the same depth cap -- is a no-op that keeps δ and the
        feedback ratio and emits no event: a drift detector that re-fires
        on a stationary stream matching no regime must not throw away the
        feedback it has folded.

        Parameters
        ----------
        table:
            An :class:`~repro.serving.adaptive.OperatingTable` built for
            the served model.
        regime:
            Name of the table regime to adopt.

        Returns the calibrated point at the chosen δ.  Requires a soft
        target (with only a hard budget there is no mean-OPS objective to
        retarget toward).
        """
        if self.target_mean_ops is None:
            raise ConfigurationError(
                "retarget needs a soft target (target_mean_ops); a hard "
                "budget alone is enforced structurally and never moves"
            )
        totals = np.asarray(getattr(table, "exit_totals", ()), dtype=np.float64)
        cap = None
        if self.hard_ops_budget is not None and totals.size:
            cap = self._cap_for_totals(totals)
            if cap == -1:
                raise ConfigurationError(
                    f"hard_ops_budget={self.hard_ops_budget:g} is below the "
                    f"cheapest exit ({totals[0]:g} ops) of the table's model"
                )
        entry = table.entry(regime)
        installed = self._installed
        if installed is not None and installed[0] is entry and installed[1] == cap:
            return self._calibration.point_for_delta(self._delta)
        self._calibration = entry.to_calibration(
            max_stage=cap, exit_totals=totals if totals.size else None
        )
        self._installed = (entry, cap)
        self._cost_ratio = 1.0
        self._repick()
        point = self._calibration.point_for_delta(self._delta)
        self.observer.event(
            "retarget",
            regime=str(regime),
            delta=self._delta,
            predicted_mean_ops=point.mean_ops,
        )
        _log.info(
            "retargeted to regime %r: delta=%.3f predicted %.3g mean ops",
            regime,
            self._delta,
            point.mean_ops,
        )
        return point

    # -- feedback ---------------------------------------------------------------
    def observe(self, mean_ops: float, batch_size: int) -> None:
        """Fold one served batch's measured mean cost into the feedback loop."""
        if (
            self.target_mean_ops is None
            or self._calibration is None
            or batch_size <= 0
            or self.feedback_smoothing == 0.0
        ):
            return
        predicted = self._calibration.point_for_delta(self._delta).mean_ops
        if predicted <= 0:
            return
        ratio = mean_ops / predicted
        alpha = self.feedback_smoothing
        self._cost_ratio = (1 - alpha) * self._cost_ratio + alpha * ratio
        self._folds += 1
        self._repick()

    def _repick(self) -> None:
        if self.target_mean_ops is None or self._calibration is None:
            return
        # Live traffic costing r times the calibration sample means the
        # curve is effectively scaled by r; aim for target / r instead.
        effective = self.target_mean_ops / max(self._cost_ratio, 1e-9)
        self._delta = self._calibration.best_for_budget(effective).delta

    def __repr__(self) -> str:
        return (
            f"DeltaController(delta={self._delta:.3f}, "
            f"target_mean_ops={self.target_mean_ops}, "
            f"hard_ops_budget={self.hard_ops_budget}, "
            f"calibrated={self._calibration is not None})"
        )
