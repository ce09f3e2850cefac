"""Adaptive serving: online drift detection + scenario-conditioned retargeting.

The budget controller (:mod:`repro.serving.controller`) holds a mean-OPS
target only as long as live traffic resembles its calibration sample; the
scenario suite showed that corruption and drift push exits deeper and
blow the budget until a *scheduled* recalibration catches up -- and every
scheduled recalibration pays a full backbone pass over the recent
traffic.  This module closes the loop from a live signal instead, like
PANDA's staged detector readout: adapt the depth of processing to the
regime you observe, not to a wall-clock schedule.

Three pieces:

* :class:`DriftDetector` -- maintains a rolling :class:`SignatureWindow`
  of exit-stage histograms and stage-0 confidences (the two live signals
  the engine already produces per micro-batch), scores the window against a
  reference :class:`RegimeSignature` with a population-stability-index
  style statistic, and emits a :class:`DriftEvent` when the score clears
  a threshold -- with hysteresis, so a noisy boundary cannot flap.
* :class:`OperatingTable` -- *precomputed* per-regime δ → (accuracy,
  mean OPS, energy pJ) curves, one
  :class:`~repro.cdl.score_cache.StageScoreCache` build per scenario via
  :mod:`repro.scenarios.evaluate`.  Tables serialize to JSON next to
  checkpoints and load back without a model; each regime also carries its
  signature, so a detected shift can be *matched* to the nearest known
  regime.
* :class:`AdaptiveDeltaPolicy` -- the wiring: installed on an
  :class:`~repro.serving.engine.InferenceEngine`, it feeds the detector
  after every micro-batch and, on a drift event, matches the observed
  signature against the table and calls
  :meth:`~repro.serving.controller.DeltaController.retarget` -- a pure
  table lookup, zero online OPS, versus a full recalibration pass.

Units throughout: OPS are scalar multiply-accumulates per request (the
:mod:`repro.ops.counting` currency), energy is pJ under the entry's
technology model, δ is the runtime confidence threshold in [0, 1].
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.observer import NULL_OBSERVER
from repro.serving.controller import (
    CalibrationPoint,
    DeltaCalibration,
    nearest_delta_index,
)
from repro.serving.metrics import STAGE0_QUANTILE_GRID
from repro.utils.logging import get_logger
from repro.utils.validation import check_fraction, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cdl.network import CDLN
    from repro.cdl.score_cache import StageScoreCache
    from repro.data.dataset import DigitDataset
    from repro.scenarios.spec import Scenario
    from repro.serving.engine import InferenceEngine

_log = get_logger("serving.adaptive")

#: First-generation schema tag.  Loads forever: a v1 payload is a v2
#: payload without null accuracies, so the upgrade is lossless.
TABLE_SCHEMA_V1 = "repro.operating_table/v1"

#: JSON schema tag written into every serialized operating table.  v2
#: permits ``accuracy: null`` (a point with no labeled estimate, e.g. one
#: fitted from unlabeled live traffic by an earlier release's online
#: regime learning).  Such entries may also carry ``"learned": true``;
#: the flag is ignored on load, so they serve as ordinary regimes.
TABLE_SCHEMA = "repro.operating_table/v2"

#: Every schema :meth:`OperatingTable.from_dict` accepts.
TABLE_SCHEMAS = (TABLE_SCHEMA_V1, TABLE_SCHEMA)

#: Default δ grid swept when building operating tables (coarser than the
#: controller's calibration grid; replays are exact either way).
DEFAULT_TABLE_GRID = tuple(np.round(np.linspace(0.05, 0.95, 19), 4))


def population_stability_index(
    expected: np.ndarray, observed: np.ndarray, *, floor: float = 1e-3
) -> float:
    """PSI between two discrete distributions (same length, each sums ~1).

    ``sum((o - e) * ln(o / e))`` with both sides floored at ``floor`` so
    empty bins cannot produce infinities.  Symmetric, >= 0, and ~0.25 is
    the classic "significant shift" rule of thumb -- the detector's
    default threshold.
    """
    expected = np.asarray(expected, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    if expected.shape != observed.shape:
        raise ConfigurationError(
            f"PSI needs equal-length histograms, got {expected.shape} "
            f"vs {observed.shape}"
        )
    e = np.clip(expected, floor, None)
    o = np.clip(observed, floor, None)
    return float(np.sum((o - e) * np.log(o / e)))


def fold_exit_fractions(fractions: np.ndarray, max_stage: int | None) -> np.ndarray:
    """Fold an exit histogram at a hard depth cap.

    A depth cap force-terminates at ``max_stage`` every input that would
    have gone deeper, and earlier stages are unaffected -- so the capped
    exit stage is exactly ``min(exit, max_stage)`` and folding the tail
    mass into the cap bin reproduces the capped histogram *exactly*.
    This keeps offline (uncapped) signatures comparable with live capped
    traffic.
    """
    fractions = np.asarray(fractions, dtype=np.float64)
    if max_stage is None or max_stage >= fractions.shape[0] - 1:
        return fractions.copy()
    folded = fractions.copy()
    folded[max_stage] = fractions[max_stage:].sum()
    folded[max_stage + 1 :] = 0.0
    return folded


def robust_slope(values: Sequence[float]) -> float:
    """Theil-Sen slope of a series: median of all pairwise slopes.

    Agrees exactly with an OLS fit (``np.polyfit(x, y, 1)``) on noiseless
    linear series, but a single outlier window cannot swing it the way it
    swings least squares -- which matters because one weird micro-batch
    inside the rolling window must not read as a sustained ramp.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 2:
        raise ConfigurationError(
            f"slope needs a 1-d series of >= 2 values, got shape {v.shape}"
        )
    n = v.shape[0]
    i, j = np.triu_indices(n, k=1)
    return float(np.median((v[j] - v[i]) / (j - i)))


@dataclass(frozen=True)
class RegimeSignature:
    """Distribution fingerprint of one serving regime.

    Attributes
    ----------
    exit_fractions:
        Exit-stage histogram (fractions, sum 1) at some δ / depth cap,
        ``(num_stages,)``.
    stage0_quantiles:
        Stage-0 confidence quantiles at
        :data:`~repro.serving.metrics.STAGE0_QUANTILE_GRID` levels,
        ``(len(grid),)``.  δ- and cap-independent for the built-in
        confidence policies, which makes them the stable half of the
        signal when the engine retargets δ.
    count:
        Observations behind the fingerprint (``0`` = unknown, e.g. a
        signature loaded from a pre-count serialization).  Fractions are
        *not* additive across windows of different sizes, so any
        cross-replica aggregation must weight by this count --
        :meth:`merge` does, and refuses countless signatures.
    """

    exit_fractions: np.ndarray
    stage0_quantiles: np.ndarray
    count: int = 0

    @classmethod
    def from_cache(
        cls,
        cache: "StageScoreCache",
        delta: float | None,
        *,
        max_stage: int | None = None,
    ) -> "RegimeSignature":
        """Signature of a scored sample at one (δ, depth cap) point."""
        exits = cache.exit_stages(delta, max_stage=max_stage)
        num_stages = cache.num_stages
        if exits.shape[0] == 0:
            raise ConfigurationError("cannot fingerprint an empty sample")
        fractions = np.bincount(exits, minlength=num_stages) / exits.shape[0]
        quantiles = np.quantile(cache.stage0_confidences(), STAGE0_QUANTILE_GRID)
        return cls(
            exit_fractions=fractions,
            stage0_quantiles=quantiles,
            count=int(exits.shape[0]),
        )

    @classmethod
    def merge(cls, signatures: "Sequence[RegimeSignature]") -> "RegimeSignature":
        """Count-weighted merge of per-replica signatures into a fleet view.

        Exit fractions are recovered to raw counts (``fractions * count``)
        before summing, so the merged histogram is *exactly* the
        histogram of the pooled observations -- a naive unweighted
        average of fractions is wrong whenever the windows differ in
        size, and the error feeds straight into the PSI drift score.
        Stage-0 quantiles cannot be pooled exactly from quantiles alone;
        the count-weighted mean per level is the standard approximation
        and is exact when the replicas sample the same distribution.
        """
        if not signatures:
            raise ConfigurationError("cannot merge zero signatures")
        if any(s.count <= 0 for s in signatures):
            raise ConfigurationError(
                "merge needs an observation count on every signature; "
                "fractions are not additive across unknown window sizes"
            )
        shapes = {s.exit_fractions.shape for s in signatures}
        if len(shapes) != 1:
            raise ConfigurationError(
                f"cannot merge signatures with mixed stage counts: {shapes}"
            )
        counts = np.array([s.count for s in signatures], dtype=np.float64)
        total = counts.sum()
        fractions = (
            np.sum([s.exit_fractions * s.count for s in signatures], axis=0) / total
        )
        quantiles = (
            np.sum([s.stage0_quantiles * s.count for s in signatures], axis=0) / total
        )
        return cls(
            exit_fractions=fractions,
            stage0_quantiles=quantiles,
            count=int(total),
        )

    def to_dict(self) -> dict:
        return {
            "exit_fractions": [float(f) for f in self.exit_fractions],
            "stage0_quantiles": [float(q) for q in self.stage0_quantiles],
            "quantile_grid": list(STAGE0_QUANTILE_GRID),
            "count": int(self.count),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RegimeSignature":
        grid = tuple(float(q) for q in payload.get("quantile_grid", ()))
        if grid and grid != tuple(STAGE0_QUANTILE_GRID):
            # Quantiles binned at other levels compare as garbage against
            # live snapshots -- refuse loudly rather than mis-score drift.
            raise ConfigurationError(
                f"signature was fingerprinted at quantile levels {grid}, but "
                f"this build tracks {tuple(STAGE0_QUANTILE_GRID)}; rebuild "
                "the operating table"
            )
        return cls(
            exit_fractions=np.asarray(payload["exit_fractions"], dtype=np.float64),
            stage0_quantiles=np.asarray(
                payload["stage0_quantiles"], dtype=np.float64
            ),
            # Pre-count tables load as count=0 ("unknown"): still fine for
            # scoring/matching, only merge() refuses them.
            count=int(payload.get("count", 0)),
        )


def signature_distance(
    a: RegimeSignature, b: RegimeSignature, *, quantile_weight: float = 2.0
) -> float:
    """Drift score between two signatures (0 = identical, unbounded above).

    PSI over the exit histograms plus ``quantile_weight`` times the mean
    absolute stage-0 quantile shift.  Both terms are ~0 for same-regime
    sampling noise and O(0.5+) across the built-in corruption regimes, so
    the classic PSI=0.25 threshold separates them cleanly.
    """
    psi = population_stability_index(a.exit_fractions, b.exit_fractions)
    shift = float(np.abs(a.stage0_quantiles - b.stage0_quantiles).mean())
    return psi + quantile_weight * shift


@dataclass(frozen=True)
class DriftEvent:
    """Emitted by :class:`DriftDetector` when the live window leaves the
    reference regime (``kind="drift"``) -- or returns to it after an
    unhandled excursion (``kind="recovery"``).

    ``trigger`` records which signal fired a drift event: ``"level"``
    (the score cleared ``threshold``) or ``"rate"`` (a sustained ramp in
    the score cleared ``rate_threshold`` while the level stayed inside
    the hysteresis band).
    """

    observation: int
    score: float
    kind: str = "drift"
    trigger: str = "level"


class SignatureWindow:
    """The last ``size`` served batches, folded into one signature.

    Keeps each batch's exit histogram and stage-0 confidences; the folded
    :class:`RegimeSignature` carries its request count, so windows merge
    across replicas (:meth:`RegimeSignature.merge`) without the
    fraction-averaging bias.  :class:`DriftDetector` scores one; a fabric
    replica installs one as its engine's adaptive hook and ships it
    upstream.
    """

    def __init__(self, num_stages: int, size: int) -> None:
        self.num_stages = num_stages
        self.size = size
        self._exit_counts: list[np.ndarray] = []
        self._confidences: list[np.ndarray] = []

    def add(self, exit_stages: np.ndarray, stage0_confidences: np.ndarray) -> None:
        """Fold one batch in, dropping the oldest beyond ``size``."""
        self._exit_counts.append(
            np.bincount(np.asarray(exit_stages), minlength=self.num_stages)
        )
        self._confidences.append(
            np.asarray(stage0_confidences, dtype=np.float64)
        )
        del self._exit_counts[: -self.size]
        del self._confidences[: -self.size]

    def after_batch(self, engine, exit_stages, stage0_confidences) -> None:
        """The engine's adaptive hook: record the batch, never retarget."""
        self.add(exit_stages, stage0_confidences)

    def signature(self, *, recent: int | None = None) -> RegimeSignature | None:
        """The window (or its freshest ``recent`` batches) as one
        signature; ``None`` while empty."""
        if not self._exit_counts:
            return None
        tail = slice(-recent if recent else None, None)
        counts = np.sum(self._exit_counts[tail], axis=0)
        confidences = np.concatenate(self._confidences[tail])
        return RegimeSignature(
            exit_fractions=counts / max(counts.sum(), 1),
            stage0_quantiles=np.quantile(confidences, STAGE0_QUANTILE_GRID),
            count=int(counts.sum()),
        )


class DriftDetector:
    """Scores live serving traffic against a reference regime signature.

    Feed it one ``observe(exit_stages, stage0_confidences)`` call per
    served micro-batch (the engine does this automatically when an
    :class:`AdaptiveDeltaPolicy` is installed).  The detector keeps the
    last ``window`` batches, folds them into one observed
    :class:`RegimeSignature`, and compares against the reference with
    :func:`signature_distance`.

    Hysteresis: the detector is *armed* until it fires.  While armed it
    needs ``patience`` consecutive scores at or above ``threshold`` to
    emit a drift event; once fired it stays quiet until either
    :meth:`rebase` adopts a new reference (the adaptive policy does this
    after retargeting) or the score falls back below
    ``threshold * rearm_fraction`` for ``patience`` batches, which emits
    a recovery event and re-arms.  A noisy score oscillating around the
    threshold therefore cannot flap the controller.

    Parameters
    ----------
    reference:
        Signature of the regime traffic is *supposed* to look like --
        typically the calibration sample
        (:meth:`RegimeSignature.from_cache`) or an operating-table entry
        (:meth:`RegimeEntry.signature_at`).
    window:
        Rolling window length in micro-batches.
    threshold:
        Drift score that counts as a breach (PSI-scale; 0.25 default).
    rearm_fraction:
        Recovery threshold as a fraction of ``threshold``.
    patience:
        Consecutive breaches (or recoveries) required before emitting.
    quantile_weight:
        Weight of the stage-0 quantile shift term in the score.
    min_observations:
        Observations required before any scoring (a half-empty window
        would be all sampling noise).
    rate_threshold:
        Optional drift-*rate* trigger: the robust slope
        (:func:`robust_slope`) of the last ``rate_window`` scores, in
        score units per observation.  ``None`` (default) disables the
        rate signal.  A slow ramp whose level never clears ``threshold``
        still shows a sustained positive slope -- this catches it.
    rate_window:
        Scores the slope is estimated over (>= 3).
    rate_patience:
        Consecutive slope breaches required before a rate-triggered
        event, so one steep window inside otherwise-flat noise cannot
        fire.
    rate_floor_fraction:
        A rate breach only counts while the score itself sits at or
        above ``threshold * rate_floor_fraction`` -- "elevated and still
        climbing".  A stationary noisy score shows transient positive
        slopes; requiring elevation keeps clean streams quiet without
        raising ``rate_threshold`` past what slow ramps can clear.
    """

    def __init__(
        self,
        reference: RegimeSignature,
        *,
        window: int = 4,
        threshold: float = 0.25,
        rearm_fraction: float = 0.5,
        patience: int = 1,
        quantile_weight: float = 2.0,
        min_observations: int = 3,
        rate_threshold: float | None = None,
        rate_window: int = 6,
        rate_patience: int = 2,
        rate_floor_fraction: float = 0.4,
    ) -> None:
        check_positive_int(window, "window")
        check_positive_int(patience, "patience")
        check_positive_int(min_observations, "min_observations")
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be > 0, got {threshold}")
        check_fraction(rearm_fraction, "rearm_fraction")
        if quantile_weight < 0:
            raise ConfigurationError(
                f"quantile_weight must be >= 0, got {quantile_weight}"
            )
        if rate_threshold is not None and rate_threshold <= 0:
            raise ConfigurationError(
                f"rate_threshold must be > 0, got {rate_threshold}"
            )
        check_positive_int(rate_window, "rate_window")
        if rate_window < 3:
            raise ConfigurationError(
                f"rate_window must be >= 3 for a meaningful slope, "
                f"got {rate_window}"
            )
        check_positive_int(rate_patience, "rate_patience")
        check_fraction(rate_floor_fraction, "rate_floor_fraction")
        self.reference = reference
        self.window = window
        self.threshold = float(threshold)
        self.rearm_fraction = float(rearm_fraction)
        self.patience = patience
        self.quantile_weight = float(quantile_weight)
        self.min_observations = min_observations
        self.rate_threshold = None if rate_threshold is None else float(rate_threshold)
        self.rate_window = rate_window
        self.rate_patience = rate_patience
        self.rate_floor_fraction = float(rate_floor_fraction)
        self.observations = 0
        self.last_score: float | None = None
        self.last_rate: float | None = None
        self._recent = SignatureWindow(reference.exit_fractions.shape[0], window)
        self._scores: list[float] = []
        self._armed = True
        self._breach_streak = 0
        self._calm_streak = 0
        self._rate_streak = 0
        #: Telemetry sink: the ``drift_score`` gauge plus
        #: ``drift_detected`` / ``drift_recovered`` events.  The engine
        #: rebinds this when telemetry is enabled.
        self.observer = NULL_OBSERVER

    @classmethod
    def from_cache(
        cls,
        cache: "StageScoreCache",
        delta: float | None,
        *,
        max_stage: int | None = None,
        **kwargs,
    ) -> "DriftDetector":
        """Detector referenced to a scored calibration sample."""
        return cls(
            RegimeSignature.from_cache(cache, delta, max_stage=max_stage), **kwargs
        )

    @property
    def armed(self) -> bool:
        """False between a drift event and the next rebase/recovery."""
        return self._armed

    def window_signature(self, *, recent: int | None = None) -> RegimeSignature:
        """The rolling window folded into one observed signature.

        ``recent`` restricts to the freshest N batches: the drift *score*
        wants the full window (variance), but *matching* a new regime
        wants only post-shift traffic -- a full window straddling the
        shift is diluted with the old regime and matches nothing well.
        """
        signature = self._recent.signature(recent=recent)
        if signature is None:
            raise ConfigurationError("detector has no observations yet")
        return signature

    def observe(
        self, exit_stages: np.ndarray, stage0_confidences: np.ndarray
    ) -> DriftEvent | None:
        """Fold one served micro-batch into the window; maybe emit an event.

        Parameters
        ----------
        exit_stages:
            Exit stage index per request, ``(B,)``.
        stage0_confidences:
            Stage-0 confidence per request, ``(B,)``.

        Returns the emitted :class:`DriftEvent` (``kind`` "drift" or
        "recovery"), or ``None``.
        """
        exit_stages = np.asarray(exit_stages)
        num_stages = self.reference.exit_fractions.shape[0]
        if exit_stages.size and int(exit_stages.max()) >= num_stages:
            raise ConfigurationError(
                f"exit stage {int(exit_stages.max())} out of range for a "
                f"{num_stages}-stage reference"
            )
        self._recent.add(exit_stages, stage0_confidences)
        self.observations += 1
        if self.observations < self.min_observations:
            return None
        return self._score(self.window_signature())

    def observe_signature(self, signature: RegimeSignature) -> DriftEvent | None:
        """Score one externally assembled window signature.

        The fleet path: the serving fabric merges per-replica window
        signatures count-weighted (:meth:`RegimeSignature.merge`) and
        feeds the pooled view here, so one logical detector guards N
        replicas.  Warm-up (``min_observations``) and the arm/patience
        hysteresis behave exactly as :meth:`observe`.
        """
        self.observations += 1
        if self.observations < self.min_observations:
            return None
        return self._score(signature)

    def _score(self, observed: RegimeSignature) -> DriftEvent | None:
        """Score an observed signature and run the hysteresis machine."""
        score = signature_distance(
            observed,
            self.reference,
            quantile_weight=self.quantile_weight,
        )
        self.last_score = score
        self._scores.append(score)
        del self._scores[: -self.rate_window]
        if self.rate_threshold is not None and len(self._scores) >= self.rate_window:
            self.last_rate = robust_slope(self._scores)
        if self.observer.enabled:
            self.observer.set_gauge(
                "drift_score",
                score,
                "Live drift score vs. the reference regime (PSI-scale).",
            )
            if self.last_rate is not None:
                self.observer.set_gauge(
                    "drift_rate",
                    self.last_rate,
                    "Robust slope of the drift score (per observation).",
                )
        if self._armed:
            breached = score >= self.threshold
            self._breach_streak = self._breach_streak + 1 if breached else 0
            if self._breach_streak >= self.patience:
                self._armed = False
                self._breach_streak = 0
                self._rate_streak = 0
                _log.info(
                    "drift detected at observation %d (score %.3f >= %.3f)",
                    self.observations,
                    score,
                    self.threshold,
                )
                self.observer.event(
                    "drift_detected",
                    observation=self.observations,
                    score=score,
                    threshold=self.threshold,
                )
                return DriftEvent(observation=self.observations, score=score)
            if self.rate_threshold is not None and self.last_rate is not None:
                # "Elevated and still climbing": a stationary noisy score
                # shows transient positive slopes too, so a rate breach
                # only counts while the level itself sits above the floor.
                ramping = (
                    self.last_rate >= self.rate_threshold
                    and score >= self.threshold * self.rate_floor_fraction
                )
                self._rate_streak = self._rate_streak + 1 if ramping else 0
                if self._rate_streak >= self.rate_patience:
                    self._armed = False
                    self._rate_streak = 0
                    _log.info(
                        "drift ramp detected at observation %d "
                        "(rate %.4f >= %.4f, score %.3f)",
                        self.observations,
                        self.last_rate,
                        self.rate_threshold,
                        score,
                    )
                    self.observer.event(
                        "drift_detected",
                        observation=self.observations,
                        score=score,
                        rate=self.last_rate,
                        trigger="rate",
                    )
                    return DriftEvent(
                        observation=self.observations, score=score, trigger="rate"
                    )
        else:
            calm = score <= self.threshold * self.rearm_fraction
            self._calm_streak = self._calm_streak + 1 if calm else 0
            if self._calm_streak >= self.patience:
                self._armed = True
                self._calm_streak = 0
                self.observer.event(
                    "drift_recovered",
                    observation=self.observations,
                    score=score,
                )
                return DriftEvent(
                    observation=self.observations, score=score, kind="recovery"
                )
        return None

    def rebase(self, reference: RegimeSignature) -> None:
        """Adopt a new reference regime and re-arm.

        Clears the rolling window (it still holds transition-mix batches
        that would score against the new reference) -- the detector is
        blind for ``min_observations`` batches after a rebase, which acts
        as a natural retarget cooldown.
        """
        self.reference = reference
        self._recent = SignatureWindow(
            reference.exit_fractions.shape[0], self.window
        )
        self._scores.clear()
        self.observations = 0
        self.last_score = None
        self.last_rate = None
        self._armed = True
        self._breach_streak = 0
        self._calm_streak = 0
        self._rate_streak = 0

    def __repr__(self) -> str:
        return (
            f"DriftDetector(window={self.window}, threshold={self.threshold}, "
            f"armed={self._armed}, last_score={self.last_score})"
        )


@dataclass(frozen=True)
class OperatingPoint:
    """One δ on a regime's operating curve.

    ``mean_ops`` in scalar OPS per request, ``mean_energy_pj`` in pJ,
    ``exit_fractions`` the uncapped exit histogram at this δ.

    ``accuracy`` is NaN where a v2 artifact holds ``null`` (a point with
    no labeled estimate); it serializes back as ``null`` so the artifact
    stays strict JSON.  The controller never reads accuracy when
    retargeting, only ``mean_ops`` and ``exit_fractions``.
    """

    delta: float
    accuracy: float
    mean_ops: float
    mean_energy_pj: float
    exit_fractions: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "accuracy": None if math.isnan(self.accuracy) else self.accuracy,
            "mean_ops": self.mean_ops,
            "mean_energy_pj": self.mean_energy_pj,
            "exit_fractions": list(self.exit_fractions),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "OperatingPoint":
        accuracy = payload["accuracy"]
        return cls(
            delta=float(payload["delta"]),
            accuracy=float("nan") if accuracy is None else float(accuracy),
            mean_ops=float(payload["mean_ops"]),
            mean_energy_pj=float(payload["mean_energy_pj"]),
            exit_fractions=tuple(float(f) for f in payload["exit_fractions"]),
        )


@dataclass(frozen=True)
class RegimeEntry:
    """One regime's precomputed operating curve plus its signature."""

    name: str
    scenario_spec: str
    num_samples: int
    signature: RegimeSignature
    points: tuple[OperatingPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ConfigurationError(
                f"regime {self.name!r} needs at least one operating point"
            )

    def point_for_delta(self, delta: float) -> OperatingPoint:
        """The curve point whose δ is nearest to ``delta`` (same lookup
        semantic as :meth:`DeltaCalibration.point_for_delta` -- shared via
        :func:`~repro.serving.controller.nearest_delta_index`)."""
        return self.points[nearest_delta_index([p.delta for p in self.points], delta)]

    def signature_at(
        self, delta: float, *, max_stage: int | None = None
    ) -> RegimeSignature:
        """This regime's expected signature at a (δ, depth cap) point.

        Exit fractions come from the curve point nearest ``delta``, folded
        at the cap (:func:`fold_exit_fractions` -- exact); the stage-0
        quantiles are δ-independent and shared by every point.
        """
        fractions = np.asarray(self.point_for_delta(delta).exit_fractions)
        return RegimeSignature(
            exit_fractions=fold_exit_fractions(fractions, max_stage),
            stage0_quantiles=self.signature.stage0_quantiles.copy(),
            count=self.signature.count,
        )

    def to_calibration(
        self,
        *,
        max_stage: int | None = None,
        exit_totals: np.ndarray | None = None,
    ) -> DeltaCalibration:
        """The curve as a :class:`DeltaCalibration` the controller can use.

        This is what makes :meth:`DeltaController.retarget` a pure lookup:
        the table already holds exactly what a live calibration pass would
        have measured on this regime's sample.

        With a ``max_stage`` depth cap (and the model's ``exit_totals``
        to re-price against), each point's exit fractions are folded at
        the cap and its mean OPS recomputed -- exact, because a capped
        exit is precisely ``min(exit, cap)`` -- so a controller that also
        enforces a hard budget predicts what capped serving really pays.
        """
        if max_stage is not None and exit_totals is None:
            raise ConfigurationError(
                "folding a calibration at a depth cap needs exit_totals"
            )
        points = []
        for p in self.points:
            fractions = np.asarray(p.exit_fractions, dtype=np.float64)
            mean_ops = p.mean_ops
            if max_stage is not None:
                fractions = fold_exit_fractions(fractions, max_stage)
                mean_ops = float(fractions @ np.asarray(exit_totals, dtype=np.float64))
            points.append(
                CalibrationPoint(
                    delta=p.delta, mean_ops=mean_ops, exit_fractions=fractions
                )
            )
        return DeltaCalibration(points=tuple(points), sample_size=self.num_samples)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario_spec,
            "num_samples": self.num_samples,
            "signature": self.signature.to_dict(),
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, name: str, payload: dict) -> "RegimeEntry":
        return cls(
            name=name,
            scenario_spec=str(payload.get("scenario", name)),
            num_samples=int(payload["num_samples"]),
            signature=RegimeSignature.from_dict(payload["signature"]),
            points=tuple(OperatingPoint.from_dict(p) for p in payload["points"]),
        )


class OperatingTable:
    """Precomputed per-regime operating curves, JSON-serializable.

    Build once offline (:meth:`build` -- one
    :class:`~repro.cdl.score_cache.StageScoreCache` pass per scenario,
    every δ replayed for free), save next to the model checkpoint
    (:meth:`save` / :meth:`default_path`), attach to a
    :class:`~repro.serving.registry.ModelEntry`, and the serving side
    never pays a calibration pass again: a detected regime change becomes
    :meth:`match` + :meth:`~repro.serving.controller.DeltaController.retarget`.
    """

    def __init__(
        self,
        regimes: dict[str, RegimeEntry],
        *,
        reference_regime: str,
        reference_delta: float = 0.6,
        stage_names: tuple[str, ...] = (),
        exit_totals: tuple[float, ...] = (),
    ) -> None:
        if not regimes:
            raise ConfigurationError("an operating table needs at least one regime")
        if reference_regime not in regimes:
            raise ConfigurationError(
                f"reference regime {reference_regime!r} not in table; "
                f"have {sorted(regimes)}"
            )
        self._regimes = dict(regimes)
        self.reference_regime = reference_regime
        self.reference_delta = float(reference_delta)
        self.stage_names = tuple(stage_names)
        #: Cumulative OPS of exiting at each stage, recorded at build time
        #: so retarget can fold a hard-budget depth cap into the curve
        #: without the model in hand (empty on legacy artifacts).
        self.exit_totals = tuple(float(t) for t in exit_totals)

    # -- construction ------------------------------------------------------------
    @classmethod
    def build(
        cls,
        cdln: "CDLN",
        base: "DigitDataset",
        scenarios: Sequence["Scenario"],
        *,
        deltas: Sequence[float] = DEFAULT_TABLE_GRID,
        reference_delta: float = 0.6,
        technology=None,
        batch_size: int = 256,
    ) -> "OperatingTable":
        """Score every scenario once; tabulate every δ.

        One :class:`~repro.cdl.score_cache.StageScoreCache` build per
        scenario (the only backbone work), then
        :func:`repro.scenarios.evaluate.evaluate_scenario` replays the
        whole δ grid exactly.  The reference regime is the first clean
        scenario (falling back to the first scenario), and each entry's
        signature is taken at ``reference_delta`` with no depth cap.
        """
        from repro.energy.technology import TECHNOLOGY_45NM
        from repro.scenarios.evaluate import evaluate_scenario, realize_and_score

        if not scenarios:
            raise ConfigurationError("need at least one scenario to tabulate")
        technology = technology or TECHNOLOGY_45NM
        regimes: dict[str, RegimeEntry] = {}
        reference = None
        for scenario in scenarios:
            if scenario.name in regimes:
                raise ConfigurationError(
                    f"duplicate scenario name {scenario.name!r} in table build"
                )
            data, cache = realize_and_score(
                cdln, base, scenario, batch_size=batch_size
            )
            results = evaluate_scenario(
                cdln,
                base,
                scenario,
                deltas=list(deltas),
                technology=technology,
                batch_size=batch_size,
                prepared=(data, cache),
            )
            regimes[scenario.name] = RegimeEntry(
                name=scenario.name,
                scenario_spec=scenario.describe(),
                num_samples=len(data),
                signature=RegimeSignature.from_cache(cache, reference_delta),
                points=tuple(
                    OperatingPoint(
                        delta=float(r.delta),
                        accuracy=r.accuracy,
                        mean_ops=r.mean_ops,
                        mean_energy_pj=r.mean_energy_pj,
                        exit_fractions=tuple(float(f) for f in r.exit_fractions),
                    )
                    for r in results
                ),
            )
            if reference is None and scenario.is_clean:
                reference = scenario.name
        table = cls(
            regimes,
            reference_regime=reference or scenarios[0].name,
            reference_delta=reference_delta,
            stage_names=cdln.stage_names,
            exit_totals=tuple(
                float(t) for t in cdln.path_cost_table().exit_totals()
            ),
        )
        _log.info(
            "built operating table: %d regime(s) x %d delta(s) on %d samples",
            len(regimes),
            len(deltas),
            next(iter(regimes.values())).num_samples,
        )
        return table

    # -- lookups -----------------------------------------------------------------
    @property
    def regime_names(self) -> tuple[str, ...]:
        return tuple(self._regimes)

    def entry(self, regime: str) -> RegimeEntry:
        try:
            return self._regimes[regime]
        except KeyError:
            raise ConfigurationError(
                f"unknown regime {regime!r}; table has {sorted(self._regimes)}"
            ) from None

    def __len__(self) -> int:
        return len(self._regimes)

    def __contains__(self, regime: str) -> bool:
        return regime in self._regimes

    def match(
        self,
        signature: RegimeSignature,
        *,
        delta: float | None = None,
        max_stage: int | None = None,
        quantile_weight: float = 2.0,
    ) -> tuple[str, float]:
        """The regime whose signature is nearest to ``signature``.

        Pass the δ / depth cap the observed traffic was served under, so
        each regime's expected exit histogram is evaluated at the same
        operating point (:meth:`RegimeEntry.signature_at`).  Returns
        ``(regime name, distance)``; the nearest regime always wins, however
        far it is.  Equidistant regimes resolve to the lexicographically
        lowest name -- deterministic, never insertion order.
        """
        at = self.reference_delta if delta is None else delta
        best_name, best_distance = "", float("inf")
        # Sorted iteration + strict "<" makes ties land on the lowest
        # regime name regardless of table construction order.
        for name in sorted(self._regimes):
            distance = signature_distance(
                signature,
                self._regimes[name].signature_at(at, max_stage=max_stage),
                quantile_weight=quantile_weight,
            )
            if distance < best_distance:
                best_name, best_distance = name, distance
        return best_name, best_distance

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": TABLE_SCHEMA,
            "reference_regime": self.reference_regime,
            "reference_delta": self.reference_delta,
            "stage_names": list(self.stage_names),
            "exit_totals": list(self.exit_totals),
            "regimes": {
                name: entry.to_dict() for name, entry in self._regimes.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "OperatingTable":
        schema = payload.get("schema")
        if schema not in TABLE_SCHEMAS:
            raise ConfigurationError(
                f"not an operating table (schema {schema!r}, "
                f"expected one of {TABLE_SCHEMAS!r})"
            )
        return cls(
            {
                name: RegimeEntry.from_dict(name, entry)
                for name, entry in payload["regimes"].items()
            },
            reference_regime=payload["reference_regime"],
            reference_delta=float(payload["reference_delta"]),
            stage_names=tuple(payload.get("stage_names", ())),
            exit_totals=tuple(payload.get("exit_totals", ())),
        )

    def save(self, path: str | Path) -> Path:
        """Write the table as pretty-printed JSON; returns the path.

        The write is atomic: the payload goes to a temporary file in the
        same directory and is moved over the target with ``os.replace``.
        Rebuilding a table over the artifact a live engine loads from must
        never leave a truncated file behind: a crash mid-write leaves the
        previous table intact.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            tmp.write_text(payload)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "OperatingTable":
        """Load a table previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    @staticmethod
    def default_path(checkpoint_path: str | Path) -> Path:
        """The conventional table location next to a model checkpoint:
        ``<checkpoint>.optable.json``."""
        path = Path(checkpoint_path)
        return path.with_name(path.name + ".optable.json")

    def __repr__(self) -> str:
        return (
            f"OperatingTable({len(self)} regime(s), "
            f"reference={self.reference_regime!r})"
        )


@dataclass(frozen=True)
class RetargetEvent:
    """One detector-triggered retarget: which regime the table matched,
    at which drift score, and the δ the controller landed on.

    ``trigger`` propagates the detector signal that fired ("level" or
    "rate").
    """

    observation: int
    regime: str
    score: float
    distance: float
    delta: float
    trigger: str = "level"


class AdaptiveDeltaPolicy:
    """Detector → table-match → retarget, wired into the engine's batch loop.

    Install via ``ServingConfig(..., adaptive=policy)``.  After every
    served micro-batch the engine calls :meth:`after_batch`; when the
    detector fires, the observed window signature is matched against the
    operating table at the *current* (δ, depth cap) operating point, the
    controller retargets onto the matched regime's curve, and the
    detector is rebased onto that regime's signature -- so a later shift
    (including back to clean) is just another drift event.  A
    :class:`~repro.serving.fabric.ServingFabric` feeds its merged fleet
    window to :meth:`after_window` instead, which runs the same step.

    The whole reaction is table lookups: zero online OPS, versus a full
    backbone pass per scheduled recalibration.
    """

    def __init__(
        self,
        table: OperatingTable,
        detector: DriftDetector | None = None,
        *,
        initial_regime: str | None = None,
        detector_kwargs: dict | None = None,
    ) -> None:
        self.table = table
        self.current_regime = initial_regime or table.reference_regime
        table.entry(self.current_regime)  # validate
        self.detector = detector  # None until prime() derives one
        #: Keyword arguments for the prime()-derived detector (threshold,
        #: rate_threshold, ...); ignored when a detector is supplied.
        self.detector_kwargs = dict(detector_kwargs or {})
        self.events: list[RetargetEvent] = []
        #: Telemetry sink propagated onto a prime()-derived detector; the
        #: engine rebinds it (and the detector's) when telemetry is on.
        self.observer = NULL_OBSERVER

    def rebind(self, table: OperatingTable) -> None:
        """Point the policy at another model's operating table (hot swap).

        Resets the current regime to the new table's reference; call
        :meth:`prime` afterwards so the controller and detector follow.
        The engine does both in ``use_model``.
        """
        self.table = table
        self.current_regime = table.reference_regime

    def prime(self, engine: "InferenceEngine") -> None:
        """Point the engine's controller at the initial regime's curve.

        Replaces the engine's lazy first-batch calibration: the table
        already holds the initial regime's δ → mean-OPS curve, so serving
        starts on budget with zero online calibration cost.  Also derives
        the default detector (referenced to the initial regime at the
        chosen δ / cap) when none was supplied.
        """
        controller = engine.controller
        point = controller.retarget(self.table, self.current_regime)
        cap = controller.max_stage(engine.entry.cost_table)
        reference = self.table.entry(self.current_regime).signature_at(
            controller.delta, max_stage=cap
        )
        if self.detector is None:
            self.detector = DriftDetector(reference, **self.detector_kwargs)
        else:
            self.detector.rebase(reference)
        if self.detector.observer is NULL_OBSERVER:
            self.detector.observer = self.observer
        _log.info(
            "adaptive serving primed: regime %r, delta %.3f (predicted %.3g ops)",
            self.current_regime,
            controller.delta,
            point.mean_ops,
        )

    def after_batch(
        self,
        engine: "InferenceEngine",
        exit_stages: np.ndarray,
        stage0_confidences: np.ndarray,
    ) -> RetargetEvent | None:
        """Feed the detector one served batch; on a drift event, retarget.

        Matches on the freshest ``min_observations`` batches only: the
        full window straddles the shift and is diluted with the previous
        regime.
        """
        detector = self._primed_detector()
        event = detector.observe(exit_stages, stage0_confidences)
        if event is None:
            return None
        observed = detector.window_signature(recent=detector.min_observations)
        return self._retarget(engine, event, observed)

    def after_window(
        self, engine: "InferenceEngine", signature: RegimeSignature
    ) -> RetargetEvent | None:
        """Feed the detector one assembled window; on a drift event, retarget.

        The fleet path: :class:`~repro.serving.fabric.ServingFabric` merges
        its replicas' window signatures count-weighted and hands the
        merged view here, which is also what a drift event matches on.
        ``engine`` only needs the ``controller`` and ``entry`` attributes.
        """
        event = self._primed_detector().observe_signature(signature)
        if event is None:
            return None
        return self._retarget(engine, event, signature)

    def _primed_detector(self) -> DriftDetector:
        if self.detector is None:
            raise ConfigurationError(
                "adaptive policy was never primed (pass it to InferenceEngine)"
            )
        return self.detector

    def _retarget(
        self,
        engine: "InferenceEngine",
        event: DriftEvent,
        observed: RegimeSignature,
    ) -> RetargetEvent:
        """Match ``observed`` against the table, retarget, rebase."""
        controller = engine.controller
        cap = controller.max_stage(engine.entry.cost_table)
        regime, distance = self.table.match(
            observed,
            delta=controller.delta,
            max_stage=cap,
            quantile_weight=self.detector.quantile_weight,
        )
        controller.retarget(self.table, regime)
        self.detector.rebase(
            self.table.entry(regime).signature_at(controller.delta, max_stage=cap)
        )
        retarget = RetargetEvent(
            observation=event.observation,
            regime=regime,
            score=event.score,
            distance=distance,
            delta=float(controller.delta),
            trigger=event.trigger,
        )
        self.current_regime = regime
        self.events.append(retarget)
        _log.info(
            "retargeted to regime %r (score %.3f, distance %.3f) -> delta %.3f",
            regime,
            event.score,
            distance,
            controller.delta,
        )
        return retarget

    def __repr__(self) -> str:
        return (
            f"AdaptiveDeltaPolicy(regime={self.current_regime!r}, "
            f"retargets={len(self.events)}, detector={self.detector})"
        )
