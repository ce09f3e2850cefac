"""Score-once / replay-many stage-score caching for cascade sweeps.

Every stage of the conditional cascade makes a *per-input* decision from
that stage's confidence scores alone -- the runtime knob δ, a hard depth
cap, the stage subset, even the confidence policy only change how those
scores are *thresholded*, never the scores themselves.  Sweeps therefore
waste almost all their arithmetic: Fig. 9 re-runs the backbone once per
stage subset, Fig. 10 once per δ, the gain-based admission once per
leave-one-out trial, and the serving controller's calibration once per
grid point.

:class:`StageScoreCache` runs the backbone exactly once (one
``forward_collect`` pass over the sample), caches each linear stage's
confidence scores and the final head's outputs, and then *replays* the
cascade for any ``(delta, stage subset, depth cap, policy)`` combination
in pure numpy.  The replay is exact, not approximate: it thresholds the
very arrays the real executor would compute, so exits, labels and
confidences match :meth:`repro.cdl.network.CDLN.predict` bit for bit.

An entire δ grid then costs one predict-equivalent pass plus a handful of
vectorized comparisons per grid point.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cdl.network import CDLN, CdlBatchResult
from repro.errors import ConfigurationError

#: Rows per chunk of :meth:`StageScoreCache.build`'s backbone-and-score pass
#: and of :meth:`StageScoreCache.from_features`' scoring.  A classifier GEMM's
#: bits depend on its row count, so the two share this one chunk size.  It is
#: a multiple of :data:`repro.nn.network.BLOCK_ROWS`, so ``build``'s backbone
#: runs the same blocks as one :meth:`~repro.cdl.network.CDLN.backbone_outputs`
#: pass, whose head outputs ``from_features`` takes as they are.
_SCORE_CHUNK = 256


def first_terminating_stage(
    terminate: np.ndarray, max_stage: int | None = None
) -> np.ndarray:
    """Exit stage per input from a ``(num_stages, N)`` terminate matrix.

    The final row must be all-True (the cascade head always classifies).
    ``max_stage`` applies the hard depth cap by force-terminating every
    row at or past it -- the single definition of that semantic, shared by
    :class:`StageScoreCache` and :func:`exit_stages_from_scores`.  Mutates
    ``terminate`` in place.
    """
    if max_stage is not None:
        terminate[max_stage:] = True
    return terminate.argmax(axis=0)


def exit_stages_from_scores(
    stage_scores,
    activation_module,
    delta: float | None,
    num_stages: int,
    *,
    max_stage: int | None = None,
    num_inputs: int | None = None,
) -> np.ndarray:
    """Exit stage per input from raw per-stage confidence scores.

    ``stage_scores[i]`` holds the ``(N, C)`` scores of linear stage ``i``
    for the full sample; the replay thresholds them exactly as the live
    executor would (``scores_are_probabilities=True``, final stage
    all-terminate).
    """
    if len(stage_scores) != num_stages - 1:
        raise ConfigurationError(
            f"expected scores for {num_stages - 1} linear stages, "
            f"got {len(stage_scores)}"
        )
    n = stage_scores[0].shape[0] if stage_scores else int(num_inputs or 0)
    terminate = np.ones((num_stages, n), dtype=bool)
    for row, scores in enumerate(stage_scores):
        terminate[row] = activation_module.decide(
            scores, delta, scores_are_probabilities=True
        ).terminate
    return first_terminating_stage(terminate, max_stage)


class StageScoreCache:
    """Cached per-stage scores of one sample batch, ready for replay.

    Build once with :meth:`build`, then call :meth:`replay` (full
    :class:`~repro.cdl.network.CdlBatchResult`) or :meth:`exit_stages`
    (exit indices only) as many times as the sweep needs.

    The cache references the ``cdln`` it was built from for stage
    bookkeeping and cost tables; dropping stages from that CDLN afterwards
    is fine (replays are restricted to the surviving stages), but
    refitting classifiers or retraining the backbone invalidates the
    cached scores.
    """

    def __init__(
        self,
        cdln: CDLN,
        stage_scores: dict[str, np.ndarray],
        final_scores: np.ndarray,
    ) -> None:
        self._cdln = cdln
        self._scores = stage_scores
        self._final = final_scores
        self._final_probs = cdln._final_outputs_are_probabilities()

    # -- construction ----------------------------------------------------------
    @classmethod
    def build(
        cls, cdln: CDLN, images: np.ndarray, *, batch_size: int = _SCORE_CHUNK
    ) -> "StageScoreCache":
        """One full backbone pass over ``images``, scoring every stage.

        Memory stays bounded: each chunk's tap activations are reduced to
        ``(N, num_classes)`` scores immediately, so the cache holds
        ``num_stages`` small score matrices rather than feature maps.
        """
        cdln._require_fitted()
        if images.shape[0] == 0:
            return cls._empty(cdln)
        stages = list(cdln.linear_stages)
        taps = [s.attach_index for s in stages]
        per_stage: dict[str, list[np.ndarray]] = {s.name: [] for s in stages}
        final_parts: list[np.ndarray] = []
        for start in range(0, images.shape[0], batch_size):
            chunk = images[start : start + batch_size]
            out, acts = cdln.baseline.forward_collect(chunk, taps)
            for stage in stages:
                feats = acts[stage.attach_index].reshape(chunk.shape[0], -1)
                per_stage[stage.name].append(stage.classifier.confidence_scores(feats))
            final_parts.append(out)
        return cls(
            cdln,
            {name: np.concatenate(parts, axis=0) for name, parts in per_stage.items()},
            np.concatenate(final_parts, axis=0),
        )

    @classmethod
    def from_features(
        cls,
        cdln: CDLN,
        features: dict[int, np.ndarray],
        final_outputs: np.ndarray,
    ) -> "StageScoreCache":
        """The cache :meth:`build` would make, from a pass already taken.

        ``(features, final_outputs)`` is
        :meth:`~repro.cdl.network.CDLN.backbone_outputs` of the sample at
        its default chunking.  Scoring runs in :meth:`build`'s default
        chunks, so every classifier GEMM has the same shape and the scores
        match ``build(cdln, images)`` bit for bit.
        """
        cdln._require_fitted()
        n = final_outputs.shape[0]
        if n == 0:
            return cls._empty(cdln)
        scores = {
            stage.name: np.concatenate(
                [
                    stage.classifier.confidence_scores(
                        features[stage.attach_index][start : start + _SCORE_CHUNK]
                    )
                    for start in range(0, n, _SCORE_CHUNK)
                ],
                axis=0,
            )
            for stage in cdln.linear_stages
        }
        return cls(cdln, scores, final_outputs)

    @classmethod
    def _empty(cls, cdln: CDLN) -> "StageScoreCache":
        # Degenerate but well-formed: zero-row score matrices replay to
        # empty results instead of tripping np.concatenate on [].
        empty = np.empty((0, cdln.num_classes), dtype=np.float64)
        return cls(
            cdln,
            {stage.name: empty.copy() for stage in cdln.linear_stages},
            empty.copy(),
        )

    # -- introspection ---------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        return int(self._final.shape[0])

    @property
    def num_stages(self) -> int:
        """Stage count of the source CDLN (linear stages + final head)."""
        return len(self._cdln.stages)

    @property
    def cached_stage_names(self) -> tuple[str, ...]:
        return tuple(self._scores)

    def scores_for(self, stage_name: str) -> np.ndarray:
        """The cached ``(N, C)`` confidence scores of one linear stage."""
        try:
            return self._scores[stage_name]
        except KeyError:
            raise ConfigurationError(
                f"no cached scores for stage {stage_name!r}; "
                f"cached: {sorted(self._scores)}"
            ) from None

    def stage0_confidences(self, *, activation_module=None) -> np.ndarray:
        """Per-input confidence of the cascade's *first* stage, ``(N,)``.

        The first stage sees every input (nothing has exited yet), so its
        confidences fingerprint the input distribution itself -- and for
        the built-in policies the confidence value depends only on the
        scores, never on δ or a depth cap.  This is the adaptive serving
        drift signal (:mod:`repro.serving.adaptive`): compare live
        stage-0 confidence quantiles against a reference sample's.

        Falls back to the final head for a cascade with no linear stages.
        """
        am = activation_module
        if am is None:
            am = self._cdln.activation_module
        stages = list(self._cdln.linear_stages)
        if stages:
            scores = self.scores_for(stages[0].name)
            probs = True
        else:
            scores = self._final
            probs = self._final_probs
        return am.decide(scores, None, scores_are_probabilities=probs).confidence

    # -- replay ----------------------------------------------------------------
    def _decide(
        self,
        delta: float | None,
        stages: Sequence[str] | None,
        max_stage: int | None,
        activation_module,
    ) -> tuple[CDLN, np.ndarray, np.ndarray, np.ndarray]:
        """Threshold the cached scores: per-stage (terminate, label, conf)."""
        target = self._cdln if stages is None else self._cdln.clone_with_stages(stages)
        am = activation_module
        if am is None:
            am = target.activation_module
        num_stages = len(target.stages)
        if max_stage is not None and not 0 <= max_stage < num_stages:
            raise ConfigurationError(
                f"max_stage must lie in [0, {num_stages}), got {max_stage}"
            )
        n = self.num_inputs
        terminate = np.empty((num_stages, n), dtype=bool)
        labels = np.empty((num_stages, n), dtype=np.int64)
        confidences = np.empty((num_stages, n), dtype=np.float64)
        for row, stage in enumerate(target.linear_stages):
            verdict = am.decide(
                self.scores_for(stage.name), delta, scores_are_probabilities=True
            )
            terminate[row] = verdict.terminate
            labels[row] = verdict.labels
            confidences[row] = verdict.confidence
        verdict = am.decide(
            self._final, delta, scores_are_probabilities=self._final_probs
        )
        terminate[-1] = True
        labels[-1] = verdict.labels
        confidences[-1] = verdict.confidence
        return target, terminate, labels, confidences

    def exit_stages(
        self,
        delta: float | None = None,
        *,
        stages: Sequence[str] | None = None,
        max_stage: int | None = None,
        activation_module=None,
    ) -> np.ndarray:
        """Exit stage index per input (the controller's calibration core)."""
        _, terminate, _, _ = self._decide(delta, stages, max_stage, activation_module)
        return first_terminating_stage(terminate, max_stage)

    def replay(
        self,
        delta: float | None = None,
        *,
        stages: Sequence[str] | None = None,
        max_stage: int | None = None,
        activation_module=None,
    ) -> CdlBatchResult:
        """Re-run the cascade's decisions without touching the backbone.

        Parameters
        ----------
        delta:
            Runtime confidence threshold (defaults to the activation
            module's own).
        stages:
            Restrict the cascade to these linear stages (a Fig. 9-style
            subset); ``None`` replays every surviving stage of the source
            CDLN.
        max_stage:
            Hard depth cap, as in
            :func:`repro.serving.cascade.execute_cascade`.
        activation_module:
            Override the confidence policy (the confidence-policy ablation
            sweeps this) without rebuilding the cache.
        """
        target, terminate, labels, confidences = self._decide(
            delta, stages, max_stage, activation_module
        )
        # First stage whose per-input verdict is "terminate"; the final row
        # is all-True, so the argmax always resolves.
        exits = first_terminating_stage(terminate, max_stage)
        picker = np.arange(self.num_inputs)
        return CdlBatchResult(
            labels=labels[exits, picker],
            exit_stages=exits,
            confidences=confidences[exits, picker],
            stage_names=target.stage_names,
            costs=target.path_cost_table(),
        )

    def __repr__(self) -> str:
        return (
            f"StageScoreCache({self.num_inputs} inputs, "
            f"stages={list(self._scores)})"
        )
