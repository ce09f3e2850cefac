"""The Conditional Deep Learning Network (CDLN).

``CDLN`` wraps a *trained* baseline :class:`~repro.nn.network.Network` with
linear-classifier stages at chosen attach points and performs the
conditional cascade of Fig. 3(b): an input flows through the backbone
segment-by-segment, each stage's activation module decides terminate vs.
forward, and only forwarded inputs pay for deeper layers.

The implementation is batched: the active set shrinks as inputs exit, and
backbone segments run only on the still-active subset -- mirroring the
hardware behaviour where deeper layers are simply not enabled.  The
shrinking-active-set loop itself lives in
:func:`repro.serving.cascade.execute_cascade`, shared with the
single-instance tracer and the serving engine so every path makes
identical decisions.  Every backbone pass here, the cascade's segments
and :meth:`CDLN.backbone_outputs` alike, runs through the backbone's one
inference loop, which bounds its temporaries by running fixed blocks of
images (:data:`repro.nn.network.BLOCK_ROWS`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.cdl.confidence import ActivationModule
from repro.cdl.linear_classifier import LinearClassifier
from repro.cdl.stages import Stage
from repro.errors import ConfigurationError, NotFittedError
from repro.nn.activations import Softmax
from repro.nn.layers import Dense
from repro.nn.network import Network
from repro.ops.counting import OpCount, cumulative_ops
from repro.ops.profile import ConditionalOpsProfile, PathCostTable
from repro.serving.cascade import execute_cascade


@dataclass(frozen=True)
class CdlBatchResult:
    """Outcome of conditional classification for a batch of inputs."""

    #: Predicted label per input, ``(N,)``.
    labels: np.ndarray
    #: Cascade stage index each input exited at, ``(N,)``.
    exit_stages: np.ndarray
    #: Confidence the exiting stage reported, ``(N,)``.
    confidences: np.ndarray
    #: Stage display names (aligned with stage indices).
    stage_names: tuple[str, ...]
    #: Cost of exiting at each stage plus the unconditional baseline cost.
    costs: PathCostTable

    def ops_profile(self, true_labels: np.ndarray) -> ConditionalOpsProfile:
        """Operation profile using ``true_labels`` for per-digit grouping."""
        return ConditionalOpsProfile.from_exits(self.exit_stages, true_labels, self.costs)

    def stage_exit_counts(self) -> np.ndarray:
        return np.bincount(self.exit_stages, minlength=len(self.stage_names))


class CDLN:
    """A baseline DLN augmented with conditional early-exit stages.

    Parameters
    ----------
    baseline:
        A trained backbone network (its parameters are *not* modified).
    attach_indices:
        Baseline layer indices whose outputs feed linear classifiers, in
        increasing depth order (the paper attaches after pooling layers).
    activation_module:
        The confidence gate shared by all stages.
    classifier_factory:
        Callable producing a fresh :class:`LinearClassifier` per stage
        (lets callers choose rule/epochs/learning rate).
    stage_names:
        Optional display names; defaults to ``O1..On`` plus ``FC``.
    """

    def __init__(
        self,
        baseline: Network,
        attach_indices: Sequence[int],
        *,
        activation_module: ActivationModule | None = None,
        classifier_factory=None,
        stage_names: Sequence[str] | None = None,
    ) -> None:
        self.baseline = baseline
        attach = [int(i) for i in attach_indices]
        if sorted(set(attach)) != attach:
            raise ConfigurationError(
                f"attach_indices must be strictly increasing, got {attach_indices}"
            )
        last_layer = len(baseline.layers) - 1
        if attach and (attach[0] < 0 or attach[-1] >= last_layer):
            raise ConfigurationError(
                f"attach_indices must lie in [0, {last_layer}) "
                f"(before the baseline head), got {attach}"
            )
        self.activation_module = activation_module or ActivationModule()
        factory = classifier_factory or (lambda: LinearClassifier(self._num_classes()))
        names = list(stage_names) if stage_names is not None else [
            f"O{i + 1}" for i in range(len(attach))
        ]
        if len(names) != len(attach):
            raise ConfigurationError("stage_names must align with attach_indices")
        self.stages: list[Stage] = [
            Stage(name=names[i], attach_index=attach[i], classifier=factory())
            for i in range(len(attach))
        ] + [Stage(name="FC", is_final=True)]
        self._fitted = False

    # -- helpers ---------------------------------------------------------------
    def _num_classes(self) -> int:
        return int(self.baseline.output_shape[0])

    @property
    def num_classes(self) -> int:
        return self._num_classes()

    @property
    def linear_stages(self) -> list[Stage]:
        return [s for s in self.stages if not s.is_final]

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stages)

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def _final_outputs_are_probabilities(self) -> bool:
        head = self.baseline.layers[-1]
        return isinstance(head, Dense) and isinstance(head.activation, Softmax)

    # -- feature extraction ------------------------------------------------------
    def extract_features(self, images: np.ndarray) -> dict[int, np.ndarray]:
        """Flattened baseline activations at every attach point.

        Returns ``{attach_index: (N, D_i) features}`` from one inference
        pass, which :class:`~repro.nn.network.Network` runs in fixed blocks,
        so its temporaries stay bounded on large datasets.
        """
        if not self.linear_stages:
            return {}
        return self.backbone_outputs(images)[0]

    def backbone_outputs(
        self, images: np.ndarray
    ) -> tuple[dict[int, np.ndarray], np.ndarray]:
        """One inference pass: ``(features, final_outputs)``.

        ``features`` is :meth:`extract_features`' mapping; ``final_outputs``
        is the baseline head's ``(N, num_classes)`` output, everything a
        :class:`~repro.cdl.score_cache.StageScoreCache` needs besides the
        classifiers.
        """
        taps = [s.attach_index for s in self.linear_stages]
        out, acts = self.baseline.forward_collect(images, taps)
        features = {t: acts[t].reshape(images.shape[0], -1) for t in taps}
        return features, out

    # -- training (Algorithm 1, steps 4-7) ----------------------------------------
    def fit_linear_classifiers(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        *,
        train_on: str = "all",
        delta: float | None = None,
        features: dict[int, np.ndarray] | None = None,
    ) -> "CDLN":
        """Train every stage's linear classifier on the baseline's features.

        Parameters
        ----------
        features:
            :meth:`extract_features` of ``images`` when the caller already
            has it (Algorithm 1 reuses its one backbone pass); computed here
            otherwise.
        train_on:
            ``"all"`` trains each classifier on the full training set;
            ``"passed"`` trains stage ``i`` only on the instances the
            previous stages forwarded (the paper's Section III.A note),
            using ``delta`` for the pass decision.
        """
        if train_on not in ("all", "passed"):
            raise ConfigurationError(f"train_on must be 'all' or 'passed', got {train_on!r}")
        labels = np.asarray(labels, dtype=np.int64).ravel()
        if features is None:
            features = self.extract_features(images)
        remaining = np.arange(images.shape[0])
        for stage in self.linear_stages:
            feats = features[stage.attach_index]
            if train_on == "passed":
                if remaining.size == 0:
                    # Every instance already classified upstream; train on the
                    # full set so the stage still generalizes.
                    stage.classifier.fit(feats, labels)
                    continue
                stage.classifier.fit(feats[remaining], labels[remaining])
                verdict = self.activation_module.decide(
                    stage.classifier.confidence_scores(feats[remaining]),
                    delta,
                    scores_are_probabilities=True,
                )
                remaining = remaining[~verdict.terminate]
            else:
                stage.classifier.fit(feats, labels)
        self._fitted = True
        return self

    def clone_with_stages(self, stage_names: Sequence[str]) -> "CDLN":
        """A lightweight copy restricted to the named linear stages.

        The clone shares the baseline network and the (already trained)
        classifiers; only the stage list is new.  Used by the gain-based
        admission to evaluate leave-one-out cascades without retraining.
        """
        unknown = set(stage_names) - {s.name for s in self.linear_stages}
        if unknown:
            raise ConfigurationError(f"unknown stage names: {sorted(unknown)}")
        clone = object.__new__(CDLN)
        clone.baseline = self.baseline
        clone.activation_module = self.activation_module
        clone.stages = [
            s for s in self.stages if s.is_final or s.name in set(stage_names)
        ]
        clone._fitted = self._fitted
        return clone

    def astype(self, dtype) -> "CDLN":
        """Cast the backbone and every stage classifier (in place) to ``dtype``.

        Layers and classifiers compute in their parameter dtype, so this
        switches the whole cascade's arithmetic; see
        :mod:`repro.nn.compute`.  Returns ``self``.
        """
        self.baseline.astype(dtype)
        for stage in self.linear_stages:
            stage.classifier.astype(dtype)
        return self

    def drop_stage(self, name: str) -> "CDLN":
        """Remove a linear stage by name (used by the gain-based admission)."""
        keep = [s for s in self.stages if s.is_final or s.name != name]
        if len(keep) == len(self.stages):
            raise ConfigurationError(f"no linear stage named {name!r}")
        self.stages = keep
        return self

    # -- cost accounting ------------------------------------------------------------
    def path_cost_table(self) -> PathCostTable:
        """Cumulative exit cost per stage (Section II.A's gamma values).

        Exit at linear stage ``s`` pays: backbone layers up to and including
        its attach point, plus every linear classifier evaluated at stages
        ``0..s``.  Exit at the final stage pays the whole backbone plus all
        linear classifiers.  The baseline cost is the whole backbone alone.
        """
        self._require_fitted()
        exit_costs: list[OpCount] = []
        lc_cost_so_far = OpCount.zero()
        for stage in self.stages:
            if stage.is_final:
                backbone = cumulative_ops(self.baseline)
            else:
                lc_cost_so_far = lc_cost_so_far + stage.classifier.op_cost()
                backbone = cumulative_ops(self.baseline, stage.attach_index + 1)
            exit_costs.append(backbone + lc_cost_so_far)
        return PathCostTable(
            exit_costs=tuple(exit_costs),
            baseline_cost=cumulative_ops(self.baseline),
            stage_names=self.stage_names,
        )

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(
                "CDLN linear classifiers are untrained; call fit_linear_classifiers()"
            )

    # -- conditional inference (Algorithm 2) -------------------------------------------
    def predict(
        self,
        images: np.ndarray,
        delta: float | None = None,
        *,
        batch_size: int = 512,
    ) -> CdlBatchResult:
        """Classify a batch conditionally.

        Each input flows through backbone segments; at every linear stage
        the activation module either terminates it (recording that stage's
        label and cost) or forwards it.  Whatever reaches the final stage is
        classified by the baseline head.
        """
        self._require_fitted()
        n = images.shape[0]
        labels = np.full(n, -1, dtype=np.int64)
        exits = np.full(n, -1, dtype=np.int64)
        confidences = np.zeros(n, dtype=np.float64)
        for start in range(0, n, batch_size):
            sl = slice(start, min(start + batch_size, n))
            chunk = execute_cascade(self, images[sl], delta)
            labels[sl] = chunk.labels
            exits[sl] = chunk.exit_stages
            confidences[sl] = chunk.confidences
        return CdlBatchResult(
            labels=labels,
            exit_stages=exits,
            confidences=confidences,
            stage_names=self.stage_names,
            costs=self.path_cost_table(),
        )

    def __repr__(self) -> str:
        stages = ", ".join(s.name for s in self.stages)
        return f"CDLN(stages=[{stages}], fitted={self._fitted})"
