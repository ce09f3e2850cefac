"""End-to-end CDLN construction (Algorithm 1).

:func:`train_cdln` performs the whole pipeline the paper describes:

1. train the baseline DLN on the training set (step 1);
2. attach a linear classifier at every requested convolutional stage and
   train each with the LMS rule on that stage's features (steps 4-7);
3. measure each stage's gain G_i on the training set and drop stages that
   do not clear the user threshold epsilon (steps 8-10).

The returned :class:`TrainedCdl` bundles the baseline, the CDLN, training
history and the admission diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cdl.architectures import ARCHITECTURES, build_architecture, recipe_loss
from repro.cdl.confidence import ActivationModule
from repro.cdl.gain import AdmissionResult, admit_stages
from repro.cdl.linear_classifier import LinearClassifier
from repro.cdl.network import CDLN
from repro.cdl.score_cache import StageScoreCache
from repro.data.dataset import DigitDataset
from repro.errors import ConfigurationError
from repro.nn.network import Network
from repro.nn.optimizers import Adam, SGD
from repro.nn.trainer import Trainer, TrainingHistory
from repro.utils.logging import get_logger
from repro.utils.rng import ensure_rng, spawn_rngs

_log = get_logger("cdl.training")


@dataclass(frozen=True)
class CdlTrainingConfig:
    """Hyper-parameters for Algorithm 1.

    Attributes
    ----------
    architecture:
        Name in :data:`~repro.cdl.architectures.ARCHITECTURES`, used when
        no explicit baseline is supplied.
    recipe:
        ``"modern"`` (ReLU + cross-entropy + Adam) or ``"paper"``
        (sigmoid + MSE + SGD, the recipe of [19]).
    baseline_epochs, batch_size, learning_rate:
        Baseline training loop parameters.
    lc_rule, lc_epochs, lc_learning_rate, lc_l2:
        Linear-classifier (stage) training parameters (``lc_l2`` is the
        ridge/weight-decay strength).
    delta:
        Default confidence threshold of the activation module.
    confidence_policy:
        Name of the termination policy.
    gain_epsilon:
        Admission threshold for G_i; ``None`` skips admission (keeps every
        requested stage -- used by the stage-sweep experiments).
    train_lc_on:
        ``"all"`` or ``"passed"`` (see
        :meth:`~repro.cdl.network.CDLN.fit_linear_classifiers`).
    """

    architecture: str = "mnist_3c"
    recipe: str = "modern"
    baseline_epochs: int = 8
    batch_size: int = 32
    learning_rate: float = 0.005
    lc_rule: str = "ridge"
    lc_epochs: int = 12
    lc_learning_rate: float = 0.5
    lc_l2: float = 0.05
    delta: float = 0.6
    confidence_policy: str = "score_threshold"
    gain_epsilon: float | None = 0.0
    train_lc_on: str = "all"

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ConfigurationError(
                f"unknown architecture {self.architecture!r}; "
                f"available: {sorted(ARCHITECTURES)}"
            )


@dataclass
class TrainedCdl:
    """Everything Algorithm 1 produces."""

    baseline: Network
    cdln: CDLN
    config: CdlTrainingConfig
    baseline_history: TrainingHistory
    admission: AdmissionResult = field(default_factory=AdmissionResult)

    @property
    def stage_names(self) -> tuple[str, ...]:
        return self.cdln.stage_names


def _make_optimizer(config: CdlTrainingConfig):
    if config.recipe == "paper":
        return SGD(learning_rate=config.learning_rate)
    return Adam(learning_rate=config.learning_rate)


def train_baseline(
    train: DigitDataset,
    config: CdlTrainingConfig,
    rng: int | np.random.Generator | None = None,
    validation: DigitDataset | None = None,
) -> tuple[Network, TrainingHistory]:
    """Algorithm 1 step 1: learn the baseline DLN."""
    init_rng, shuffle_rng = spawn_rngs(rng, 2)
    network, _spec = build_architecture(config.architecture, init_rng, config.recipe)
    trainer = Trainer(
        network,
        loss=recipe_loss(config.recipe),
        optimizer=_make_optimizer(config),
        batch_size=config.batch_size,
        rng=shuffle_rng,
    )
    val = (validation.images, validation.labels) if validation is not None else None
    history = trainer.fit(
        train.images, train.labels, epochs=config.baseline_epochs, validation=val
    )
    return network, history


def train_cdln(
    train: DigitDataset,
    *,
    config: CdlTrainingConfig | None = None,
    baseline: Network | None = None,
    attach_indices: tuple[int, ...] | None = None,
    rng: int | np.random.Generator | None = None,
    validation: DigitDataset | None = None,
) -> TrainedCdl:
    """Run Algorithm 1 end to end.

    Parameters
    ----------
    train:
        Training dataset (used for the baseline, the linear classifiers
        and the gain measurement).
    config:
        Hyper-parameters; defaults reproduce MNIST_3C.
    baseline:
        Optional pre-trained backbone (skips step 1).  Requires
        ``attach_indices``... unless the architecture's defaults apply.
    attach_indices:
        Tap points; defaults to the architecture's paper-specified taps.
    """
    config = config or CdlTrainingConfig()
    rng = ensure_rng(rng)
    spec = ARCHITECTURES[config.architecture]
    history = TrainingHistory()
    if baseline is None:
        _log.info("training baseline %s (%s recipe)", spec.name, config.recipe)
        baseline, history = train_baseline(train, config, rng, validation)
    taps = tuple(attach_indices) if attach_indices is not None else spec.attach_indices

    lc_rngs = spawn_rngs(rng, len(taps))
    rng_iter = iter(lc_rngs)

    def classifier_factory() -> LinearClassifier:
        return LinearClassifier(
            num_classes=int(baseline.output_shape[0]),
            rule=config.lc_rule,
            learning_rate=config.lc_learning_rate,
            epochs=config.lc_epochs,
            l2=config.lc_l2,
            rng=next(rng_iter),
        )

    cdln = CDLN(
        baseline,
        taps,
        activation_module=ActivationModule(
            delta=config.delta, policy=config.confidence_policy
        ),
        classifier_factory=classifier_factory,
    )
    # One backbone pass over the training set feeds both the classifiers'
    # features (steps 4-7) and the admission score cache (steps 8-10).
    features, final_outputs = cdln.backbone_outputs(train.images)
    _log.info("training %d linear classifiers", len(taps))
    cdln.fit_linear_classifiers(
        train.images,
        train.labels,
        train_on=config.train_lc_on,
        delta=config.delta,
        features=features,
    )
    admission = AdmissionResult(kept=[s.name for s in cdln.linear_stages])
    if config.gain_epsilon is not None:
        cache = StageScoreCache.from_features(cdln, features, final_outputs)
        admission = admit_stages(
            cdln,
            train.images,
            epsilon=config.gain_epsilon,
            delta=config.delta,
            cache=cache,
        )
        _log.info("admission kept stages: %s", admission.kept)
    return TrainedCdl(
        baseline=baseline,
        cdln=cdln,
        config=config,
        baseline_history=history,
        admission=admission,
    )
