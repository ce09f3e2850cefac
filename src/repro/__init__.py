"""Reproduction of *Conditional Deep Learning for Energy-Efficient and
Enhanced Pattern Recognition* (P. Panda, A. Sengupta, K. Roy -- DATE 2016).

The public API re-exports the pieces most users need:

>>> from repro import make_dataset_pair, train_cdln, evaluate_cdln
>>> train, test = make_dataset_pair(3000, 1000, rng=0)
>>> trained = train_cdln(train, rng=1)
>>> report = evaluate_cdln(trained.cdln, test, delta=0.5)
>>> report.ops_improvement  # doctest: +SKIP
1.9...

Subpackages
-----------
``repro.nn``
    From-scratch numpy deep-learning framework (the training substrate).
``repro.data``
    Synthetic MNIST-like generator + real-MNIST IDX loader.
``repro.cdl``
    The paper's contribution: the conditional cascade, Algorithms 1 & 2.
``repro.ops`` / ``repro.energy``
    Operation counting and the 45 nm energy/synthesis model.
``repro.baselines``
    The unconditional DLN baseline and the scalable-effort cascade of [1].
``repro.experiments``
    One module per paper table/figure.
``repro.serving``
    Batched early-exit inference serving: a model registry, an engine
    with dynamic micro-batching, a budget-aware delta controller,
    backpressure shedding, per-request ops/energy/latency metrics, and
    an open-loop load generator with SLO reporting.

Serving quickstart:

>>> from repro import InferenceEngine, ServingConfig
>>> engine = InferenceEngine.from_config(
...     ServingConfig(model=trained.cdln, delta=0.6))  # doctest: +SKIP
>>> engine.classify(test.images[0]).exit_stage_name  # doctest: +SKIP
'O1'
"""

from repro.cdl import (
    CDLN,
    ActivationModule,
    CdlTrainingConfig,
    LinearClassifier,
    TrainedCdl,
    classify_instance,
    evaluate_baseline_accuracy,
    evaluate_cdln,
    mnist_2c,
    mnist_3c,
    train_cdln,
)
from repro.data import DigitDataset, generate_synthetic_mnist, make_dataset_pair
from repro.energy import TECHNOLOGY_45NM, EnergyReport, TechnologyModel
from repro.errors import (
    ConfigurationError,
    DataError,
    NotFittedError,
    ReproError,
    SerializationError,
    ShapeError,
)
from repro.nn import Network, Trainer
from repro.obs import NULL_OBSERVER, Observer
from repro.ops import OpCount, network_total_ops
from repro.serving import (
    ArrivalSchedule,
    AsyncEngine,
    DeltaController,
    InferenceEngine,
    InferenceResponse,
    LoadRunner,
    MicroBatchPolicy,
    ModelRegistry,
    ServingConfig,
    ServingMetrics,
    ShedPolicy,
    SLOReport,
)
from repro.version import PAPER, __version__

__all__ = [
    "ActivationModule",
    "ArrivalSchedule",
    "AsyncEngine",
    "CDLN",
    "CdlTrainingConfig",
    "ConfigurationError",
    "DataError",
    "DeltaController",
    "DigitDataset",
    "EnergyReport",
    "InferenceEngine",
    "InferenceResponse",
    "LinearClassifier",
    "LoadRunner",
    "MicroBatchPolicy",
    "ModelRegistry",
    "NULL_OBSERVER",
    "Network",
    "NotFittedError",
    "Observer",
    "OpCount",
    "PAPER",
    "ReproError",
    "SLOReport",
    "SerializationError",
    "ServingConfig",
    "ServingMetrics",
    "ShapeError",
    "ShedPolicy",
    "TECHNOLOGY_45NM",
    "TechnologyModel",
    "TrainedCdl",
    "Trainer",
    "__version__",
    "classify_instance",
    "evaluate_baseline_accuracy",
    "evaluate_cdln",
    "generate_synthetic_mnist",
    "make_dataset_pair",
    "mnist_2c",
    "mnist_3c",
    "network_total_ops",
    "train_cdln",
]
