"""A from-scratch numpy deep-learning framework.

This package is the training substrate the paper obtained from a MATLAB
toolbox ([19] R. Palm, "Prediction as a candidate for learning deep
hierarchical models of data").  It provides everything needed to train the
paper's small convolutional networks: convolution/pooling/dense layers with
full backpropagation, standard activations and losses, first-order
optimizers, a mini-batch trainer, metrics, and checkpointing.

Data layout conventions
-----------------------
* Image batches are ``(N, C, H, W)`` float arrays in ``[0, 1]``.
* Flat feature batches are ``(N, D)``.
* Labels are integer class indices ``(N,)``; losses one-hot internally.
* Models compute in their parameter dtype, chosen at build time by the
  active :mod:`repro.nn.compute` policy (float64 default, float32 for
  serving/bench workloads).
"""

from repro.nn.compute import (
    ComputePolicy,
    active_policy,
    compute_policy,
    default_policy,
    resolve_dtype,
    set_default_policy,
)
from repro.nn.activations import (
    Identity,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
    get_activation,
)
from repro.nn.initializers import (
    Constant,
    GlorotNormal,
    GlorotUniform,
    HeNormal,
    LecunNormal,
    Zeros,
    get_initializer,
)
from repro.nn.layers import (
    ActivationLayer,
    AvgPool2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
)
from repro.nn.losses import MeanSquaredError, SoftmaxCrossEntropy, get_loss
from repro.nn.metrics import (
    accuracy,
    confusion_matrix,
    per_class_accuracy,
    topk_accuracy,
)
from repro.nn.network import Network
from repro.nn.optimizers import (
    SGD,
    Adam,
    ConstantSchedule,
    ExponentialDecay,
    Momentum,
    StepDecay,
    get_optimizer,
)
from repro.nn.serialization import load_network, save_network
from repro.nn.trainer import EpochStats, Trainer, TrainingHistory

__all__ = [
    "SGD",
    "ActivationLayer",
    "Adam",
    "AvgPool2D",
    "ComputePolicy",
    "Constant",
    "ConstantSchedule",
    "Conv2D",
    "Dense",
    "Dropout",
    "EpochStats",
    "ExponentialDecay",
    "Flatten",
    "GlorotNormal",
    "GlorotUniform",
    "HeNormal",
    "Identity",
    "Layer",
    "LecunNormal",
    "MaxPool2D",
    "MeanSquaredError",
    "Momentum",
    "Network",
    "ReLU",
    "Sigmoid",
    "Softmax",
    "SoftmaxCrossEntropy",
    "StepDecay",
    "Tanh",
    "Trainer",
    "TrainingHistory",
    "Zeros",
    "accuracy",
    "active_policy",
    "compute_policy",
    "default_policy",
    "resolve_dtype",
    "set_default_policy",
    "confusion_matrix",
    "get_activation",
    "get_initializer",
    "get_loss",
    "get_optimizer",
    "load_network",
    "per_class_accuracy",
    "save_network",
    "topk_accuracy",
]
