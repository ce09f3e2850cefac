"""The unconditional DLN baseline.

Every input pays the full forward pass; this is the reference against
which every figure normalizes.  The evaluation object deliberately mirrors
:class:`~repro.cdl.statistics.CdlEvaluation`'s headline fields so tables
can interleave both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import DigitDataset
from repro.energy.models import network_energy
from repro.energy.technology import TECHNOLOGY_45NM, TechnologyModel
from repro.nn.metrics import accuracy, per_class_accuracy
from repro.nn.network import Network
from repro.ops.counting import network_total_ops


@dataclass(frozen=True)
class BaselineEvaluation:
    """Accuracy and (flat) cost of the unconditional baseline."""

    accuracy: float
    per_digit_accuracy: np.ndarray
    ops_per_input: int
    energy_pj_per_input: float

    @property
    def normalized_ops(self) -> float:
        """Always 1.0 -- the baseline normalizes itself."""
        return 1.0


def evaluate_dln(
    network: Network,
    dataset: DigitDataset,
    *,
    technology: TechnologyModel = TECHNOLOGY_45NM,
) -> BaselineEvaluation:
    """Evaluate the always-run-everything baseline on ``dataset``."""
    predicted = network.predict_labels(dataset.images)
    return BaselineEvaluation(
        accuracy=accuracy(predicted, dataset.labels),
        per_digit_accuracy=per_class_accuracy(
            predicted, dataset.labels, dataset.num_classes
        ),
        ops_per_input=network_total_ops(network),
        energy_pj_per_input=network_energy(network, technology),
    )
