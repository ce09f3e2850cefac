"""Table III: classification accuracy, baseline DLN vs CDLN.

Paper: 6-layer 98.04 % -> 99.05 % (MNIST_2C); 8-layer 97.55 % -> 98.92 %
(MNIST_3C).  The shape to reproduce is CDLN accuracy >= baseline accuracy
on both architectures, because the stage classifiers reach their own (low)
error minima on the features they see.

Protocol note: the paper operates each CDLN at the accuracy-optimal δ
(its Fig. 10 identifies δ = 0.5 as the peak before reporting Table III's
numbers).  This module follows that protocol explicitly: δ is chosen per
architecture by sweeping on a *held-out validation set* (freshly generated,
disjoint from both train and test -- the training set itself is unusable
for selection because the stage classifiers fit it), then test accuracy is
reported at the chosen δ.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cdl.statistics import evaluate_baseline_accuracy, evaluate_cdln
from repro.cdl.training import TrainedCdl
from repro.experiments.common import Scale, get_datasets, get_trained, get_validation_set
from repro.utils.tables import AsciiTable

CANDIDATE_DELTAS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


@dataclass(frozen=True)
class Table3Result:
    """Accuracy of baseline and CDLN for both architectures."""

    baseline_2c: float
    cdln_2c: float
    baseline_3c: float
    cdln_3c: float
    delta_2c: float
    delta_3c: float

    def render(self) -> str:
        table = AsciiTable(
            ["network", "baseline", "CDLN", "delta*"],
            title="Table III -- accuracy (%), baseline vs CDLN "
            "(delta* tuned on a held-out validation set)",
        )
        table.add_row(
            ["6-layer (MNIST_2C)", round(self.baseline_2c * 100, 2),
             round(self.cdln_2c * 100, 2), self.delta_2c]
        )
        table.add_row(
            ["8-layer (MNIST_3C)", round(self.baseline_3c * 100, 2),
             round(self.cdln_3c * 100, 2), self.delta_3c]
        )
        footer = "paper: 98.04 -> 99.05 (2C); 97.55 -> 98.92 (3C)"
        return table.render() + "\n" + footer


def select_delta(trained: TrainedCdl, validation) -> float:
    """The δ maximizing cascade accuracy on held-out validation data (the
    paper's Fig. 10 peak-selection, performed without touching test data)."""
    best_delta, best_accuracy = CANDIDATE_DELTAS[0], -1.0
    for delta in CANDIDATE_DELTAS:
        accuracy = evaluate_cdln(trained.cdln, validation, delta=delta).accuracy
        if accuracy > best_accuracy:
            best_delta, best_accuracy = delta, accuracy
    return best_delta


def run(scale: Scale | None = None, seed: int = 0) -> Table3Result:
    """Measure baseline and CDLN accuracy for both architectures."""
    scale = scale or Scale.small()
    _train, test = get_datasets(scale, seed)
    validation = get_validation_set(scale.num_test, seed + 99991)
    trained_2c = get_trained("mnist_2c", scale, seed)
    trained_3c = get_trained("mnist_3c", scale, seed)
    delta_2c = select_delta(trained_2c, validation)
    delta_3c = select_delta(trained_3c, validation)
    return Table3Result(
        baseline_2c=evaluate_baseline_accuracy(trained_2c.cdln, test),
        cdln_2c=evaluate_cdln(trained_2c.cdln, test, delta=delta_2c).accuracy,
        baseline_3c=evaluate_baseline_accuracy(trained_3c.cdln, test),
        cdln_3c=evaluate_cdln(trained_3c.cdln, test, delta=delta_3c).accuracy,
        delta_2c=delta_2c,
        delta_3c=delta_3c,
    )
