"""Evaluation aggregates: accuracy + OPS + energy for a CDLN on a dataset.

:func:`evaluate_cdln` produces a :class:`CdlEvaluation` containing every
quantity the paper's result section reports: overall accuracy, average and
per-digit OPS (Fig. 5), energy (Fig. 6), stage-exit fractions and the
per-digit final-stage activation rate (Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cdl.network import CDLN, CdlBatchResult
from repro.data.dataset import DigitDataset
from repro.errors import ConfigurationError
from repro.energy.models import ConditionalEnergyProfile, opcount_energy
from repro.energy.technology import TECHNOLOGY_45NM, TechnologyModel
from repro.nn.metrics import accuracy, per_class_accuracy
from repro.ops.profile import ConditionalOpsProfile
from repro.utils.tables import AsciiTable


@dataclass(frozen=True)
class CdlEvaluation:
    """Everything measured for one CDLN on one dataset."""

    result: CdlBatchResult
    ops: ConditionalOpsProfile
    energy: ConditionalEnergyProfile
    accuracy: float
    per_digit_accuracy: np.ndarray
    num_classes: int

    # -- headline numbers -----------------------------------------------------
    @property
    def ops_improvement(self) -> float:
        """Baseline OPS / conditional OPS (paper's "1.91x")."""
        return self.ops.ops_improvement

    @property
    def energy_improvement(self) -> float:
        """Baseline energy / conditional energy (paper's "1.84x")."""
        return self.energy.energy_improvement

    @property
    def normalized_ops(self) -> float:
        return self.ops.normalized_ops

    # -- figure-level series -----------------------------------------------------
    def per_digit_ops_improvement(self) -> np.ndarray:
        """Fig. 5 bars."""
        return self.ops.per_digit_improvement(self.num_classes)

    def per_digit_energy_improvement(self) -> np.ndarray:
        """Fig. 6 bars."""
        return self.energy.per_digit_improvement(self.num_classes)

    def stage_exit_fractions(self) -> np.ndarray:
        return self.ops.stage_exit_fractions()

    def final_stage_fraction_per_digit(self) -> np.ndarray:
        """Fig. 8's FC-activation rates per digit."""
        return self.ops.final_stage_fraction_per_digit(self.num_classes)

    def render(self, title: str = "CDL evaluation") -> str:
        table = AsciiTable(["metric", "value"], title=title)
        table.add_row(["accuracy", round(self.accuracy * 100, 2)])
        table.add_row(["avg OPS / input", int(self.ops.average_ops)])
        table.add_row(["baseline OPS / input", int(self.ops.baseline_ops)])
        table.add_row(["OPS improvement", round(self.ops_improvement, 2)])
        table.add_row(["energy improvement", round(self.energy_improvement, 2)])
        fractions = self.stage_exit_fractions()
        for name, frac in zip(self.result.stage_names, fractions):
            table.add_row([f"exit fraction @ {name}", round(float(frac), 3)])
        return table.render()


def _aggregate(
    result: CdlBatchResult,
    dataset: DigitDataset,
    technology: TechnologyModel,
    system_overhead_fraction: float,
) -> CdlEvaluation:
    """Aggregate one batch result into the full evaluation record."""
    ops = result.ops_profile(dataset.labels)
    # Every input pays for being buffered on-chip (one write + one read per
    # pixel) no matter how early it exits, plus the depth-independent system
    # overhead; the baseline pays both too.
    pixels = int(np.prod(dataset.image_shape))
    io_pj = pixels * (technology.sram_read_pj + technology.sram_write_pj)
    system_pj = system_overhead_fraction * opcount_energy(
        ops.costs.baseline_cost, technology
    )
    energy = ConditionalEnergyProfile.from_ops_profile(
        ops, technology, fixed_overhead_pj=io_pj + system_pj
    )
    return CdlEvaluation(
        result=result,
        ops=ops,
        energy=energy,
        accuracy=accuracy(result.labels, dataset.labels),
        per_digit_accuracy=per_class_accuracy(
            result.labels, dataset.labels, dataset.num_classes
        ),
        num_classes=dataset.num_classes,
    )


def evaluate_cdln(
    cdln: CDLN,
    dataset: DigitDataset,
    delta: float | None = None,
    *,
    technology: TechnologyModel = TECHNOLOGY_45NM,
    batch_size: int = 512,
    system_overhead_fraction: float = 0.04,
) -> CdlEvaluation:
    """Run conditional inference over ``dataset`` and aggregate everything.

    ``system_overhead_fraction`` models the per-classification cost that is
    independent of exit depth (input DMA, control, clock tree) as a fraction
    of the baseline's dynamic energy; it is why measured energy gains sit a
    few percent below OPS gains, exactly as the paper reports (1.91x OPS ->
    1.84x energy).
    """
    result = cdln.predict(dataset.images, delta=delta, batch_size=batch_size)
    return _aggregate(result, dataset, technology, system_overhead_fraction)


def evaluate_cached(
    cache,
    dataset: DigitDataset,
    delta: float | None = None,
    *,
    technology: TechnologyModel = TECHNOLOGY_45NM,
    system_overhead_fraction: float = 0.04,
    stages=None,
    activation_module=None,
) -> CdlEvaluation:
    """:func:`evaluate_cdln` from a prebuilt score cache -- no backbone pass.

    ``cache`` is a :class:`~repro.cdl.score_cache.StageScoreCache` built on
    ``dataset.images``; the replay is exact, so this returns the same
    evaluation :func:`evaluate_cdln` would, at the cost of a few numpy
    threshold passes.  Sweeps (δ grids, stage subsets, policy ablations)
    build one cache and call this per grid point.
    """
    if cache.num_inputs != len(dataset):
        raise ConfigurationError(
            f"score cache covers {cache.num_inputs} inputs but the dataset "
            f"has {len(dataset)}; build the cache on the same images"
        )
    result = cache.replay(delta, stages=stages, activation_module=activation_module)
    return _aggregate(result, dataset, technology, system_overhead_fraction)


def evaluate_baseline_accuracy(cdln: CDLN, dataset: DigitDataset) -> float:
    """Accuracy of the unconditional baseline on the same dataset."""
    predicted = cdln.baseline.predict_labels(dataset.images)
    return accuracy(predicted, dataset.labels)
