"""The correctness gate every run must pass.

The reference is ``CDLN.predict`` over the whole pool at the workload's
δ.  Every answer must carry the reference label and exit stage for its
image, and an ``ops`` equal to that exit's cost in ``path_cost_table()``.
Per-image decisions do not depend on batch composition (checked for
batch sizes 1 to 512 on both pools in float32), so a served answer and
the offline reference must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Reference:
    """Offline answers for every pool image, plus exact exit costs."""

    labels: np.ndarray
    exit_stages: np.ndarray
    exit_ops: np.ndarray
    baseline_ops: float

    @classmethod
    def build(cls, cdln, pool: np.ndarray, delta: float,
              batch_size: int) -> "Reference":
        result = cdln.predict(pool, delta, batch_size=batch_size)
        costs = cdln.path_cost_table()
        return cls(
            labels=result.labels.copy(),
            exit_stages=result.exit_stages.copy(),
            exit_ops=np.array([float(c.total) for c in costs.exit_costs]),
            baseline_ops=float(costs.baseline_cost.total),
        )


@dataclass
class Gate:
    """Collects breaches; a run with any breach exits nonzero."""

    reference: Reference
    breaches: list[str] = field(default_factory=list)
    checked: int = 0

    def _breach(self, message: str) -> None:
        if len(self.breaches) < 20:
            self.breaches.append(message)
        else:
            self.breaches[-1] = f"... and more (last: {message})"

    def check(self, where: str, images: np.ndarray, labels: np.ndarray,
              exit_stages: np.ndarray, ops: np.ndarray | None = None) -> None:
        """Compare answers for pool indices ``images`` with the reference."""
        ref = self.reference
        self.checked += int(images.shape[0])
        bad = np.flatnonzero(
            (labels != ref.labels[images]) | (exit_stages != ref.exit_stages[images])
        )
        if bad.size:
            i = bad[0]
            self._breach(
                f"{where}: {bad.size} answers differ from predict; first: image "
                f"{images[i]} got label {labels[i]} at stage {exit_stages[i]}, "
                f"predict gives {ref.labels[images[i]]} at {ref.exit_stages[images[i]]}"
            )
        if ops is not None:
            wrong = np.flatnonzero(ops != ref.exit_ops[exit_stages])
            if wrong.size:
                i = wrong[0]
                self._breach(
                    f"{where}: {wrong.size} answers carry wrong ops; first: "
                    f"{ops[i]} at stage {exit_stages[i]}, cost table says "
                    f"{ref.exit_ops[exit_stages[i]]}"
                )

    def check_costs(self, where: str, costs) -> None:
        """A predict result's cost table must equal the reference's."""
        ops = np.array([float(c.total) for c in costs.exit_costs])
        if not np.array_equal(ops, self.reference.exit_ops):
            self._breach(f"{where}: cost table {ops} != {self.reference.exit_ops}")

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self._breach(message)

    @property
    def passed(self) -> bool:
        return not self.breaches
