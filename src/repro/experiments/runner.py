"""Run every experiment and print each table/figure.

Usage::

    python -m repro.experiments.runner [tiny|small|full] [seed]

Since the trained models are cached in :mod:`repro.experiments.common`,
the whole suite trains each network exactly once, and :func:`run_all`
holds the digit sets for its run, so it synthesizes each one once.
"""

from __future__ import annotations

import sys

from repro.experiments import (
    fig5_ops,
    fig6_energy,
    fig7_accuracy_stages,
    fig8_difficulty,
    fig9_stage_sweep,
    fig10_delta_sweep,
    scenario_robustness,
    table3_accuracy,
    table4_examples,
)
from repro.experiments.common import Scale, holding_datasets

#: Execution order: headline tables first, then the figure sweeps, then the
#: beyond-the-paper robustness suite.
ALL_EXPERIMENTS = (
    ("Table III", table3_accuracy),
    ("Fig. 5", fig5_ops),
    ("Fig. 6", fig6_energy),
    ("Fig. 7", fig7_accuracy_stages),
    ("Fig. 8", fig8_difficulty),
    ("Fig. 9", fig9_stage_sweep),
    ("Fig. 10", fig10_delta_sweep),
    ("Table IV", table4_examples),
    ("Robustness", scenario_robustness),
)


@holding_datasets()
def run_all(scale: Scale | None = None, seed: int = 0) -> dict[str, object]:
    """Run every experiment; returns ``{experiment id: result object}``.

    The digit sets stay held until the last experiment has run.
    """
    scale = scale or Scale.small()
    results: dict[str, object] = {}
    for name, module in ALL_EXPERIMENTS:
        results[name] = module.run(scale=scale, seed=seed)
    return results


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    scale_name = argv[0] if argv else "small"
    seed = int(argv[1]) if len(argv) > 1 else 0
    try:
        scale = getattr(Scale, scale_name)()
    except AttributeError:
        print(f"unknown scale {scale_name!r}; use tiny, small or full")
        return 2
    for name, result in run_all(scale, seed).items():
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
        print(result.render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
