"""Built-in benchmark suites.

Importing this package registers every benchmark in :data:`repro.bench.REGISTRY`
(module import is the registration side effect; Python's module cache makes
it idempotent, and the registry's duplicate detection makes accidental
double-registration loud).
"""

from repro.bench.suites import (
    ablations,
    adaptive,
    chaos,
    fabric,
    figures,
    hotpath,
    loadgen,
    obs,
    scenarios,
    serving,
)

__all__ = [
    "ablations",
    "adaptive",
    "chaos",
    "fabric",
    "figures",
    "hotpath",
    "loadgen",
    "obs",
    "scenarios",
    "serving",
]
