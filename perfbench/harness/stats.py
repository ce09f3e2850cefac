"""Order statistics with an explicit sample-support rule.

A percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it: a p99 read off 300 samples is decided by its three slowest
values and does not repeat.  Failed requests enter as ``inf`` so they
count as missing every latency limit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class PercentileRefused(ValueError):
    """Too few samples lie beyond the requested percentile."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q < 100``) of ``values``.

    The nearest rank is ``k = ceil(q / 100 * n)``; the ``n - k`` samples
    ranked after it are the ones "beyond".  Raises
    :class:`PercentileRefused` when fewer than ``MIN_BEYOND`` remain.
    """
    if not 0 < q < 100:
        raise ValueError(f"q must lie in (0, 100), got {q}")
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = ordered.shape[0]
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise PercentileRefused(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; {n} samples leave {n - rank}"
        )
    return float(ordered[rank - 1])


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if len(values) else 0.0

