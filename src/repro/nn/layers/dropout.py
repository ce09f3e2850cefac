"""Inverted dropout layer.

Not used by the paper's architectures, but part of the substrate: the
reproduction's extension experiments use it to study CDL on regularised
baselines.  Uses inverted scaling so inference is a no-op.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ShapeError
from repro.nn.layers.base import Layer, register_layer
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fraction


@register_layer
class Dropout(Layer):
    """Randomly zero activations with probability ``rate`` during training."""

    def __init__(self, rate: float, *, seed: int | None = None, name: str | None = None) -> None:
        super().__init__(name)
        self.rate = check_fraction(rate, "rate")
        if self.rate >= 1.0:
            raise ShapeError("dropout rate must be < 1 (rate of 1 drops everything)")
        self.seed = seed
        self._rng = ensure_rng(seed)
        self._mask: np.ndarray | None = None

    def build(self, input_shape, rng):
        return self._mark_built(input_shape, input_shape)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_input(x)
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self._require_built()
        if self._mask is None:
            return grad
        return grad * self._mask

    def clear_cache(self) -> None:
        self._mask = None

    def get_config(self) -> dict[str, Any]:
        return {"name": self.name, "rate": self.rate, "seed": self.seed}
