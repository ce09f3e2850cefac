"""Standalone activation layer (activation not fused into conv/dense)."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ShapeError
from repro.nn.activations import Activation, get_activation
from repro.nn.layers.base import Layer, register_layer


@register_layer
class ActivationLayer(Layer):
    """Apply an activation as its own layer."""

    def __init__(self, activation: str | Activation, name: str | None = None) -> None:
        super().__init__(name)
        self.activation = get_activation(activation)
        self._output: np.ndarray | None = None

    def build(self, input_shape, rng):
        return self._mark_built(input_shape, input_shape)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_input(x)
        out = self.activation.forward(x)
        if training:
            self._output = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise ShapeError(
                f"backward() on {self.name!r} without a preceding training forward()"
            )
        return self.activation.backward(grad, self._output)

    def clear_cache(self) -> None:
        self._output = None

    def get_config(self) -> dict[str, Any]:
        return {"name": self.name, "activation": self.activation.name}
