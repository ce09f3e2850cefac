"""Fully connected (dense) layer."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ShapeError
from repro.nn.activations import Activation, get_activation
from repro.nn.initializers import Initializer, get_initializer
from repro.nn.layers.base import Layer, register_layer


@register_layer
class Dense(Layer):
    """Affine map ``y = act(x W^T + b)`` on flat ``(N, D)`` batches.

    Parameters
    ----------
    units:
        Output dimensionality.
    activation:
        Fused activation (``"identity"`` for a pure linear map, as the CDL
        linear classifiers use before their confidence softmax).
    """

    def __init__(
        self,
        units: int,
        *,
        activation: str | Activation = "sigmoid",
        weight_init: str | Initializer = "glorot_uniform",
        bias_init: str | Initializer = "zeros",
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if units < 1:
            raise ShapeError(f"units must be >= 1, got {units}")
        self.units = int(units)
        self.activation = get_activation(activation)
        self.weight_init = get_initializer(weight_init)
        self.bias_init = get_initializer(bias_init)

    def build(self, input_shape, rng):
        if len(input_shape) != 1:
            raise ShapeError(
                f"Dense expects flat (D,) input, got {input_shape}; add a Flatten layer"
            )
        (dim,) = input_shape
        self.params = {
            "weight": self.weight_init((self.units, dim), rng),
            "bias": self.bias_init((self.units,), rng),
        }
        self.zero_grads()
        return self._mark_built(input_shape, (self.units,))

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_input(x)
        weight = self.params["weight"]
        if x.dtype != weight.dtype:
            # Compute follows the parameter dtype (see repro.nn.compute).
            x = x.astype(weight.dtype)
        pre = x @ weight.T + self.params["bias"]
        out = self.activation.forward(pre)
        if training:
            self._cache = {"input": x, "output": out}
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if not self._cache:
            raise ShapeError(
                f"backward() on {self.name!r} without a preceding training forward()"
            )
        x = self._cache["input"]
        out = self._cache["output"]
        grad = self.activation.backward(grad, out)
        self.grads["weight"] = grad.T @ x
        self.grads["bias"] = grad.sum(axis=0)
        return grad @ self.params["weight"]

    def backward_fused(self, grad_pre: np.ndarray) -> np.ndarray:
        """Backward that treats ``grad_pre`` as the gradient w.r.t. the
        *pre-activation* (used by the fused softmax/cross-entropy path)."""
        if not self._cache:
            raise ShapeError(
                f"backward_fused() on {self.name!r} without a training forward()"
            )
        x = self._cache["input"]
        self.grads["weight"] = grad_pre.T @ x
        self.grads["bias"] = grad_pre.sum(axis=0)
        return grad_pre @ self.params["weight"]

    def get_config(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "units": self.units,
            "activation": self.activation.name,
        }
