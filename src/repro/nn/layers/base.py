"""The :class:`Layer` contract shared by every layer.

Layers are built lazily: construction records hyper-parameters only, and
:meth:`Layer.build` (called by :class:`repro.nn.network.Network` with the
incoming shape) allocates parameters.  This lets architectures be written
without manually threading feature dimensions through flatten/pool layers.

Shapes exclude the batch axis throughout (``(C, H, W)`` or ``(D,)``).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ConfigurationError, ShapeError


class Layer:
    """Base class for all layers.

    Subclasses must implement :meth:`build`, :meth:`forward` and
    :meth:`backward`, and may expose learnable parameters through the
    ``params``/``grads`` dictionaries (same keys in both).
    """

    def __init__(self, name: str | None = None) -> None:
        self.name = name or type(self).__name__
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.built = False
        self.input_shape: tuple[int, ...] | None = None
        self.output_shape: tuple[int, ...] | None = None
        #: What a training forward keeps for its backward (empty otherwise).
        self._cache: dict[str, Any] = {}

    # -- lifecycle ---------------------------------------------------------
    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        """Allocate parameters for ``input_shape`` and return the output shape."""
        raise NotImplementedError

    def _mark_built(self, input_shape: tuple[int, ...], output_shape: tuple[int, ...]) -> tuple[int, ...]:
        self.input_shape = tuple(int(d) for d in input_shape)
        self.output_shape = tuple(int(d) for d in output_shape)
        self.built = True
        return self.output_shape

    def _require_built(self) -> None:
        if not self.built:
            raise ConfigurationError(
                f"layer {self.name!r} used before build(); wrap it in a Network "
                "or call build(input_shape, rng) explicitly"
            )

    def _check_input(self, x: np.ndarray) -> None:
        self._require_built()
        expected = self.input_shape
        if x.shape[1:] != expected:
            raise ShapeError(
                f"layer {self.name!r} expected input of shape (N, {expected}), "
                f"got {x.shape}"
            )

    # -- compute -----------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_params(self, grad: np.ndarray) -> None:
        """Backward for parameter gradients only, dropping dL/d input.

        :meth:`Network.backward` calls this on its first trainable layer,
        whose input gradient nothing reads; layers that can skip forming
        it override this.
        """
        self.backward(grad)

    def clear_cache(self) -> None:
        """Drop what the last training forward kept for its backward."""
        self._cache = {}

    # -- bookkeeping -------------------------------------------------------
    @property
    def num_params(self) -> int:
        """Total learnable scalar parameters."""
        return int(sum(p.size for p in self.params.values()))

    def zero_grads(self) -> None:
        for key, p in self.params.items():
            self.grads[key] = np.zeros_like(p)

    # -- serialization -----------------------------------------------------
    def get_config(self) -> dict[str, Any]:
        """JSON-serializable constructor arguments."""
        return {"name": self.name}

    def __repr__(self) -> str:
        shape = f"{self.input_shape}->{self.output_shape}" if self.built else "unbuilt"
        return f"{type(self).__name__}({shape})"


_LAYER_REGISTRY: dict[str, type[Layer]] = {}


def register_layer(cls: type[Layer]) -> type[Layer]:
    """Class decorator adding a layer type to the serialization registry."""
    _LAYER_REGISTRY[cls.__name__] = cls
    return cls


def layer_from_config(class_name: str, config: dict[str, Any]) -> Layer:
    """Instantiate a registered layer from its class name and config dict."""
    try:
        cls = _LAYER_REGISTRY[class_name]
    except KeyError:
        raise ConfigurationError(
            f"unknown layer class {class_name!r}; registered: {sorted(_LAYER_REGISTRY)}"
        ) from None
    return cls(**config)
