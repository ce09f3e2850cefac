"""Activation functions with analytic derivatives.

Each activation is a stateless object exposing ``forward(x, out=None)``
and ``backward(grad, cached_output, out=None)``.  The backward pass is
written in terms of the *cached forward output* (not the input) because
for sigmoid/tanh/softmax that is both cheaper and numerically nicer; ReLU
keeps enough information in its output (zeros where the input was
negative) for the same trick.

``out``, when given, receives the result in whatever memory layout it has
(it may alias the input); a convolution uses it to run its activation in
place on its NCHW output and to write its backward straight into its
NHWC GEMM rows.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class Activation:
    """Base class for elementwise (or row-wise) activations."""

    name = "activation"

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply the activation; into ``out`` (and return it) when given."""
        raise NotImplementedError

    def backward(
        self, grad: np.ndarray, output: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Chain ``grad`` (dL/d output) through the activation."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


class Identity(Activation):
    """f(x) = x."""

    name = "identity"

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            return x
        np.copyto(out, x)
        return out

    def backward(
        self, grad: np.ndarray, output: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        return self.forward(grad, out=out)


class Sigmoid(Activation):
    """Logistic sigmoid, the activation used by the paper's training recipe [19]."""

    name = "sigmoid"

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # Clip to avoid overflow in exp for extreme pre-activations.
        y = np.negative(np.clip(x, -500.0, 500.0, out=out), out=out)
        y = np.add(np.exp(y, out=out), 1.0, out=out)
        return np.divide(1.0, y, out=out)

    def backward(
        self, grad: np.ndarray, output: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        return np.multiply(grad * output, 1.0 - output, out=out)


class Tanh(Activation):
    """Hyperbolic tangent."""

    name = "tanh"

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.tanh(x, out=out)

    def backward(
        self, grad: np.ndarray, output: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        return np.multiply(grad, 1.0 - output * output, out=out)


class ReLU(Activation):
    """Rectified linear unit."""

    name = "relu"

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.maximum(x, 0.0, out=out)

    def backward(
        self, grad: np.ndarray, output: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        return np.multiply(grad, output > 0.0, out=out)


class Softmax(Activation):
    """Row-wise softmax over the last axis.

    ``backward`` implements the full Jacobian-vector product; when softmax is
    paired with cross-entropy the combined loss in :mod:`repro.nn.losses`
    bypasses it with the simpler fused gradient.
    """

    name = "softmax"

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return np.divide(e, e.sum(axis=-1, keepdims=True), out=out)

    def backward(
        self, grad: np.ndarray, output: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        dot = np.sum(grad * output, axis=-1, keepdims=True)
        return np.multiply(output, grad - dot, out=out)


_REGISTRY: dict[str, type[Activation]] = {
    cls.name: cls for cls in (Identity, Sigmoid, Tanh, ReLU, Softmax)
}


def get_activation(spec: str | Activation) -> Activation:
    """Resolve an activation by name or pass an instance through."""
    if isinstance(spec, Activation):
        return spec
    try:
        return _REGISTRY[spec]()
    except KeyError:
        raise ConfigurationError(
            f"unknown activation {spec!r}; available: {sorted(_REGISTRY)}"
        ) from None
