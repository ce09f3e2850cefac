"""Sequential network container with resumable (segment) execution.

Beyond the usual ``forward``/``backward``, :class:`Network` supports two
operations the CDL cascade needs:

* :meth:`forward_collect` -- one forward pass that also returns the
  intermediate activations at chosen *tap* indices (where the linear
  classifiers attach).
* :meth:`run_segment` -- run only layers ``[start, stop)`` on an activation
  that was produced earlier, so a conditionally forwarded input resumes from
  the layer it stopped at instead of recomputing the prefix.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.activations import Softmax
from repro.nn.layers.base import Layer
from repro.nn.layers.dense import Dense
from repro.nn.losses import Loss
from repro.utils.rng import ensure_rng


class Network:
    """A feed-forward stack of layers built for a fixed input shape.

    Parameters
    ----------
    layers:
        Layer instances in execution order.
    input_shape:
        Per-sample input shape, e.g. ``(1, 28, 28)``.
    rng:
        Seed or generator for parameter initialization.
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        input_shape: tuple[int, ...],
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if not layers:
            raise ConfigurationError("a Network needs at least one layer")
        self.layers: list[Layer] = list(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        gen = ensure_rng(rng)
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.build(shape, gen)
        self.output_shape = shape

    # -- inference ---------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the full stack."""
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def run_segment(
        self, x: np.ndarray, start: int, stop: int | None = None, training: bool = False
    ) -> np.ndarray:
        """Run only layers ``[start, stop)`` on activation ``x``.

        ``x`` must have the shape produced by layer ``start - 1`` (or the
        network input shape when ``start == 0``).
        """
        stop = len(self.layers) if stop is None else stop
        if not 0 <= start <= stop <= len(self.layers):
            raise ConfigurationError(
                f"invalid segment [{start}, {stop}) for a {len(self.layers)}-layer network"
            )
        for layer in self.layers[start:stop]:
            x = layer.forward(x, training=training)
        return x

    def forward_collect(
        self, x: np.ndarray, taps: Sequence[int], training: bool = False
    ) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """Forward pass that records the activation *after* each tap layer.

        Returns ``(final_output, {tap_index: activation})``.  A tap index of
        ``i`` captures the output of ``self.layers[i]``.
        """
        taps_set = set(taps)
        bad = [t for t in taps_set if not 0 <= t < len(self.layers)]
        if bad:
            raise ConfigurationError(
                f"tap indices {sorted(bad)} out of range for {len(self.layers)} layers"
            )
        collected: dict[int, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            x = layer.forward(x, training=training)
            if i in taps_set:
                collected[i] = x
        return x, collected

    def predict(self, x: np.ndarray, batch_size: int | None = None) -> np.ndarray:
        """Forward pass in inference mode, optionally chunked to bound memory."""
        if batch_size is None or x.shape[0] <= batch_size:
            return self.forward(x, training=False)
        chunks = [
            self.forward(x[i : i + batch_size], training=False)
            for i in range(0, x.shape[0], batch_size)
        ]
        return np.concatenate(chunks, axis=0)

    def predict_labels(self, x: np.ndarray, batch_size: int | None = None) -> np.ndarray:
        """Class predictions (argmax over the output layer)."""
        return self.predict(x, batch_size=batch_size).argmax(axis=1)

    # -- training ----------------------------------------------------------
    def backward(self, loss: Loss, outputs: np.ndarray, targets: np.ndarray) -> None:
        """Backpropagate ``loss`` into every trainable layer's ``grads``.

        Returns ``None``: the gradient with respect to the network input is
        never formed, since nothing reads it.  The first trainable layer
        computes its parameter gradients only
        (:meth:`~repro.nn.layers.base.Layer.backward_params`) and the
        parameter-free layers below it are not visited.

        When the loss declares ``fused_with_softmax`` and the final layer is
        a softmax-activated :class:`Dense`, the fused gradient (w.r.t. the
        pre-activation) is injected directly into that layer, bypassing the
        explicit softmax Jacobian.
        """
        grad = loss.gradient(outputs, targets)
        layers = self.layers
        first = next((i for i, layer in enumerate(layers) if layer.params), None)
        if first is None:
            return
        last = layers[-1]
        fused = (
            getattr(loss, "fused_with_softmax", False)
            and isinstance(last, Dense)
            and isinstance(last.activation, Softmax)
        )
        stop = len(layers)
        if fused:
            grad = last.backward_fused(grad)
            stop -= 1
        for layer in reversed(layers[first + 1 : stop]):
            grad = layer.backward(grad)
        if first < stop:
            layers[first].backward_params(grad)

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()

    # -- compute dtype -----------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        """The parameter (and therefore compute) dtype of this network.

        Falls back to the active compute policy's dtype for parameter-free
        stacks.
        """
        for layer in self.layers:
            for param in layer.params.values():
                return param.dtype
        from repro.nn.compute import active_policy

        return active_policy().dtype

    def astype(self, dtype: "np.dtype | str | type") -> "Network":
        """Cast every parameter (in place) to ``dtype``; returns ``self``.

        Layers compute in their parameter dtype, so this switches the whole
        network's arithmetic (float32 halves memory traffic and roughly
        doubles BLAS throughput on the paper's networks).  float32 ->
        float64 is lossless; the reverse rounds parameters once.
        """
        from repro.nn.compute import resolve_dtype

        target = resolve_dtype(dtype)
        for layer in self.layers:
            for key, param in layer.params.items():
                layer.params[key] = param.astype(target, copy=False)
            layer.zero_grads()
        return self

    # -- introspection -----------------------------------------------------
    @property
    def num_params(self) -> int:
        return sum(layer.num_params for layer in self.layers)

    def trainable_layers(self) -> list[Layer]:
        return [layer for layer in self.layers if layer.params]

    def layer_shapes(self) -> list[tuple[str, tuple[int, ...], tuple[int, ...]]]:
        """``(name, input_shape, output_shape)`` for every layer."""
        return [
            (layer.name, layer.input_shape, layer.output_shape)
            for layer in self.layers
        ]

    def summary(self) -> str:
        """Human-readable architecture table."""
        from repro.utils.tables import AsciiTable

        table = AsciiTable(["#", "layer", "output shape", "params"])
        for i, layer in enumerate(self.layers):
            table.add_row([i, layer.name, str(layer.output_shape), layer.num_params])
        table.add_row(["", "total", str(self.output_shape), self.num_params])
        return table.render()

    def get_config(self) -> list[dict[str, Any]]:
        return [
            {"class": type(layer).__name__, "config": layer.get_config()}
            for layer in self.layers
        ]

    def __repr__(self) -> str:
        return (
            f"Network({len(self.layers)} layers, {self.input_shape}->"
            f"{self.output_shape}, {self.num_params} params)"
        )
