"""Sequential network container with resumable (segment) execution.

Beyond the usual ``forward``/``backward``, :class:`Network` supports two
operations the CDL cascade needs:

* :meth:`forward_collect` -- one forward pass that also returns the
  intermediate activations at chosen *tap* indices (where the linear
  classifiers attach).
* :meth:`run_segment` -- run only layers ``[start, stop)`` on an activation
  that was produced earlier, so a conditionally forwarded input resumes from
  the layer it stopped at instead of recomputing the prefix.

Every inference pass (``forward``, ``run_segment`` and ``forward_collect``
with ``training=False``, and ``predict``) goes through one loop that runs
the batch :data:`BLOCK_ROWS` images at a time and writes each block's output
and tap activations into arrays allocated once per batch.  A layer's
temporaries -- a convolution's im2col columns above all -- are then sized
by the block, not by the batch.  A batch of at most one block runs as it
is, with no extra copy.  A training pass runs the whole batch as one
block, because each layer's backward reads whole-batch caches.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.activations import Softmax
from repro.nn.layers.base import Layer
from repro.nn.layers.dense import Dense
from repro.nn.losses import Loss
from repro.utils.rng import ensure_rng

#: Rows per block of an inference pass.  MNIST_3C's C1 im2col columns take
#: 0.8 MB for 32 float32 images, against 12.5 MB for a 512-image batch.
BLOCK_ROWS = 32


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
        return self._run(x, 0, len(self.layers), (), training)[0]

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
        return self._run(x, start, stop, (), training)[0]

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
        return self._run(x, 0, len(self.layers), taps_set, training)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass in inference mode."""
        return self.forward(x, training=False)

    def predict_labels(self, x: np.ndarray) -> np.ndarray:
        """Class predictions (argmax over the output layer)."""
        return self.predict(x).argmax(axis=1)

    def _run(
        self,
        x: np.ndarray,
        start: int,
        stop: int,
        taps: Collection[int],
        training: bool,
    ) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """Layers ``[start, stop)`` on ``x``: ``(output, {tap: activation})``.

        The one loop behind every pass.  Inference runs in blocks of
        :data:`BLOCK_ROWS` rows; training, and a batch of at most one
        block, run whole.  Each block calls every layer's ``forward`` on the
        layer object itself, so a wrapper patched onto a layer sees every
        block.
        """
        n = x.shape[0]
        if training or n <= BLOCK_ROWS:
            collected: dict[int, np.ndarray] = {}
            for i in range(start, stop):
                x = self.layers[i].forward(x, training=training)
                if i in taps:
                    collected[i] = x
            return x, collected
        out = collected = None
        for first in range(0, n, BLOCK_ROWS):
            rows = slice(first, first + BLOCK_ROWS)
            y, acts = self._run(x[rows], start, stop, taps, False)
            if out is None:
                out = np.empty((n, *y.shape[1:]), dtype=y.dtype)
                collected = {
                    t: np.empty((n, *a.shape[1:]), dtype=a.dtype)
                    for t, a in acts.items()
                }
            out[rows] = y
            for t, a in acts.items():
                collected[t][rows] = a
        return out, collected

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
