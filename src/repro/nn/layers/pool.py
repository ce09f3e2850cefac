"""Pooling layers: max pooling (the paper's choice) and average pooling
(the variant used by the MATLAB toolbox the paper trained with).

Windows are non-overlapping by default (``stride == window``) and a window
of 1 degenerates to the identity, which Table II's P3 stage (3x3 in, 3x3
out) relies on.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ShapeError
from repro.nn.layers.base import Layer, register_layer
from repro.nn.tensor_ops import conv_output_size, sliding_windows


def _reduce_windows(
    x: np.ndarray, window: int, stride: int, h_out: int, w_out: int, op
) -> np.ndarray:
    """Reduce every pooling window with ``op`` (ufunc with ``out=``).

    Accumulates over the ``window x window`` offsets as whole strided
    slices -- one vectorized ufunc call per offset -- which is an order of
    magnitude faster than reducing the trailing axes of a strided window
    view (numpy's strided-axis reductions iterate tiny inner loops).
    """
    rows, cols = stride * h_out, stride * w_out
    out = x[:, :, 0:rows:stride, 0:cols:stride].copy()
    for i in range(window):
        for j in range(window):
            if i == 0 and j == 0:
                continue
            op(out, x[:, :, i : i + rows : stride, j : j + cols : stride], out=out)
    return out


def _spread_windows(
    share: np.ndarray, x_shape: tuple[int, int, int, int], window: int, stride: int
) -> np.ndarray:
    """Scatter one value per window back onto a zeroed input canvas.

    The adjoint of window extraction for non-overlapping windows is a pure
    strided assignment through a writable :func:`sliding_windows` view;
    overlapping geometries fall back to the accumulation loop.
    """
    n, c, h, w = x_shape
    dx = np.zeros((n, c, h, w), dtype=share.dtype)
    if stride >= window:
        view = sliding_windows(dx, window, stride, writeable=True)
        view[...] = share[..., None, None]
        return dx
    h_out, w_out = share.shape[2], share.shape[3]
    for i in range(window):
        for j in range(window):
            dx[
                :,
                :,
                i : i + stride * h_out : stride,
                j : j + stride * w_out : stride,
            ] += share
    return dx


class _Pool2D(Layer):
    """Shared geometry handling for max/avg pooling."""

    def __init__(self, window: int, *, stride: int | None = None, name: str | None = None) -> None:
        super().__init__(name)
        if window < 1:
            raise ShapeError(f"pool window must be >= 1, got {window}")
        self.window = int(window)
        self.stride = int(stride) if stride is not None else self.window
        if self.stride < 1:
            raise ShapeError(f"pool stride must be >= 1, got {stride}")

    def build(self, input_shape, rng):
        if len(input_shape) != 3:
            raise ShapeError(f"pooling expects (C, H, W) input, got {input_shape}")
        c, h, w = input_shape
        h_out = conv_output_size(h, self.window, self.stride)
        w_out = conv_output_size(w, self.window, self.stride)
        return self._mark_built(input_shape, (c, h_out, w_out))

    def get_config(self) -> dict[str, Any]:
        return {"name": self.name, "window": self.window, "stride": self.stride}


@register_layer
class MaxPool2D(_Pool2D):
    """Max pooling; the gradient routes to the first maximal position of
    each window, in row-major window order (``argmax``'s tie rule)."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_input(x)
        if self.window == 1 and self.stride == 1:
            if training:
                self._cache = {"identity": True}
            return x
        _, h_out, w_out = self.output_shape
        out = _reduce_windows(x, self.window, self.stride, h_out, w_out, np.maximum)
        if training:
            # Backward re-derives the routing from the input and the max,
            # so nothing window-shaped is materialized here.
            self._cache = {"identity": False, "input": x, "output": out}
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if not self._cache:
            raise ShapeError(
                f"backward() on {self.name!r} without a preceding training forward()"
            )
        if self._cache.get("identity"):
            return grad
        x, out = self._cache["input"], self._cache["output"]
        window, stride = self.window, self.stride
        rows, cols = stride * out.shape[2], stride * out.shape[3]
        # Pass 1, window order: each window's first position equal to its
        # max claims the window's gradient.
        unrouted = np.ones(out.shape, dtype=bool)
        claims = []
        for i in range(window):
            for j in range(window):
                hit = x[:, :, i : i + rows : stride, j : j + cols : stride] == out
                hit &= unrouted
                unrouted ^= hit
                claims.append((i, j, hit))
        # Pass 2, reverse window order: a position claimed by overlapping
        # windows then sums their gradients in window raster order onto a
        # zero canvas, the additions of ``np.add.at`` in its order.  The
        # signed zeros that unclaimed windows add change no sum.
        dx = np.zeros(x.shape, dtype=grad.dtype)
        for i, j, hit in reversed(claims):
            dx[:, :, i : i + rows : stride, j : j + cols : stride] += grad * hit
        return dx


@register_layer
class AvgPool2D(_Pool2D):
    """Average pooling; the gradient spreads uniformly over each window."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_input(x)
        if self.window == 1 and self.stride == 1:
            if training:
                self._cache = {"identity": True}
            return x
        if not np.issubdtype(x.dtype, np.floating):
            x = x.astype(np.float64)
        _, h_out, w_out = self.output_shape
        out = _reduce_windows(x, self.window, self.stride, h_out, w_out, np.add)
        out /= self.window * self.window
        if training:
            self._cache = {"identity": False, "x_shape": x.shape}
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if not self._cache:
            raise ShapeError(
                f"backward() on {self.name!r} without a preceding training forward()"
            )
        if self._cache.get("identity"):
            return grad
        share = grad / (self.window * self.window)
        return _spread_windows(
            share, self._cache["x_shape"], self.window, self.stride
        )
