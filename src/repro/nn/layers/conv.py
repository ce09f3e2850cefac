"""2-D convolution layer (valid padding by default, stride 1).

The paper's architectures (Tables I and II) use only valid, stride-1
convolutions; padding and stride are nevertheless supported because the
framework is a general substrate.

Hot path: every call allocates its own im2col column matrix and
pre-activation GEMM result, and the fused activation writes the layer's
output into a fresh, contiguous NCHW array.  Nothing outlives the call
except what a training forward caches for its backward, so an inference
forward interleaved between the two (a mid-step validation pass, say)
cannot clobber the cached columns.  :class:`~repro.nn.network.Network`
runs inference :data:`~repro.nn.network.BLOCK_ROWS` images per call, so
those temporaries are sized by the block; a training forward gets the
whole batch, whose columns its backward reads.

The GEMM operands' layouts are part of the numerical contract, since they
decide the order in which BLAS and numpy sum: C-contiguous im2col rows
times ``w_flat.T`` forward; C-contiguous ``grad_rows`` (NHWC order) for
the weight gradient, its axis-0 sum for the bias gradient, and
``grad_rows @ w_flat`` for the input gradient.  Changing one changes
trained parameters in the last bits.  :meth:`Conv2D.backward_params`
skips the input-gradient GEMM and the ``col2im`` scatter, for a network's
first layer, whose input gradient nothing reads.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ShapeError
from repro.nn.activations import Activation, get_activation
from repro.nn.initializers import Initializer, get_initializer
from repro.nn.layers.base import Layer, register_layer
from repro.nn.tensor_ops import col2im, conv_output_size, im2col


@register_layer
class Conv2D(Layer):
    """Convolution with ``num_maps`` output feature maps.

    Parameters
    ----------
    num_maps:
        Number of output feature maps (kernels).
    kernel:
        Square kernel side length.
    stride, padding:
        Window step and symmetric zero padding.
    activation:
        Name or instance of the activation fused into this layer (the
        paper's recipe [19] fuses a sigmoid into each convolution).
    weight_init, bias_init:
        Initializers; the default (Glorot uniform) suits sigmoid nets.
    """

    def __init__(
        self,
        num_maps: int,
        kernel: int,
        *,
        stride: int = 1,
        padding: int = 0,
        activation: str | Activation = "sigmoid",
        weight_init: str | Initializer = "glorot_uniform",
        bias_init: str | Initializer = "zeros",
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if num_maps < 1 or kernel < 1 or stride < 1 or padding < 0:
            raise ShapeError(
                f"invalid Conv2D geometry: num_maps={num_maps} kernel={kernel} "
                f"stride={stride} padding={padding}"
            )
        self.num_maps = int(num_maps)
        self.kernel = int(kernel)
        self.stride = int(stride)
        self.padding = int(padding)
        self.activation = get_activation(activation)
        self.weight_init = get_initializer(weight_init)
        self.bias_init = get_initializer(bias_init)

    def build(self, input_shape, rng):
        if len(input_shape) != 3:
            raise ShapeError(
                f"Conv2D expects (C, H, W) input, got shape {input_shape}"
            )
        c, h, w = input_shape
        h_out = conv_output_size(h, self.kernel, self.stride, self.padding)
        w_out = conv_output_size(w, self.kernel, self.stride, self.padding)
        self.params = {
            "weight": self.weight_init((self.num_maps, c, self.kernel, self.kernel), rng),
            "bias": self.bias_init((self.num_maps,), rng),
        }
        self.zero_grads()
        return self._mark_built(input_shape, (self.num_maps, h_out, w_out))

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_input(x)
        weight = self.params["weight"]
        if x.dtype != weight.dtype:
            # Compute follows the parameter dtype (the compute policy at
            # build time), so a float32 model never silently upcasts.
            x = x.astype(weight.dtype)
        n = x.shape[0]
        _, h_out, w_out = self.output_shape
        w_flat = weight.reshape(self.num_maps, -1)
        cols = im2col(x, self.kernel, self.stride, self.padding)
        pre = cols @ w_flat.T
        # GEMM rows walk the output raster (NHWC).  The bias add reads them
        # through an NCHW view into the layer's only fresh array, and the
        # activation runs in place on it: a contiguous NCHW output that
        # pooling and backward sweep at unit stride.
        out = np.add(
            pre.reshape(n, h_out, w_out, self.num_maps).transpose(0, 3, 1, 2),
            self.params["bias"][:, None, None],
            out=np.empty((n, self.num_maps, h_out, w_out), dtype=weight.dtype),
        )
        self.activation.forward(out, out=out)
        if training:
            self._cache = {"cols": cols, "output": out}
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad_rows = self._param_grads(grad)
        w_flat = self.params["weight"].reshape(self.num_maps, -1)
        grad_cols = grad_rows @ w_flat
        x_shape = (grad.shape[0], *self.input_shape)
        return col2im(grad_cols, x_shape, self.kernel, self.stride, self.padding)

    def backward_params(self, grad: np.ndarray) -> None:
        self._param_grads(grad)

    def _param_grads(self, grad: np.ndarray) -> np.ndarray:
        """Set the weight and bias gradients; returns dL/d pre-activation
        as C-contiguous GEMM rows ``(N * H_out * W_out, num_maps)``."""
        if not self._cache:
            raise ShapeError(
                f"backward() on {self.name!r} without a preceding training forward()"
            )
        cols = self._cache["cols"]
        weight = self.params["weight"]
        if grad.dtype != weight.dtype:
            grad = grad.astype(weight.dtype)
        # The activation's backward writes (N, M, Ho, Wo) straight into
        # rows aligned with im2col ordering.
        n, _, h_out, w_out = grad.shape
        grad_rows = np.empty((n * h_out * w_out, self.num_maps), dtype=weight.dtype)
        self.activation.backward(
            grad,
            self._cache["output"],
            out=grad_rows.reshape(n, h_out, w_out, self.num_maps).transpose(0, 3, 1, 2),
        )
        self.grads["weight"] = (grad_rows.T @ cols).reshape(weight.shape)
        # einsum adds the rows one after another, as sum(axis=0) does on
        # C-contiguous rows (same bits), in a loop made for few columns.
        self.grads["bias"] = np.einsum("ij->j", grad_rows)
        return grad_rows

    def get_config(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "num_maps": self.num_maps,
            "kernel": self.kernel,
            "stride": self.stride,
            "padding": self.padding,
            "activation": self.activation.name,
        }
