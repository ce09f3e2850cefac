"""Reference copies of the training kernels the fast path replaced.

These are the earlier implementations, kept verbatim as test oracles:

* ``im2col``: one 6-D ``np.copyto`` from a strided window view;
* ``col2im``: strided ``+=`` per window offset on an NCHW canvas;
* max pooling: ``argmax`` over materialized windows, ``take_along_axis``
  for the output and ``np.add.at`` for the gradient;
* ``Conv2D``: NHWC-in-memory activations read through an NCHW view, and a
  backward that always forms the input gradient;
* ``Network.backward``: the full chain, down to dL/d input;
* the activations' allocate-per-call ``forward``/``backward``;
* ``Adam._update``: the expression form, a fresh temporary per operation.

The library's kernels must agree with these exactly, not approximately:
``tests/test_kernel_equivalence.py`` checks them kernel by kernel and
through a whole :func:`~repro.cdl.training.train_cdln` run, where
:func:`reference_kernels` patches every one of them in at once.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.errors import ShapeError
from repro.nn import activations
from repro.nn.activations import Softmax
from repro.nn.layers import Conv2D, Dense, MaxPool2D
from repro.nn.layers.pool import _reduce_windows
from repro.nn.network import Network
from repro.nn.optimizers import Adam
from repro.nn.tensor_ops import conv_output_size, pad_images, sliding_windows


# -- tensor ops -------------------------------------------------------------------
def im2col(x, kernel, stride=1, padding=0, *, out=None):
    x = pad_images(x, padding)
    windows = sliding_windows(x, kernel, stride)  # (N, C, Ho, Wo, k, k)
    n, c, h_out, w_out, k, _ = windows.shape
    rows, cols = n * h_out * w_out, c * k * k
    if out is None:
        out = np.empty((rows, cols), dtype=x.dtype)
    elif out.shape != (rows, cols) or out.dtype != x.dtype:
        raise ShapeError(
            f"im2col out buffer has shape {out.shape} dtype {out.dtype}, "
            f"expected {(rows, cols)} {x.dtype}"
        )
    # One strided gather, straight into the destination raster order.
    dst = out.reshape(n, h_out, w_out, c, k, k)
    np.copyto(dst, windows.transpose(0, 2, 3, 1, 4, 5))
    return out


def col2im(cols, x_shape, kernel, stride=1, padding=0, *, out=None):
    n, c, h, w = x_shape
    h_pad, w_pad = h + 2 * padding, w + 2 * padding
    h_out = conv_output_size(h, kernel, stride, padding)
    w_out = conv_output_size(w, kernel, stride, padding)
    expected_rows = n * h_out * w_out
    if cols.shape != (expected_rows, c * kernel * kernel):
        raise ShapeError(
            f"cols shape {cols.shape} inconsistent with image shape {x_shape} "
            f"and kernel={kernel}, stride={stride}, padding={padding}"
        )
    blocks = cols.reshape(n, h_out, w_out, c, kernel, kernel).transpose(0, 3, 1, 2, 4, 5)
    if out is None:
        x_pad = np.zeros((n, c, h_pad, w_pad), dtype=cols.dtype)
    else:
        if out.shape != (n, c, h_pad, w_pad) or out.dtype != cols.dtype:
            raise ShapeError(
                f"col2im out buffer has shape {out.shape} dtype {out.dtype}, "
                f"expected {(n, c, h_pad, w_pad)} {cols.dtype}"
            )
        x_pad = out
        x_pad[...] = 0.0
    if stride >= kernel:
        # Windows are disjoint: the adjoint is a pure strided scatter, no
        # accumulation needed -- assign through a writable window view.
        dst = sliding_windows(x_pad, kernel, stride, writeable=True)
        dst[...] = blocks
    else:
        for i in range(kernel):
            i_max = i + stride * h_out
            for j in range(kernel):
                j_max = j + stride * w_out
                x_pad[:, :, i:i_max:stride, j:j_max:stride] += blocks[:, :, :, :, i, j]
    if padding == 0:
        return x_pad
    return x_pad[:, :, padding:-padding, padding:-padding]


# -- activations --------------------------------------------------------------------
def _identity_forward(self, x):
    return x


def _identity_backward(self, grad, output):
    return grad


def _sigmoid_forward(self, x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


def _sigmoid_backward(self, grad, output):
    return grad * output * (1.0 - output)


def _tanh_forward(self, x):
    return np.tanh(x)


def _tanh_backward(self, grad, output):
    return grad * (1.0 - output * output)


def _relu_forward(self, x):
    return np.maximum(x, 0.0)


def _relu_backward(self, grad, output):
    return grad * (output > 0.0)


def _softmax_forward(self, x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward(self, grad, output):
    dot = np.sum(grad * output, axis=-1, keepdims=True)
    return output * (grad - dot)


# -- layers -------------------------------------------------------------------------
def maxpool_forward(self, x, training=False):
    self._check_input(x)
    if self.window == 1 and self.stride == 1:
        if training:
            self._cache = {"identity": True}
        return x
    if not training:
        _, h_out, w_out = self.output_shape
        return _reduce_windows(x, self.window, self.stride, h_out, w_out, np.maximum)
    n = x.shape[0]
    c, h_out, w_out = self.output_shape
    view = sliding_windows(x, self.window, self.stride)
    flat = view.reshape(n, c, h_out, w_out, self.window * self.window)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    self._cache = {"identity": False, "argmax": idx, "x_shape": x.shape}
    return out


def maxpool_backward(self, grad):
    if not self._cache:
        raise ShapeError(
            f"backward() on {self.name!r} without a preceding training forward()"
        )
    if self._cache.get("identity"):
        return grad
    idx = self._cache["argmax"]
    n, c, h, w = self._cache["x_shape"]
    _, h_out, w_out = self.output_shape
    dx = np.zeros((n, c, h, w), dtype=grad.dtype)
    # Decompose the flat within-window argmax into row/col offsets.
    win_r = idx // self.window
    win_c = idx % self.window
    rows = (np.arange(h_out) * self.stride)[None, None, :, None] + win_r
    cols = (np.arange(w_out) * self.stride)[None, None, None, :] + win_c
    n_idx = np.arange(n)[:, None, None, None]
    c_idx = np.arange(c)[None, :, None, None]
    np.add.at(dx, (n_idx, c_idx, rows, cols), grad)
    return dx


def conv_forward(self, x, training=False):
    self._check_input(x)
    weight = self.params["weight"]
    if x.dtype != weight.dtype:
        x = x.astype(weight.dtype)
    n = x.shape[0]
    _, h_out, w_out = self.output_shape
    cols = im2col(x, self.kernel, self.stride, self.padding)
    w_flat = weight.reshape(self.num_maps, -1)
    pre = cols @ w_flat.T + self.params["bias"]
    pre = pre.reshape(n, h_out, w_out, self.num_maps).transpose(0, 3, 1, 2)
    out = self.activation.forward(pre)
    if training:
        self._cache = {"cols": cols, "output": out, "batch": n}
    return out


def conv_backward(self, grad):
    if not self._cache:
        raise ShapeError(
            f"backward() on {self.name!r} without a preceding training forward()"
        )
    cols = self._cache["cols"]
    out = self._cache["output"]
    n = self._cache["batch"]
    weight = self.params["weight"]
    if grad.dtype != weight.dtype:
        grad = grad.astype(weight.dtype)
    grad = self.activation.backward(grad, out)
    # (N, M, Ho, Wo) -> rows aligned with im2col ordering.
    grad_rows = grad.transpose(0, 2, 3, 1).reshape(-1, self.num_maps)
    w_flat = weight.reshape(self.num_maps, -1)
    self.grads["weight"] = (grad_rows.T @ cols).reshape(weight.shape)
    self.grads["bias"] = grad_rows.sum(axis=0)
    grad_cols = grad_rows @ w_flat
    x_shape = (n, *self.input_shape)
    return col2im(grad_cols, x_shape, self.kernel, self.stride, self.padding)


def network_backward(self, loss, outputs, targets):
    grad = loss.gradient(outputs, targets)
    layers = self.layers
    last = layers[-1]
    fused = (
        getattr(loss, "fused_with_softmax", False)
        and isinstance(last, Dense)
        and isinstance(last.activation, Softmax)
    )
    if fused:
        grad = last.backward_fused(grad)
        remaining = layers[:-1]
    else:
        remaining = layers
    for layer in reversed(remaining):
        grad = layer.backward(grad)
    return grad


def adam_update(self, param, grad, lr, slot) -> None:
    slot["t"] += 1
    t = float(slot["t"][0])
    m, v = slot["m"], slot["v"]
    m *= self.beta1
    m += (1 - self.beta1) * grad
    v *= self.beta2
    v += (1 - self.beta2) * grad * grad
    m_hat = m / (1 - self.beta1**t)
    v_hat = v / (1 - self.beta2**t)
    param -= lr * m_hat / (np.sqrt(v_hat) + self.epsilon)


#: ``(owner, attribute, reference)`` for every replaced kernel.
PATCHES = (
    (activations.Identity, "forward", _identity_forward),
    (activations.Identity, "backward", _identity_backward),
    (activations.Sigmoid, "forward", _sigmoid_forward),
    (activations.Sigmoid, "backward", _sigmoid_backward),
    (activations.Tanh, "forward", _tanh_forward),
    (activations.Tanh, "backward", _tanh_backward),
    (activations.ReLU, "forward", _relu_forward),
    (activations.ReLU, "backward", _relu_backward),
    (activations.Softmax, "forward", _softmax_forward),
    (activations.Softmax, "backward", _softmax_backward),
    (MaxPool2D, "forward", maxpool_forward),
    (MaxPool2D, "backward", maxpool_backward),
    (Conv2D, "forward", conv_forward),
    (Conv2D, "backward", conv_backward),
    (Network, "backward", network_backward),
    (Adam, "_update", adam_update),
)


@contextmanager
def reference_kernels():
    """Run the enclosed code on the reference kernels, then restore."""
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in PATCHES]
    try:
        for owner, name, fn in PATCHES:
            setattr(owner, name, fn)
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
