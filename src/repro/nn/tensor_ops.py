"""Low-level tensor operations: im2col / col2im and window extraction.

Convolution and pooling are implemented by lowering the sliding window into
a matrix ("im2col") so the heavy lifting becomes one BLAS matmul.  This is
the standard trick used by Caffe and by every numpy CNN; it makes the
paper's small networks train in seconds without any compiled extension.

Hot-path contract: each call allocates its own result.  ``im2col``
performs exactly one indexed gather (``np.take`` over a cached
per-geometry offset table) straight into the destination: no window
view, no intermediate materialization.  ``col2im`` scatters window offset
by window offset onto a channels-last canvas, or, when windows do not
overlap (``stride >= kernel``), in one vectorized strided assignment.
Both only move values, and ``col2im`` adds each pixel's contributions in
a fixed order, so every path is exact, not merely close.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import ShapeError


def conv_output_size(size: int, kernel: int, stride: int = 1, padding: int = 0) -> int:
    """Spatial output size of a convolution/pooling window sweep."""
    if kernel < 1 or stride < 1 or padding < 0:
        raise ShapeError(
            f"invalid window geometry kernel={kernel} stride={stride} padding={padding}"
        )
    span = size + 2 * padding - kernel
    if span < 0:
        raise ShapeError(
            f"window (kernel={kernel}, padding={padding}) larger than input size {size}"
        )
    return span // stride + 1


def pad_images(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two trailing (spatial) axes of an ``(N, C, H, W)`` batch."""
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def sliding_windows(
    x: np.ndarray, kernel: int, stride: int = 1, *, writeable: bool = False
) -> np.ndarray:
    """Return a zero-copy view of all ``kernel x kernel`` windows.

    Parameters
    ----------
    x:
        ``(N, C, H, W)`` batch.
    kernel, stride:
        Window size and step.
    writeable:
        Expose the view writable.  Only sound when windows do not overlap
        (``stride >= kernel``) and ``x`` itself is writable; used by the
        vectorized scatter adjoints in :func:`col2im` and average-pool
        backward.

    Returns
    -------
    A view of shape ``(N, C, H_out, W_out, kernel, kernel)`` (read-only
    unless ``writeable``).
    """
    if x.ndim != 4:
        raise ShapeError(f"expected a (N, C, H, W) batch, got shape {x.shape}")
    if writeable and stride < kernel:
        raise ShapeError(
            f"writable windows need stride >= kernel (non-overlapping), "
            f"got stride={stride} kernel={kernel}"
        )
    n, c, h, w = x.shape
    h_out = conv_output_size(h, kernel, stride)
    w_out = conv_output_size(w, kernel, stride)
    sn, sc, sh, sw = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, h_out, w_out, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=writeable,
    )
    return view


@functools.lru_cache(maxsize=64)
def _window_offsets(c: int, h: int, w: int, kernel: int, stride: int) -> np.ndarray:
    """Flat index, within one ``(C, H, W)`` sample, of every im2col entry.

    Ordered like one sample's block of im2col rows: row-major over
    ``(H_out, W_out, C, kernel, kernel)``.  Depends on geometry only, so it
    is built once per layer shape and shared by every batch size.
    """
    h_out = conv_output_size(h, kernel, stride)
    w_out = conv_output_size(w, kernel, stride)
    taps = np.arange(kernel)
    row = (np.arange(h_out) * stride)[:, None, None, None, None] + taps[:, None]
    col = (np.arange(w_out) * stride)[None, :, None, None, None] + taps
    chan = np.arange(c)[None, None, :, None, None]
    offsets = ((chan * h + row) * w + col).ravel()
    offsets.flags.writeable = False
    return offsets


def im2col(
    x: np.ndarray, kernel: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Lower convolution windows into a matrix.

    Returns an array of shape ``(N * H_out * W_out, C * kernel * kernel)``
    whose rows are the flattened receptive fields, ordered so that
    ``rows.reshape(N, H_out, W_out, -1)`` walks the output raster.
    """
    x = pad_images(x, padding)
    if x.ndim != 4:
        raise ShapeError(f"expected a (N, C, H, W) batch, got shape {x.shape}")
    n, c, h, w = x.shape
    offsets = _window_offsets(c, h, w, kernel, stride)
    cols = c * kernel * kernel
    out = np.empty((n * (offsets.size // cols), cols), dtype=x.dtype)
    # One gather per sample row, straight into the destination raster
    # order.  Every offset is in range, so ``mode="wrap"`` never wraps; it
    # only skips the buffered copy that the default ``mode="raise"`` makes
    # when given ``out``.
    np.take(
        x.reshape(n, c * h * w),
        offsets,
        axis=1,
        out=out.reshape(n, offsets.size),
        mode="wrap",
    )
    return out


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back onto the image.

    Overlapping windows accumulate, which is exactly the adjoint of the
    window extraction and therefore the correct gradient routing for
    convolution backprop.  Every pixel sums its contributions onto zero in
    window-offset order (row-major over ``kernel x kernel``), on a
    channels-last canvas where each offset adds one contiguous run of
    ``C`` values per window; disjoint windows (``stride >= kernel``) are
    assigned in one strided-view write.  The result has shape ``x_shape``
    in either memory layout.
    """
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
    canvas = np.zeros(n * c * h_pad * w_pad, dtype=cols.dtype)
    blocks = cols.reshape(n, h_out, w_out, c, kernel, kernel)
    if stride >= kernel:
        # Windows are disjoint: the adjoint is a pure strided scatter, no
        # accumulation needed -- assign through a writable window view.
        x_pad = canvas.reshape(n, c, h_pad, w_pad)
        dst = sliding_windows(x_pad, kernel, stride, writeable=True)
        dst[...] = blocks.transpose(0, 3, 1, 2, 4, 5)
    else:
        nhwc = canvas.reshape(n, h_pad, w_pad, c)
        for i in range(kernel):
            i_max = i + stride * h_out
            for j in range(kernel):
                j_max = j + stride * w_out
                nhwc[:, i:i_max:stride, j:j_max:stride] += blocks[..., i, j]
        x_pad = nhwc.transpose(0, 3, 1, 2)
    if padding == 0:
        return x_pad
    return x_pad[:, :, padding:-padding, padding:-padding]


def one_hot(
    labels: np.ndarray, num_classes: int, *, dtype: np.dtype | None = None
) -> np.ndarray:
    """Encode integer labels ``(N,)`` as a one-hot matrix ``(N, num_classes)``.

    ``dtype`` defaults to float64; losses pass their output dtype so the
    encoding matches the model's compute dtype.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ShapeError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    out = np.zeros(
        (labels.shape[0], num_classes),
        dtype=dtype if dtype is not None else np.float64,
    )
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
