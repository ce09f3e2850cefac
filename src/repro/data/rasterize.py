"""Rasterize stroke glyphs onto a pixel grid.

Rendering computes, for every pixel, the distance to the nearest point of
any stroke polyline and converts distance to intensity with a soft pen
profile, giving anti-aliased strokes without supersampling:

    intensity(d) = clip((thickness - d) / softness, 0, 1)

This is a vectorized point-to-segment distance evaluated for all pixels at
once (a glyph has ~50 segments, an image 784 pixels).  A finished digit,
augmentation included, costs about 4 ms on one Xeon core:
``get_datasets(Scale.small())`` builds its 4000 digits in about 15 s.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError

#: Default canvas side, matching MNIST.
IMAGE_SIZE = 28


def _segment_distances(pixels: np.ndarray, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Distance from each pixel center to each segment, ``(P, S)``.

    Parameters
    ----------
    pixels:
        ``(P, 2)`` pixel-center coordinates.
    p0, p1:
        ``(S, 2)`` segment endpoints.
    """
    d = p1 - p0  # (S, 2)
    length_sq = np.einsum("sd,sd->s", d, d)
    length_sq = np.where(length_sq < 1e-12, 1e-12, length_sq)
    # Projection parameter of each pixel onto each segment, clamped to [0,1].
    rel = pixels[:, None, :] - p0[None, :, :]  # (P, S, 2)
    t = np.clip(np.einsum("psd,sd->ps", rel, d) / length_sq, 0.0, 1.0)
    nearest = p0[None, :, :] + t[:, :, None] * d[None, :, :]
    diff = pixels[:, None, :] - nearest
    return np.sqrt(np.einsum("psd,psd->ps", diff, diff))


def strokes_to_segments(strokes: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten polylines into ``(S, 2)`` segment endpoint arrays."""
    starts: list[np.ndarray] = []
    ends: list[np.ndarray] = []
    for stroke in strokes:
        stroke = np.asarray(stroke, dtype=np.float64)
        if stroke.ndim != 2 or stroke.shape[1] != 2 or stroke.shape[0] < 2:
            raise DataError(
                f"each stroke must be a (K>=2, 2) point array, got {stroke.shape}"
            )
        starts.append(stroke[:-1])
        ends.append(stroke[1:])
    if not starts:
        raise DataError("glyph has no strokes")
    return np.concatenate(starts), np.concatenate(ends)


def rasterize_strokes(
    strokes: list[np.ndarray],
    *,
    size: int = IMAGE_SIZE,
    thickness: float = 0.06,
    softness: float = 0.04,
) -> np.ndarray:
    """Render a glyph onto a ``(size, size)`` float image in [0, 1].

    Parameters
    ----------
    strokes:
        Polylines in normalized [0, 1] x [0, 1] coordinates (x right, y down).
    thickness:
        Pen half-width in normalized units (0.06 ~ 1.7 px at 28x28).
    softness:
        Width of the anti-aliasing ramp in normalized units.
    """
    if size < 4:
        raise DataError(f"image size must be >= 4, got {size}")
    if thickness <= 0 or softness <= 0:
        raise DataError(
            f"thickness and softness must be > 0, got {thickness}, {softness}"
        )
    p0, p1 = strokes_to_segments(strokes)
    # Pixel centers in normalized coordinates.
    grid = (np.arange(size) + 0.5) / size
    xs, ys = np.meshgrid(grid, grid)  # ys varies along rows
    pixels = np.stack([xs.ravel(), ys.ravel()], axis=1)
    distances = _segment_distances(pixels, p0, p1).min(axis=1)
    intensity = np.clip((thickness - distances) / softness + 0.5, 0.0, 1.0)
    return intensity.reshape(size, size)
