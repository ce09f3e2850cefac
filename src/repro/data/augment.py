"""Difficulty-controlled augmentation.

A single scalar ``difficulty`` in [0, 1] scales every distortion applied to
a sample: affine jitter of the stroke skeleton, per-point stroke wobble,
pen-thickness variation, elastic deformation of the raster, and pixel
noise/clutter.  Difficulty 0 yields near-canonical prototypes (the "easy
instances far from the decision boundary" of the paper's Fig. 1); difficulty
1 yields heavily distorted, cluttered samples (the "hard instances").

The raster-space steps run over batches of images.  Each image's random
values are drawn first (:func:`draw_raster_augmentation`), since none
depends on the image; :func:`apply_raster_draws` then does the math for
the whole batch.  The one-image functions are batches of one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fraction


@dataclass(frozen=True)
class AugmentationParams:
    """Maximum distortion magnitudes reached at difficulty 1.

    All values are in normalized image units (fractions of the canvas)
    except angles (degrees) and noise (intensity units).
    """

    max_rotation_deg: float = 50.0
    max_shear: float = 0.45
    max_scale_jitter: float = 0.35
    max_translation: float = 0.18
    max_stroke_wobble: float = 0.07
    max_thickness_jitter: float = 0.6
    max_elastic_alpha: float = 7.0
    elastic_sigma: float = 2.2
    max_pixel_noise: float = 0.45
    max_clutter_blobs: int = 5
    clutter_intensity: float = 0.8


def affine_matrix(
    rotation_deg: float, shear: float, scale_x: float, scale_y: float
) -> np.ndarray:
    """Compose a 2x2 rotation/shear/scale matrix (no translation)."""
    theta = np.radians(rotation_deg)
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    sh = np.array([[1.0, shear], [0.0, 1.0]])
    sc = np.diag([scale_x, scale_y])
    return rot @ sh @ sc


def transform_strokes(
    strokes: list[np.ndarray],
    difficulty: float,
    params: AugmentationParams,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Apply difficulty-scaled affine jitter and per-point wobble to strokes."""
    difficulty = check_fraction(difficulty, "difficulty")
    d = difficulty
    rotation = rng.uniform(-1, 1) * params.max_rotation_deg * d
    shear = rng.uniform(-1, 1) * params.max_shear * d
    scale_x = 1.0 + rng.uniform(-1, 1) * params.max_scale_jitter * d
    scale_y = 1.0 + rng.uniform(-1, 1) * params.max_scale_jitter * d
    shift = rng.uniform(-1, 1, size=2) * params.max_translation * d
    matrix = affine_matrix(rotation, shear, scale_x, scale_y)
    center = np.array([0.5, 0.5])
    out: list[np.ndarray] = []
    for stroke in strokes:
        pts = (stroke - center) @ matrix.T + center + shift
        wobble = rng.normal(0.0, params.max_stroke_wobble * d, size=pts.shape)
        # Smooth the wobble along the stroke so it bends rather than jitters.
        if pts.shape[0] >= 3:
            kernel = np.array([0.25, 0.5, 0.25])
            wobble = np.stack(
                [np.convolve(wobble[:, k], kernel, mode="same") for k in range(2)],
                axis=1,
            )
        out.append(np.clip(pts + wobble, 0.02, 0.98))
    return out


def _smooth_rows(images: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """One ``gaussian_filter`` pass along axis -2 of ``(..., H, W)``."""
    radius = len(weights) // 2
    n = images.shape[-2]
    pad = [(0, 0)] * (images.ndim - 2) + [(radius, radius), (0, 0)]
    padded = np.pad(images, pad, mode="symmetric")
    out = padded[..., radius : radius + n, :] * weights[radius]
    pair = np.empty_like(out)
    for k in range(radius, 0, -1):
        left = padded[..., radius - k : radius - k + n, :]
        right = padded[..., radius + k : radius + k + n, :]
        np.add(left, right, out=pair)
        pair *= weights[radius - k]
        out += pair
    return out


def gaussian_smooth(fields: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-filter each image of ``(..., H, W)`` over its last two axes.

    The arithmetic is ``scipy.ndimage.gaussian_filter``'s, so the result
    is the same bit for bit: its normalized kernel of radius
    ``int(4 sigma + 0.5)``, reflect (numpy's ``symmetric``) padding, axis
    -2 then axis -1, and per output the centre tap times its weight plus
    ``(left + right) * w`` pair by pair from the outermost tap inward.
    """
    sigma = float(sigma)
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    weights = phi / phi.sum()
    rows_done = _smooth_rows(fields, weights)
    # The axis -1 pass runs on the transpose, so it too reads whole rows.
    return np.swapaxes(_smooth_rows(np.swapaxes(rows_done, -1, -2), weights), -1, -2)


def bilinear_warp(images: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sample each of ``(K, H, W)`` images at its own ``(K, H, W)`` coordinates.

    The arithmetic is ``scipy.ndimage.map_coordinates(order=1,
    mode="constant")``'s, bit for bit: weights ``(1 - t, 1 - (1 - t))``
    per axis, terms ``value * row_weight * col_weight`` summed onto 0.0
    in raster order, and 0 wherever a coordinate falls outside
    ``[0, H - 1]`` x ``[0, W - 1]``.
    """
    k, h, w = images.shape
    inside = (rows >= 0) & (rows <= h - 1) & (cols >= 0) & (cols <= w - 1)
    r0, c0 = np.floor(rows), np.floor(cols)
    wr0 = 1.0 - (rows - r0)
    wr1 = 1.0 - wr0
    wc0 = 1.0 - (cols - c0)
    wc1 = 1.0 - wc0
    # A neighbour past the last row/column only ever carries weight 0.
    i0 = np.where(inside, r0, 0).astype(np.intp)
    j0 = np.where(inside, c0, 0).astype(np.intp)
    i1, j1 = np.minimum(i0 + 1, h - 1), np.minimum(j0 + 1, w - 1)
    flat = images.reshape(-1)
    base = np.arange(k).reshape(k, 1, 1) * (h * w)
    out = np.add(0.0, flat[base + i0 * w + j0] * wr0 * wc0)
    out += flat[base + i0 * w + j1] * wr0 * wc1
    out += flat[base + i1 * w + j0] * wr1 * wc0
    out += flat[base + i1 * w + j1] * wr1 * wc1
    out[~inside] = 0.0
    return out


def _elastic(
    images: np.ndarray, fields: np.ndarray, alpha: np.ndarray, sigma: float
) -> np.ndarray:
    """Warp ``(K, H, W)`` images by their ``(K, 2, H, W)`` uniform fields
    (dx's, then dy's), smoothed and scaled by the ``(K,)`` ``alpha``."""
    smooth = gaussian_smooth(fields, sigma) * alpha[:, None, None, None]
    h, w = images.shape[1:]
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return bilinear_warp(images, rows + smooth[:, 1], cols + smooth[:, 0])


def _add_clutter(images: np.ndarray, blobs: Sequence[np.ndarray]) -> None:
    """Add the Gaussian blobs of ``blobs[i]``'s ``(cy, cx, 2 radius**2,
    weight)`` rows to image ``i`` of a ``(K, H, W)`` batch, then clip the
    batch, in place.  An image without blobs must already lie in [0, 1],
    where clipping leaves every bit as it is."""
    size = images.shape[-2]
    ys, xs = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    counts = np.array([len(b) for b in blobs])
    # An image's blobs add one after another, so add them rank by rank.
    for rank in range(counts.max(initial=0)):
        members = np.flatnonzero(counts > rank)
        rows = np.stack([blobs[i][rank] for i in members])
        cy, cx, spread, weight = (rows[:, j, None, None] for j in range(4))
        blob = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / spread)
        images[members] += weight * blob
    np.clip(images, 0.0, 1.0, out=images)


@dataclass(frozen=True)
class RasterDraws:
    """Every rng value one image's raster augmentation consumes.

    None of them depends on the image, so a batch draws them all, image
    by image in the order :func:`augment_image` would, and then runs the
    raster math over the whole batch (:func:`apply_raster_draws`).

    Attributes
    ----------
    alpha:
        Elastic displacement scale.
    fields:
        ``(2, H, W)`` uniform(-1, 1) fields for x then y displacement, or
        None when ``alpha <= 0``: no warp, and nothing drawn for it.
    noise:
        ``(H, W)`` additive pixel noise, or None.
    blobs:
        ``(n, 4)`` clutter blobs as ``(cy, cx, 2 radius**2, weight)``
        rows; n may be 0.
    """

    alpha: float
    fields: np.ndarray | None
    noise: np.ndarray | None
    blobs: np.ndarray


def _draw_fields(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    dx = rng.uniform(-1, 1, shape)
    dy = rng.uniform(-1, 1, shape)
    return np.stack([dx, dy])


def _draw_blobs(
    size: int, num_blobs: int, intensity: float, rng: np.random.Generator
) -> np.ndarray:
    blobs = np.empty((int(num_blobs), 4))
    for row in blobs:
        cy, cx = rng.uniform(0, size, size=2)
        radius = rng.uniform(0.5, 2.0)
        row[:] = cy, cx, 2 * radius**2, intensity * rng.uniform(0.3, 1.0)
    return blobs


def draw_raster_augmentation(
    difficulty: float,
    params: AugmentationParams,
    shape: tuple[int, int],
    rng: np.random.Generator,
) -> RasterDraws:
    """Draw one ``shape`` image's elastic fields, noise and clutter."""
    difficulty = check_fraction(difficulty, "difficulty")
    alpha = params.max_elastic_alpha * difficulty
    fields = _draw_fields(shape, rng) if alpha > 0 else None
    noise = None
    if params.max_pixel_noise > 0 and difficulty > 0:
        noise = rng.normal(0.0, params.max_pixel_noise * difficulty, size=shape)
    max_blobs = int(round(params.max_clutter_blobs * difficulty))
    num_blobs = rng.integers(0, max_blobs + 1) if max_blobs > 0 else 0
    blobs = _draw_blobs(shape[0], num_blobs, params.clutter_intensity * difficulty, rng)
    return RasterDraws(alpha, fields, noise, blobs)


def apply_raster_draws(
    images: np.ndarray, draws: Sequence[RasterDraws], sigma: float
) -> np.ndarray:
    """Elastic warp, noise and clutter over a ``(K, H, W)`` batch, in place.

    ``draws[i]`` holds image ``i``'s draws and ``sigma`` is the elastic
    smoothing width.  Returns ``images``.
    """
    warped = [i for i, d in enumerate(draws) if d.fields is not None]
    if warped:
        images[warped] = _elastic(
            images[warped],
            np.stack([draws[i].fields for i in warped]),
            np.array([draws[i].alpha for i in warped]),
            sigma,
        )
    noisy = [i for i, d in enumerate(draws) if d.noise is not None]
    if noisy:
        images[noisy] += np.stack([draws[i].noise for i in noisy])
    np.clip(images, 0.0, 1.0, out=images)
    _add_clutter(images, [d.blobs for d in draws])
    return images


def elastic_deform(
    image: np.ndarray, alpha: float, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Simard-style elastic deformation via a smoothed displacement field."""
    if alpha <= 0:
        return image
    fields = _draw_fields(image.shape, rng)
    return _elastic(image[None], fields[None], np.array([alpha]), sigma)[0]


def add_clutter(
    image: np.ndarray,
    num_blobs: int,
    intensity: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Add soft Gaussian blobs emulating background structure/partial strokes."""
    if num_blobs <= 0:
        return image
    out = image.copy()
    _add_clutter(out[None], [_draw_blobs(image.shape[0], num_blobs, intensity, rng)])
    return out


def augment_image(
    image: np.ndarray,
    difficulty: float,
    params: AugmentationParams,
    rng: int | np.random.Generator | None,
) -> np.ndarray:
    """Apply the raster-space augmentations (elastic, noise, clutter)."""
    difficulty = check_fraction(difficulty, "difficulty")
    rng = ensure_rng(rng)
    draws = draw_raster_augmentation(difficulty, params, image.shape, rng)
    batch = np.array(image, dtype=np.float64)[None]
    return apply_raster_draws(batch, [draws], params.elastic_sigma)[0]
