"""Difficulty-controlled augmentation.

A single scalar ``difficulty`` in [0, 1] scales every distortion applied to
a sample: affine jitter of the stroke skeleton, per-point stroke wobble,
pen-thickness variation, elastic deformation of the raster, and pixel
noise/clutter.  Difficulty 0 yields near-canonical prototypes (the "easy
instances far from the decision boundary" of the paper's Fig. 1); difficulty
1 yields heavily distorted, cluttered samples (the "hard instances").
"""

from __future__ import annotations

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


def elastic_deform(
    image: np.ndarray, alpha: float, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Simard-style elastic deformation via a smoothed displacement field."""
    if alpha <= 0:
        return image
    from scipy import ndimage  # lazy: keeps scipy out of ``import repro``

    shape = image.shape
    dx = ndimage.gaussian_filter(rng.uniform(-1, 1, shape), sigma) * alpha
    dy = ndimage.gaussian_filter(rng.uniform(-1, 1, shape), sigma) * alpha
    rows, cols = np.meshgrid(
        np.arange(shape[0]), np.arange(shape[1]), indexing="ij"
    )
    coords = np.stack([rows + dy, cols + dx])
    return ndimage.map_coordinates(image, coords, order=1, mode="constant")


def add_clutter(
    image: np.ndarray,
    num_blobs: int,
    intensity: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Add soft Gaussian blobs emulating background structure/partial strokes."""
    if num_blobs <= 0:
        return image
    size = image.shape[0]
    ys, xs = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    out = image.copy()
    for _ in range(num_blobs):
        cy, cx = rng.uniform(0, size, size=2)
        radius = rng.uniform(0.5, 2.0)
        blob = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * radius**2))
        out += intensity * rng.uniform(0.3, 1.0) * blob
    return np.clip(out, 0.0, 1.0)


def augment_image(
    image: np.ndarray,
    difficulty: float,
    params: AugmentationParams,
    rng: int | np.random.Generator | None,
) -> np.ndarray:
    """Apply the raster-space augmentations (elastic, noise, clutter)."""
    difficulty = check_fraction(difficulty, "difficulty")
    rng = ensure_rng(rng)
    out = elastic_deform(
        image, params.max_elastic_alpha * difficulty, params.elastic_sigma, rng
    )
    if params.max_pixel_noise > 0 and difficulty > 0:
        noise = rng.normal(0.0, params.max_pixel_noise * difficulty, size=out.shape)
        out = out + noise
    out = np.clip(out, 0.0, 1.0)
    max_blobs = int(round(params.max_clutter_blobs * difficulty))
    if max_blobs > 0:
        out = add_clutter(
            out, rng.integers(0, max_blobs + 1), params.clutter_intensity * difficulty, rng
        )
    return out
