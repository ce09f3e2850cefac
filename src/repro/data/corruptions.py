"""Deterministic, severity-parameterized image/label corruptions.

The paper's efficiency claim rests on "most inputs are easy"; these
transforms are how the scenario suite makes inputs *stop* being easy in a
controlled way.  Every corruption is a pure function of ``(data, severity,
rng)``: severity is a fraction in [0, 1] scaling the distortion magnitude
(0 is the identity for every corruption), and all randomness flows through
an explicit :class:`numpy.random.Generator`, so a corrupted dataset is
reproducible from a single integer seed.

Corruptions compose with the synthetic-MNIST augmentation pipeline: they
consume/produce the same ``(N, 1, H, W)`` float images in [0, 1] that
:func:`repro.data.augment.augment_image` emits, and the affine jitter
reuses :func:`repro.data.augment.affine_matrix`.  ``label_noise`` is the
one corruption that touches labels instead of pixels (annotation-quality
drift rather than sensor drift).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.augment import affine_matrix
from repro.data.dataset import DigitDataset
from repro.errors import ConfigurationError
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fraction


@dataclass(frozen=True)
class Corruption:
    """One registered corruption transform.

    ``fn`` takes ``(images, severity, rng)`` for pixel corruptions and
    ``(labels, num_classes, severity, rng)`` for label corruptions
    (``corrupts_labels=True``); both return a fresh array.
    """

    name: str
    fn: Callable[..., np.ndarray]
    corrupts_labels: bool = False


#: Registry of named corruptions (populated by :func:`register_corruption`).
CORRUPTIONS: dict[str, Corruption] = {}


def register_corruption(name: str, *, corrupts_labels: bool = False):
    """Decorator registering a corruption under ``name``."""

    def decorate(fn: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
        if name in CORRUPTIONS:
            raise ConfigurationError(f"corruption {name!r} is already registered")
        CORRUPTIONS[name] = Corruption(name, fn, corrupts_labels=corrupts_labels)
        return fn

    return decorate


def get_corruption(name: str) -> Corruption:
    """Look up a registered corruption by name."""
    try:
        return CORRUPTIONS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown corruption {name!r}; available: {sorted(CORRUPTIONS)}"
        ) from None


def corruption_names(*, labels: bool | None = None) -> tuple[str, ...]:
    """Registered corruption names; ``labels`` filters by kind."""
    return tuple(
        sorted(
            c.name
            for c in CORRUPTIONS.values()
            if labels is None or c.corrupts_labels == labels
        )
    )


def _check_images(images: np.ndarray) -> np.ndarray:
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise ConfigurationError(
            f"corruptions expect (N, C, H, W) images, got shape {images.shape}"
        )
    return images


# -- pixel corruptions ----------------------------------------------------------


@register_corruption("gaussian_noise")
def gaussian_noise(
    images: np.ndarray, severity: float, rng: np.random.Generator
) -> np.ndarray:
    """Additive zero-mean sensor noise, sigma up to 0.30 at severity 1."""
    images = _check_images(images)
    severity = check_fraction(severity, "severity")
    if severity == 0:
        return images.copy()
    noise = rng.normal(0.0, 0.30 * severity, size=images.shape)
    return np.clip(images + noise, 0.0, 1.0)


@register_corruption("impulse_noise")
def impulse_noise(
    images: np.ndarray, severity: float, rng: np.random.Generator
) -> np.ndarray:
    """Salt-and-pepper: up to 20 % of pixels forced to 0 or 1 at severity 1."""
    images = _check_images(images)
    severity = check_fraction(severity, "severity")
    out = images.copy()
    if severity == 0:
        return out
    flip = rng.random(images.shape) < 0.20 * severity
    salt = rng.random(images.shape) < 0.5
    out[flip & salt] = 1.0
    out[flip & ~salt] = 0.0
    return out


@register_corruption("blur")
def blur(images: np.ndarray, severity: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian defocus blur, sigma up to 1.8 px at severity 1 (no randomness)."""
    images = _check_images(images)
    severity = check_fraction(severity, "severity")
    if severity == 0:
        return images.copy()
    sigma = 1.8 * severity
    from scipy import ndimage  # lazy: keeps scipy out of ``import repro``

    return np.clip(
        ndimage.gaussian_filter(images, sigma=(0.0, 0.0, sigma, sigma)), 0.0, 1.0
    )


@register_corruption("occlusion")
def occlusion(
    images: np.ndarray, severity: float, rng: np.random.Generator
) -> np.ndarray:
    """One zeroed square patch per image, side up to half the canvas."""
    images = _check_images(images)
    severity = check_fraction(severity, "severity")
    out = images.copy()
    if severity == 0:
        return out
    h, w = images.shape[2], images.shape[3]
    side = max(1, int(round(0.5 * severity * min(h, w))))
    tops = rng.integers(0, h - side + 1, size=images.shape[0])
    lefts = rng.integers(0, w - side + 1, size=images.shape[0])
    for i, (top, left) in enumerate(zip(tops, lefts)):
        out[i, :, top : top + side, left : left + side] = 0.0
    return out


@register_corruption("contrast")
def contrast(
    images: np.ndarray, severity: float, rng: np.random.Generator
) -> np.ndarray:
    """Compress dynamic range toward each image's mean (80 % at severity 1)."""
    images = _check_images(images)
    severity = check_fraction(severity, "severity")
    if severity == 0:
        return images.copy()
    means = images.mean(axis=(2, 3), keepdims=True)
    factor = 1.0 - 0.8 * severity
    return np.clip(means + (images - means) * factor, 0.0, 1.0)


@register_corruption("affine_jitter")
def affine_jitter(
    images: np.ndarray, severity: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-image rotation/shear/scale/translation jitter of the raster.

    Magnitudes at severity 1: 30 deg rotation, 0.25 shear, 20 % scale,
    12 % translation -- the camera-pose analogue of the stroke-space
    jitter in :mod:`repro.data.augment`.
    """
    images = _check_images(images)
    severity = check_fraction(severity, "severity")
    out = images.copy()
    if severity == 0:
        return out
    from scipy import ndimage  # lazy: keeps scipy out of ``import repro``

    n, c, h, w = images.shape
    center = np.array([(h - 1) / 2.0, (w - 1) / 2.0])
    for i in range(n):
        rotation = rng.uniform(-1, 1) * 30.0 * severity
        shear = rng.uniform(-1, 1) * 0.25 * severity
        scale_x = 1.0 + rng.uniform(-1, 1) * 0.20 * severity
        scale_y = 1.0 + rng.uniform(-1, 1) * 0.20 * severity
        shift = rng.uniform(-1, 1, size=2) * 0.12 * severity * np.array([h, w])
        matrix = affine_matrix(rotation, shear, scale_x, scale_y)
        # ndimage pulls input coordinates from output ones: x_in = M x_out
        # + offset; invert the forward map and keep the canvas center fixed.
        inverse = np.linalg.inv(matrix)
        offset = center - inverse @ (center + shift)
        for ch in range(c):
            out[i, ch] = ndimage.affine_transform(
                images[i, ch], inverse, offset=offset, order=1, mode="constant"
            )
    return np.clip(out, 0.0, 1.0)


# -- label corruption -----------------------------------------------------------


@register_corruption("label_noise", corrupts_labels=True)
def label_noise(
    labels: np.ndarray,
    num_classes: int,
    severity: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Flip up to half the labels (at severity 1) to a different class."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    severity = check_fraction(severity, "severity")
    out = labels.copy()
    if severity == 0 or labels.size == 0:
        return out
    flip = rng.random(labels.shape) < 0.5 * severity
    offsets = rng.integers(1, num_classes, size=labels.shape)
    out[flip] = (labels[flip] + offsets[flip]) % num_classes
    return out


# -- dataset-level application ---------------------------------------------------


def corrupt_dataset(
    dataset: DigitDataset,
    name: str,
    severity: float,
    rng: int | np.random.Generator | None = None,
) -> DigitDataset:
    """A new dataset with one named corruption applied at ``severity``."""
    return apply_corruptions(dataset, [(name, severity)], rng)


def apply_corruptions(
    dataset: DigitDataset,
    specs,
    rng: int | np.random.Generator | None = None,
) -> DigitDataset:
    """A new dataset with a chain of ``(name, severity)`` corruptions applied.

    One generator threads through the whole chain, so the composite is as
    deterministic as a single corruption.  Pixel corruptions compute in
    float64 and hand float64 images down the chain; the returned dataset
    rounds the result once, to the active compute policy's dtype.
    """
    gen = ensure_rng(rng)
    images, labels, name = dataset.images, dataset.labels, dataset.name
    for corruption_name, severity in specs:
        corruption = get_corruption(corruption_name)
        if corruption.corrupts_labels:
            labels = corruption.fn(labels, dataset.num_classes, severity, gen)
        else:
            images = corruption.fn(images, severity, gen)
        name = f"{name}+{corruption_name}@{severity:g}"
    return DigitDataset(
        images=images,
        labels=labels,
        num_classes=dataset.num_classes,
        difficulty=dataset.difficulty.copy(),
        name=name,
    )
