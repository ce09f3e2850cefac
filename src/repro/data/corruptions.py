"""Deterministic, severity-parameterized image/label corruptions.

The paper's efficiency claim rests on "most inputs are easy"; these
transforms are how the scenario suite makes inputs *stop* being easy in a
controlled way.  A corruption is applied at a severity, a fraction in
[0, 1] scaling the distortion magnitude, and all its randomness flows
through an explicit :class:`numpy.random.Generator`, so a corrupted
dataset is reproducible from a single integer seed.
:func:`apply_corruptions` treats severity 0 as the identity and never
calls the corruption for it.

A pixel corruption is registered as ``fn(shape, severity, rng)`` and
returns a :data:`BlockFn` that corrupts one block of the set at a time
(see :class:`Corruption`).  The blocks are
:func:`~repro.data.dataset.image_blocks` float64 copies, as synthesis
renders digits (:mod:`repro.data.synthetic_mnist`): the corrupted set is
allocated once, in the active compute policy's dtype, and no float64 copy
of the whole set is made for a single corruption.

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
from repro.data.dataset import DigitDataset, image_blocks
from repro.errors import ConfigurationError
from repro.nn.compute import active_policy
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fraction

#: ``corrupt(block, rows)``: one float64 block of images, corrupted.
BlockFn = Callable[[np.ndarray, slice], np.ndarray]


@dataclass(frozen=True)
class Corruption:
    """One registered corruption transform.

    A label corruption (``corrupts_labels=True``) is
    ``fn(labels, num_classes, severity, rng)`` and returns fresh labels.

    A pixel corruption is ``fn(shape, severity, rng)`` for a set of
    ``shape = (N, C, H, W)`` images and a severity in (0, 1]; severity 0
    is the identity, for which :func:`apply_corruptions` never calls it.
    It makes the draws that span the whole set, then returns a
    :data:`BlockFn`, ``corrupt(block, rows)``, which receives the set's
    ``rows`` (one slice of :func:`~repro.data.dataset.image_blocks`) as a
    fresh float64 ``block`` it may overwrite, and returns them corrupted.
    Blocks arrive in order, each once, with nothing else drawn in between,
    so a draw made block by block follows the same stream as one draw over
    the whole set.
    """

    name: str
    fn: Callable[..., np.ndarray | BlockFn]
    corrupts_labels: bool = False


#: Registry of named corruptions (populated by :func:`register_corruption`).
CORRUPTIONS: dict[str, Corruption] = {}


def register_corruption(name: str, *, corrupts_labels: bool = False):
    """Decorator registering a corruption under ``name``."""

    def decorate(
        fn: Callable[..., np.ndarray | BlockFn],
    ) -> Callable[..., np.ndarray | BlockFn]:
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


def _unchanged(block: np.ndarray, rows: slice) -> np.ndarray:
    """The :data:`BlockFn` of severity 0."""
    return block


# -- pixel corruptions ----------------------------------------------------------


@register_corruption("gaussian_noise")
def gaussian_noise(shape, severity: float, rng: np.random.Generator) -> BlockFn:
    """Additive zero-mean sensor noise, sigma up to 0.30 at severity 1."""
    sigma = 0.30 * severity

    def corrupt(block, rows):
        block += rng.normal(0.0, sigma, size=block.shape)
        return np.clip(block, 0.0, 1.0, out=block)

    return corrupt


@register_corruption("impulse_noise")
def impulse_noise(shape, severity: float, rng: np.random.Generator) -> BlockFn:
    """Salt-and-pepper: up to 20 % of pixels forced to 0 or 1 at severity 1.

    Every pixel's flip is drawn before any pixel's salt, so the flip mask
    covers the set; each block draws its salt as it comes.
    """
    flip = np.empty(shape, dtype=bool)
    for rows in image_blocks(shape[0]):
        flip[rows] = rng.random(flip[rows].shape) < 0.20 * severity

    def corrupt(block, rows):
        salt = rng.random(block.shape) < 0.5
        block[flip[rows] & salt] = 1.0
        block[flip[rows] & ~salt] = 0.0
        return block

    return corrupt


@register_corruption("blur")
def blur(shape, severity: float, rng: np.random.Generator) -> BlockFn:
    """Gaussian defocus blur, sigma up to 1.8 px at severity 1 (no randomness)."""
    from scipy import ndimage  # lazy: keeps scipy out of ``import repro``

    sigma = 1.8 * severity

    def corrupt(block, rows):
        out = ndimage.gaussian_filter(block, sigma=(0.0, 0.0, sigma, sigma))
        return np.clip(out, 0.0, 1.0, out=out)

    return corrupt


@register_corruption("occlusion")
def occlusion(shape, severity: float, rng: np.random.Generator) -> BlockFn:
    """One zeroed square patch per image, side up to half the canvas.

    Every image's top is drawn before any image's left.
    """
    n, _, h, w = shape
    side = max(1, int(round(0.5 * severity * min(h, w))))
    tops = rng.integers(0, h - side + 1, size=n)
    lefts = rng.integers(0, w - side + 1, size=n)

    def corrupt(block, rows):
        for image, top, left in zip(block, tops[rows], lefts[rows]):
            image[:, top : top + side, left : left + side] = 0.0
        return block

    return corrupt


@register_corruption("contrast")
def contrast(shape, severity: float, rng: np.random.Generator) -> BlockFn:
    """Compress dynamic range toward each image's mean (80 % at severity 1)."""
    factor = 1.0 - 0.8 * severity

    def corrupt(block, rows):
        means = block.mean(axis=(2, 3), keepdims=True)
        block -= means
        block *= factor
        block += means
        return np.clip(block, 0.0, 1.0, out=block)

    return corrupt


@register_corruption("affine_jitter")
def affine_jitter(shape, severity: float, rng: np.random.Generator) -> BlockFn:
    """Per-image rotation/shear/scale/translation jitter of the raster.

    Magnitudes at severity 1: 30 deg rotation, 0.25 shear, 20 % scale,
    12 % translation -- the camera-pose analogue of the stroke-space
    jitter in :mod:`repro.data.augment`.  Each image's draws are made as
    its block comes.
    """
    from scipy import ndimage  # lazy: keeps scipy out of ``import repro``

    h, w = shape[2], shape[3]
    center = np.array([(h - 1) / 2.0, (w - 1) / 2.0])

    def corrupt(block, rows):
        for image in block:
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
            for channel in image:
                channel[...] = ndimage.affine_transform(
                    channel, inverse, offset=offset, order=1, mode="constant"
                )
        return np.clip(block, 0.0, 1.0, out=block)

    return corrupt


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
    deterministic as a single corruption.  The corruptions run in chain
    order, each over the whole set before the next starts, so they draw
    from the generator in that order.  A pixel corruption runs over the
    float64 blocks of :func:`~repro.data.dataset.image_blocks`.  The last
    one writes each block into images of the active compute policy's
    dtype, so every pixel is rounded once; the ones before it write into
    one float64 working array that the next reads.
    """
    gen = ensure_rng(rng)
    steps = [(get_corruption(n), check_fraction(s, "severity")) for n, s in specs]
    pixel_steps = sum(not corruption.corrupts_labels for corruption, _ in steps)
    images, labels, name = dataset.images, dataset.labels, dataset.name
    working = None
    for corruption, severity in steps:
        if corruption.corrupts_labels:
            labels = corruption.fn(labels, dataset.num_classes, severity, gen)
        else:
            pixel_steps -= 1
            if pixel_steps == 0:
                out = np.empty(images.shape, dtype=active_policy().dtype)
            elif working is None:
                out = working = np.empty(images.shape, dtype=np.float64)
            else:
                out = working
            corrupt = _unchanged
            if severity:
                corrupt = corruption.fn(images.shape, severity, gen)
            for rows in image_blocks(images.shape[0]):
                out[rows] = corrupt(images[rows].astype(np.float64), rows)
            images = out
        name = f"{name}+{corruption.name}@{severity:g}"
    return DigitDataset(
        images=images,
        labels=labels,
        num_classes=dataset.num_classes,
        difficulty=dataset.difficulty.copy(),
        name=name,
    )
