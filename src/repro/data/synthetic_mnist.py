"""Synthetic MNIST-like digit generation.

Each sample is produced by (1) picking a digit class, (2) drawing a
per-sample difficulty from a Beta distribution shaped so that most samples
are easy and a tail is hard -- the skew the paper exploits, (3) scaling
the class's intrinsic style variability into the sample difficulty,
(4) jittering and rasterizing the stroke glyph, and (5) applying
raster-space distortions.  The per-sample difficulty is recorded in the
dataset so experiments can stratify by it (Fig. 8).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.data.augment import (
    AugmentationParams,
    apply_raster_draws,
    draw_raster_augmentation,
    transform_strokes,
)
from repro.data.dataset import DigitDataset, image_blocks
from repro.data.glyphs import DIGIT_STYLE_VARIABILITY, glyph_strokes
from repro.data.rasterize import IMAGE_SIZE, rasterize_batch
from repro.errors import ConfigurationError
from repro.nn.compute import active_policy
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class SyntheticMnistConfig:
    """Generation parameters.

    Attributes
    ----------
    image_size:
        Canvas side (28 matches MNIST and the paper's Tables I/II).
    difficulty_alpha, difficulty_beta:
        Beta-distribution shape for per-sample difficulty.  Combined with
        the per-class variability multipliers the default Beta(1.4, 1.8)
        yields mostly-easy samples with a genuinely hard tail (trained
        baselines land near the paper's 97.5 % accuracy), the regime CDL
        is designed for.
    base_thickness, base_softness:
        Pen geometry passed to the rasterizer.
    class_variability:
        Per-digit multiplier applied to the drawn difficulty; defaults to
        the glyph-complexity-derived table in :mod:`repro.data.glyphs`.
    augmentation:
        Maximum distortion magnitudes (reached at difficulty 1).
    """

    image_size: int = IMAGE_SIZE
    difficulty_alpha: float = 1.4
    difficulty_beta: float = 1.8
    base_thickness: float = 0.055
    base_softness: float = 0.04
    class_variability: dict[int, float] = field(
        default_factory=lambda: dict(DIGIT_STYLE_VARIABILITY)
    )
    augmentation: AugmentationParams = field(default_factory=AugmentationParams)

    def __post_init__(self) -> None:
        if self.difficulty_alpha <= 0 or self.difficulty_beta <= 0:
            raise ConfigurationError("Beta shape parameters must be > 0")
        if set(self.class_variability) != set(range(10)):
            raise ConfigurationError("class_variability must cover digits 0..9")


def render_digits(
    digits: Sequence[int],
    difficulties: Sequence[float],
    config: SyntheticMnistConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Render a ``(len(digits), image_size, image_size)`` batch of samples.

    ``rng`` is drawn exactly as one :func:`render_digit` call per digit, in
    order, would draw it: stroke jitter and wobble, pen thickness, elastic
    fields, pixel noise, clutter.  No draw depends on an image, so every
    digit's draws come first and the raster math then runs over the batch.
    """
    params = config.augmentation
    shape = (config.image_size, config.image_size)
    glyphs, thickness, draws = [], [], []
    for digit, difficulty in zip(digits, difficulties):
        glyphs.append(transform_strokes(glyph_strokes(digit), difficulty, params, rng))
        pen = config.base_thickness * (
            1.0 + rng.uniform(-1, 1) * params.max_thickness_jitter * difficulty
        )
        thickness.append(max(pen, 0.02))
        draws.append(draw_raster_augmentation(difficulty, params, shape, rng))
    images = rasterize_batch(
        glyphs, thickness, size=config.image_size, softness=config.base_softness
    )
    return apply_raster_draws(images, draws, params.elastic_sigma)


def render_digit(
    digit: int,
    difficulty: float,
    config: SyntheticMnistConfig,
    rng: int | np.random.Generator | None,
) -> np.ndarray:
    """Render one ``(image_size, image_size)`` sample of ``digit``."""
    return render_digits([digit], [difficulty], config, ensure_rng(rng))[0]


def generate_synthetic_mnist(
    num_samples: int,
    *,
    config: SyntheticMnistConfig | None = None,
    rng: int | np.random.Generator | None = None,
    class_balance: np.ndarray | None = None,
    name: str = "synthetic-mnist",
) -> DigitDataset:
    """Generate a difficulty-annotated synthetic digit dataset.

    Digits are rendered in float64, one
    :func:`~repro.data.dataset.image_blocks` block at a time, and each
    block is written into images of the active compute policy's dtype, so
    every pixel is rounded once and no float64 copy of the whole set is
    made.  The float64 pixels, labels, difficulties and generator draws do
    not depend on the policy.

    Parameters
    ----------
    num_samples:
        Total sample count (classes drawn from ``class_balance``).
    class_balance:
        Optional length-10 probability vector; uniform by default.
    """
    num_samples = check_positive_int(num_samples, "num_samples")
    config = config or SyntheticMnistConfig()
    rng = ensure_rng(rng)
    if class_balance is None:
        class_balance = np.full(10, 0.1)
    class_balance = np.asarray(class_balance, dtype=np.float64)
    if class_balance.shape != (10,) or class_balance.min() < 0 or class_balance.sum() <= 0:
        raise ConfigurationError("class_balance must be 10 non-negative weights")
    class_balance = class_balance / class_balance.sum()

    labels = rng.choice(10, size=num_samples, p=class_balance).astype(np.int64)
    raw_difficulty = rng.beta(
        config.difficulty_alpha, config.difficulty_beta, size=num_samples
    )
    variability = np.array([config.class_variability[d] for d in range(10)])
    difficulty = np.clip(raw_difficulty * variability[labels], 0.0, 1.0)

    images = np.empty(
        (num_samples, 1, config.image_size, config.image_size),
        dtype=active_policy().dtype,
    )
    for rows in image_blocks(num_samples):
        images[rows, 0] = render_digits(
            labels[rows].tolist(), difficulty[rows].tolist(), config, rng
        )
    return DigitDataset(
        images=images,
        labels=labels,
        difficulty=difficulty,
        name=name,
    )


def make_dataset_pair(
    num_train: int,
    num_test: int,
    *,
    config: SyntheticMnistConfig | None = None,
    rng: int | np.random.Generator | None = None,
) -> tuple[DigitDataset, DigitDataset]:
    """Generate disjoint train/test datasets from one seed.

    Both hold their images in the active compute policy's dtype, as
    :func:`generate_synthetic_mnist` does.
    """
    rng = ensure_rng(rng)
    train = generate_synthetic_mnist(
        num_train, config=config, rng=rng, name="synthetic-mnist-train"
    )
    test = generate_synthetic_mnist(
        num_test, config=config, rng=rng, name="synthetic-mnist-test"
    )
    return train, test
