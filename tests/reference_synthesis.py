"""Reference copy of the digit generator the batched pipeline replaced.

These are the earlier per-digit implementations, kept verbatim as test
oracles: ``rasterize_strokes`` on ``(P, S, 2)`` einsum broadcasts,
``elastic_deform`` through ``scipy.ndimage``, per-blob ``add_clutter``,
and ``render_digit`` called once per sample by
``generate_synthetic_mnist``.

``repro.data`` must reproduce these exactly, not approximately:
``tests/test_synthesis_equivalence.py`` compares images, labels and
difficulty byte for byte.  The reference's elastic step needs scipy.
"""

from __future__ import annotations

import numpy as np

from repro.data.augment import AugmentationParams, affine_matrix
from repro.data.dataset import DigitDataset
from repro.data.glyphs import glyph_strokes
from repro.data.synthetic_mnist import SyntheticMnistConfig
from repro.errors import ConfigurationError, DataError
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fraction, check_positive_int

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


def render_digit(
    digit: int,
    difficulty: float,
    config: SyntheticMnistConfig,
    rng: int | np.random.Generator | None,
) -> np.ndarray:
    """Render one ``(image_size, image_size)`` sample of ``digit``."""
    rng = ensure_rng(rng)
    params = config.augmentation
    strokes = transform_strokes(glyph_strokes(digit), difficulty, params, rng)
    thickness = config.base_thickness * (
        1.0 + rng.uniform(-1, 1) * params.max_thickness_jitter * difficulty
    )
    thickness = max(thickness, 0.02)
    image = rasterize_strokes(
        strokes,
        size=config.image_size,
        thickness=thickness,
        softness=config.base_softness,
    )
    return augment_image(image, difficulty, params, rng)


def generate_synthetic_mnist(
    num_samples: int,
    *,
    config: SyntheticMnistConfig | None = None,
    rng: int | np.random.Generator | None = None,
    class_balance: np.ndarray | None = None,
    name: str = "synthetic-mnist",
) -> DigitDataset:
    """Generate a difficulty-annotated synthetic digit dataset.

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

    images = np.empty((num_samples, 1, config.image_size, config.image_size))
    for i in range(num_samples):
        images[i, 0] = render_digit(int(labels[i]), float(difficulty[i]), config, rng)
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
    """Generate disjoint train/test datasets from one seed."""
    rng = ensure_rng(rng)
    train = generate_synthetic_mnist(
        num_train, config=config, rng=rng, name="synthetic-mnist-train"
    )
    test = generate_synthetic_mnist(
        num_test, config=config, rng=rng, name="synthetic-mnist-test"
    )
    return train, test
