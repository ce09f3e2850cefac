"""The batched digit synthesis agrees exactly with its reference.

``reference_synthesis`` keeps the earlier per-digit generator, whose
elastic step ran through ``scipy.ndimage``, as the oracle.  Every check
here is exact: datasets must hash the same, and the numpy Gaussian and
bilinear kernels must match ``scipy.ndimage`` bit for bit, on random
fields and on the coordinates random fields rarely hit (exact integers,
the canvas edges, just outside them, far outside, NaN).
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

import reference_synthesis as ref
from repro.data.augment import (
    AugmentationParams,
    add_clutter,
    augment_image,
    bilinear_warp,
    elastic_deform,
    gaussian_smooth,
)
from repro.data.glyphs import glyph_strokes
from repro.data.rasterize import rasterize_strokes
from repro.data.synthetic_mnist import (
    SyntheticMnistConfig,
    generate_synthetic_mnist,
    render_digit,
)
from repro.experiments.common import Scale, get_datasets
from repro.nn.compute import compute_policy

ndimage = pytest.importorskip("scipy.ndimage")


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Equal shape, dtype and bytes: stricter than ``array_equal``, which
    treats -0.0 and +0.0 as equal."""
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert sha256(actual) == sha256(expected)


def assert_same_stream(a: np.random.Generator, b: np.random.Generator) -> None:
    """Both generators consumed the same number of draws."""
    assert a.bit_generator.state == b.bit_generator.state


# Datasets hold their pixels in the compute policy's dtype.  The dataset
# comparisons run under float64, so a float32 suite still checks the
# full-precision synthesis against the oracle.


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_tiny_datasets_hash_like_the_reference(seed):
    scale = Scale.tiny()
    with compute_policy("float64"):
        expected = ref.make_dataset_pair(scale.num_train, scale.num_test, rng=seed)
        actual_pair = get_datasets(scale, seed)
    for actual, want in zip(actual_pair, expected):
        for name in ("images", "labels", "difficulty"):
            assert_same_bits(getattr(actual, name), getattr(want, name))


def test_custom_config_matches_reference():
    """A smaller canvas, an elastic radius wider than it, no noise, and
    a class balance that skips most digits."""
    params = replace(AugmentationParams(), elastic_sigma=6.0, max_pixel_noise=0.0)
    config = SyntheticMnistConfig(image_size=20, augmentation=params)
    balance = np.array([0, 3, 0, 0, 1, 0, 0, 0, 2, 0], dtype=float)
    with compute_policy("float64"):
        actual = generate_synthetic_mnist(
            70, config=config, rng=5, class_balance=balance
        )
        want = ref.generate_synthetic_mnist(
            70, config=config, rng=5, class_balance=balance
        )
    assert_same_bits(actual.images, want.images)
    assert_same_bits(actual.difficulty, want.difficulty)


@pytest.mark.parametrize("difficulty", [0.0, 0.05, 0.1, 0.5, 0.95, 1.0])
@pytest.mark.parametrize("digit", [1, 5, 8])
def test_render_digit_matches_reference(digit, difficulty):
    config = SyntheticMnistConfig()
    rng, ref_rng = np.random.default_rng(digit), np.random.default_rng(digit)
    assert_same_bits(
        render_digit(digit, difficulty, config, rng),
        ref.render_digit(digit, difficulty, config, ref_rng),
    )
    assert_same_stream(rng, ref_rng)


@pytest.mark.parametrize("difficulty", [0.0, 0.3, 1.0])
def test_augment_image_matches_reference(difficulty):
    image = rasterize_strokes(glyph_strokes(3))
    rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
    out = augment_image(image, difficulty, AugmentationParams(), rng)
    want = ref.augment_image(image, difficulty, AugmentationParams(), ref_rng)
    assert_same_bits(out, want)
    assert_same_stream(rng, ref_rng)


@pytest.mark.parametrize("num_blobs", [0, 1, 4])
def test_add_clutter_matches_reference(num_blobs):
    image = np.random.default_rng(0).random((28, 28))
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    out = add_clutter(image, num_blobs, 0.7, rng)
    assert_same_bits(out, ref.add_clutter(image, num_blobs, 0.7, ref_rng))
    assert_same_stream(rng, ref_rng)


def test_rasterize_strokes_matches_reference():
    rng = np.random.default_rng(4)
    for digit in range(10):
        strokes = [s + rng.normal(0, 0.02, s.shape) for s in glyph_strokes(digit)]
        # A zero-length segment exercises the length clamp.
        strokes.append(np.array([[0.3, 0.3], [0.3, 0.3]]))
        thickness = float(rng.uniform(0.02, 0.09))
        assert_same_bits(
            rasterize_strokes(strokes, thickness=thickness),
            ref.rasterize_strokes(strokes, thickness=thickness),
        )


class TestScipyOracle:
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 2.2, 7.5])
    def test_gaussian_smooth_matches_gaussian_filter(self, sigma):
        fields = np.random.default_rng(int(sigma * 10)).uniform(-1, 1, (40, 28, 28))
        want = np.stack([ndimage.gaussian_filter(f, sigma) for f in fields])
        assert_same_bits(np.ascontiguousarray(gaussian_smooth(fields, sigma)), want)

    def test_gaussian_smooth_keeps_signed_zeros_and_ties(self):
        rng = np.random.default_rng(1)
        fields = rng.integers(-2, 3, (20, 28, 28)).astype(float) * 0.5
        fields[rng.random(fields.shape) < 0.3] = -0.0
        want = np.stack([ndimage.gaussian_filter(f, 2.2) for f in fields])
        assert_same_bits(np.ascontiguousarray(gaussian_smooth(fields, 2.2)), want)

    @staticmethod
    def edge_coordinates() -> np.ndarray:
        """Integers, the edges 0 and 27, (-1, 0), (27, 28), far out, NaN."""
        tiny = np.nextafter(0.0, 1.0)
        below, above = np.nextafter(27.0, 0.0), np.nextafter(27.0, 28.0)
        inside = [-0.0, 0.0, tiny, 0.5, 1.0, 13.0, 13.25, 26.5, below, 27.0]
        outside = [-100.0, -1.0, -0.5, -tiny, above, 27.5, 28.0, 1e6, np.nan]
        return np.array(inside + outside)

    def test_bilinear_warp_matches_map_coordinates_on_edge_coordinates(self):
        values = self.edge_coordinates()
        rows, cols = np.meshgrid(values, values, indexing="ij")
        rng = np.random.default_rng(0)
        images = rng.standard_normal((4, 28, 28))
        images[1] = rng.integers(-1, 2, (28, 28)) * 0.0  # signed zeros
        images[2] = -0.0  # every term -0.0: the sum must start from +0.0
        for image in images:
            want = ndimage.map_coordinates(
                image, np.stack([rows, cols]), order=1, mode="constant"
            )
            got = bilinear_warp(image[None], rows[None], cols[None])[0]
            assert_same_bits(got, want)

    def test_bilinear_warp_matches_map_coordinates_on_random_fields(self):
        rng = np.random.default_rng(3)
        images = rng.random((50, 28, 28))
        rows = np.arange(28.0)[:, None] + rng.normal(0, 3, (50, 28, 28))
        cols = np.arange(28.0)[None, :] + rng.normal(0, 3, (50, 28, 28))
        want = np.stack(
            [
                ndimage.map_coordinates(i, np.stack([r, c]), order=1, mode="constant")
                for i, r, c in zip(images, rows, cols)
            ]
        )
        assert_same_bits(bilinear_warp(images, rows, cols), want)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 0.5, 7.0, 40.0])
    def test_elastic_deform_matches_reference(self, alpha):
        image = rasterize_strokes(glyph_strokes(2))
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        out = elastic_deform(image, alpha, 2.2, rng)
        assert_same_bits(out, ref.elastic_deform(image, alpha, 2.2, ref_rng))
        assert_same_stream(rng, ref_rng)
        if alpha <= 0:
            assert out is image
