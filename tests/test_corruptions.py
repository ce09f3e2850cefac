"""Tests for the severity-parameterized corruption transforms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.corruptions import (
    CORRUPTIONS,
    apply_corruptions,
    corrupt_dataset,
    corruption_names,
    get_corruption,
    register_corruption,
)
from repro.data.dataset import DigitDataset
from repro.errors import ConfigurationError
from repro.nn.compute import compute_policy

PIXEL_CORRUPTIONS = corruption_names(labels=False)
LABEL_CORRUPTIONS = corruption_names(labels=True)


def make_images(n=12, size=12, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 1, size, size))


def make_dataset(n=40, size=12, seed=0) -> DigitDataset:
    rng = np.random.default_rng(seed)
    return DigitDataset(
        images=rng.random((n, 1, size, size)),
        labels=rng.integers(0, 10, size=n),
        difficulty=rng.random(n),
        name="toy",
    )


class TestRegistry:
    def test_expected_corruptions_registered(self):
        assert {"gaussian_noise", "impulse_noise", "blur", "occlusion",
                "contrast", "affine_jitter"} <= set(PIXEL_CORRUPTIONS)
        assert LABEL_CORRUPTIONS == ("label_noise",)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown corruption"):
            get_corruption("fog")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_corruption("gaussian_noise")(lambda *a: None)

    def test_label_kind_flag(self):
        assert get_corruption("label_noise").corrupts_labels
        assert not get_corruption("blur").corrupts_labels


class TestPixelCorruptions:
    @pytest.mark.parametrize("name", PIXEL_CORRUPTIONS)
    def test_severity_zero_is_identity(self, name):
        images = make_images()
        out = CORRUPTIONS[name].fn(images, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, images)
        assert out is not images  # fresh array, base untouched

    @pytest.mark.parametrize("name", PIXEL_CORRUPTIONS)
    def test_deterministic_given_seed(self, name):
        images = make_images()
        a = CORRUPTIONS[name].fn(images, 0.7, np.random.default_rng(42))
        b = CORRUPTIONS[name].fn(images, 0.7, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", PIXEL_CORRUPTIONS)
    def test_output_shape_and_range(self, name):
        images = make_images()
        out = CORRUPTIONS[name].fn(images, 1.0, np.random.default_rng(1))
        assert out.shape == images.shape
        assert out.min() >= 0.0 and out.max() <= 1.0

    @pytest.mark.parametrize("name", PIXEL_CORRUPTIONS)
    def test_distortion_grows_with_severity(self, name):
        images = make_images(n=24)
        mags = []
        for severity in (0.25, 0.5, 1.0):
            out = CORRUPTIONS[name].fn(images, severity, np.random.default_rng(3))
            mags.append(float(np.abs(out - images).mean()))
        assert mags[0] > 0.0
        assert mags[0] < mags[1] < mags[2]

    @pytest.mark.parametrize("name", PIXEL_CORRUPTIONS)
    def test_bad_severity_rejected(self, name):
        with pytest.raises(ConfigurationError, match="severity"):
            CORRUPTIONS[name].fn(make_images(2), 1.5, np.random.default_rng(0))

    def test_bad_image_shape_rejected(self):
        with pytest.raises(ConfigurationError, match="images"):
            CORRUPTIONS["blur"].fn(np.zeros((4, 12, 12)), 0.5, np.random.default_rng(0))

    def test_occlusion_zeroes_a_patch(self):
        images = np.ones((3, 1, 12, 12))
        out = CORRUPTIONS["occlusion"].fn(images, 1.0, np.random.default_rng(0))
        for i in range(3):
            assert (out[i] == 0).sum() == 36  # 6x6 patch at severity 1

    def test_contrast_compresses_toward_mean(self):
        images = make_images()
        out = CORRUPTIONS["contrast"].fn(images, 1.0, np.random.default_rng(0))
        assert out.std() < images.std()


class TestLabelNoise:
    def test_severity_zero_is_identity(self):
        labels = np.arange(10, dtype=np.int64)
        out = CORRUPTIONS["label_noise"].fn(labels, 10, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, labels)

    def test_flips_change_class_and_stay_valid(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 10, size=2000)
        out = CORRUPTIONS["label_noise"].fn(labels, 10, 1.0, np.random.default_rng(1))
        flipped = out != labels
        # Severity 1 flips ~half the labels, always to a *different* class.
        assert 0.4 < flipped.mean() < 0.6
        assert out.min() >= 0 and out.max() < 10

    def test_empty_labels_ok(self):
        out = CORRUPTIONS["label_noise"].fn(
            np.empty(0, dtype=np.int64), 10, 0.8, np.random.default_rng(0)
        )
        assert out.shape == (0,)


class TestDatasetApplication:
    def test_corrupt_dataset_pixel(self):
        data = make_dataset()
        out = corrupt_dataset(data, "gaussian_noise", 0.6, rng=0)
        assert out.name == "toy+gaussian_noise@0.6"
        assert len(out) == len(data)
        np.testing.assert_array_equal(out.labels, data.labels)
        np.testing.assert_array_equal(out.difficulty, data.difficulty)
        assert not np.array_equal(out.images, data.images)
        np.testing.assert_array_equal(data.images, make_dataset().images)  # untouched

    def test_corrupt_dataset_labels(self):
        data = make_dataset(n=400)
        out = corrupt_dataset(data, "label_noise", 1.0, rng=0)
        np.testing.assert_array_equal(out.images, data.images)
        assert (out.labels != data.labels).any()

    def test_chain_is_deterministic_and_ordered(self):
        data = make_dataset()
        specs = [("blur", 0.5), ("gaussian_noise", 0.5)]
        a = apply_corruptions(data, specs, rng=7)
        b = apply_corruptions(data, specs, rng=7)
        np.testing.assert_array_equal(a.images, b.images)
        reversed_order = apply_corruptions(data, specs[::-1], rng=7)
        assert not np.array_equal(a.images, reversed_order.images)
        assert "blur" in a.name and "gaussian_noise" in a.name

    @pytest.mark.parametrize("name", PIXEL_CORRUPTIONS + LABEL_CORRUPTIONS)
    def test_float32_dataset_is_the_float64_result_rounded_once(self, name):
        with compute_policy("float32"):
            data = make_dataset()
            out = corrupt_dataset(data, name, 0.6, rng=3)
        with compute_policy("float64"):
            exact = DigitDataset(data.images, data.labels, difficulty=data.difficulty)
            want = corrupt_dataset(exact, name, 0.6, rng=3)
        assert out.images.dtype == np.float32
        np.testing.assert_array_equal(out.images, want.images.astype(np.float32))
        np.testing.assert_array_equal(out.labels, want.labels)

    def test_float32_chain_rounds_once_at_the_end(self):
        specs = [("gaussian_noise", 0.5), ("contrast", 0.6), ("label_noise", 0.3)]
        with compute_policy("float32"):
            data = make_dataset()
            out = apply_corruptions(data, specs, rng=7)
        with compute_policy("float64"):
            exact = DigitDataset(data.images, data.labels, difficulty=data.difficulty)
            want = apply_corruptions(exact, specs, rng=7)
        assert out.images.dtype == np.float32
        np.testing.assert_array_equal(out.images, want.images.astype(np.float32))
        np.testing.assert_array_equal(out.labels, want.labels)
        assert out.name == "toy+gaussian_noise@0.5+contrast@0.6+label_noise@0.3"
