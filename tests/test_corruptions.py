"""Tests for the severity-parameterized corruption transforms."""

from __future__ import annotations

import tracemalloc

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


def corrupt(name, images, severity, rng):
    """Float64 ``images`` corrupted by one pixel corruption, in float64."""
    with compute_policy("float64"):
        data = DigitDataset(images, np.zeros(len(images), dtype=np.int64))
        return corrupt_dataset(data, name, severity, rng).images


# -- reference: the whole-array formulas ------------------------------------------
#
# Each corruption written over the whole set at once in float64, as the
# library computed it before it ran over blocks: slow in memory, and
# obviously what each docstring says.  The library must match it bit for bit.


def ref_gaussian_noise(images, severity, rng):
    if severity == 0:
        return images.copy()
    noise = rng.normal(0.0, 0.30 * severity, size=images.shape)
    return np.clip(images + noise, 0.0, 1.0)


def ref_impulse_noise(images, severity, rng):
    out = images.copy()
    if severity == 0:
        return out
    flip = rng.random(images.shape) < 0.20 * severity
    salt = rng.random(images.shape) < 0.5
    out[flip & salt] = 1.0
    out[flip & ~salt] = 0.0
    return out


def ref_blur(images, severity, rng):
    from scipy import ndimage

    if severity == 0:
        return images.copy()
    sigma = 1.8 * severity
    return np.clip(
        ndimage.gaussian_filter(images, sigma=(0.0, 0.0, sigma, sigma)), 0.0, 1.0
    )


def ref_occlusion(images, severity, rng):
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


def ref_contrast(images, severity, rng):
    if severity == 0:
        return images.copy()
    means = images.mean(axis=(2, 3), keepdims=True)
    factor = 1.0 - 0.8 * severity
    return np.clip(means + (images - means) * factor, 0.0, 1.0)


def ref_affine_jitter(images, severity, rng):
    from scipy import ndimage

    from repro.data.augment import affine_matrix

    out = images.copy()
    if severity == 0:
        return out
    n, c, h, w = images.shape
    center = np.array([(h - 1) / 2.0, (w - 1) / 2.0])
    for i in range(n):
        rotation = rng.uniform(-1, 1) * 30.0 * severity
        shear = rng.uniform(-1, 1) * 0.25 * severity
        scale_x = 1.0 + rng.uniform(-1, 1) * 0.20 * severity
        scale_y = 1.0 + rng.uniform(-1, 1) * 0.20 * severity
        shift = rng.uniform(-1, 1, size=2) * 0.12 * severity * np.array([h, w])
        inverse = np.linalg.inv(affine_matrix(rotation, shear, scale_x, scale_y))
        offset = center - inverse @ (center + shift)
        for ch in range(c):
            out[i, ch] = ndimage.affine_transform(
                images[i, ch], inverse, offset=offset, order=1, mode="constant"
            )
    return np.clip(out, 0.0, 1.0)


REFERENCE = {
    "gaussian_noise": ref_gaussian_noise,
    "impulse_noise": ref_impulse_noise,
    "blur": ref_blur,
    "occlusion": ref_occlusion,
    "contrast": ref_contrast,
    "affine_jitter": ref_affine_jitter,
}


def reference_chain(data, specs, rng):
    """``apply_corruptions`` over the whole set: float64 down the chain,
    rounded once to ``data``'s dtype at the end; returns (images, labels)."""
    images, labels = data.images.astype(np.float64), data.labels
    for name, severity in specs:
        if get_corruption(name).corrupts_labels:
            labels = CORRUPTIONS[name].fn(labels, data.num_classes, severity, rng)
        else:
            images = REFERENCE[name](images, severity, rng)
    return images.astype(data.images.dtype), labels


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
        out = corrupt(name, images, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, images)
        assert not np.shares_memory(out, images)  # fresh array, base untouched

    @pytest.mark.parametrize("name", PIXEL_CORRUPTIONS)
    def test_deterministic_given_seed(self, name):
        images = make_images()
        a = corrupt(name, images, 0.7, np.random.default_rng(42))
        b = corrupt(name, images, 0.7, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", PIXEL_CORRUPTIONS)
    def test_output_shape_and_range(self, name):
        images = make_images()
        out = corrupt(name, images, 1.0, np.random.default_rng(1))
        assert out.shape == images.shape
        assert out.min() >= 0.0 and out.max() <= 1.0

    @pytest.mark.parametrize("name", PIXEL_CORRUPTIONS)
    def test_distortion_grows_with_severity(self, name):
        images = make_images(n=24)
        mags = []
        for severity in (0.25, 0.5, 1.0):
            out = corrupt(name, images, severity, np.random.default_rng(3))
            mags.append(float(np.abs(out - images).mean()))
        assert mags[0] > 0.0
        assert mags[0] < mags[1] < mags[2]

    @pytest.mark.parametrize("name", PIXEL_CORRUPTIONS + LABEL_CORRUPTIONS)
    def test_bad_severity_rejected(self, name):
        with pytest.raises(ConfigurationError, match="severity"):
            corrupt_dataset(make_dataset(2), name, 1.5, rng=0)

    def test_occlusion_zeroes_a_patch(self):
        images = np.ones((3, 1, 12, 12))
        out = corrupt("occlusion", images, 1.0, np.random.default_rng(0))
        for i in range(3):
            assert (out[i] == 0).sum() == 36  # 6x6 patch at severity 1

    def test_contrast_compresses_toward_mean(self):
        images = make_images()
        out = corrupt("contrast", images, 1.0, np.random.default_rng(0))
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


class TestBlocksMatchTheWholeArrayReference:
    """Blocks of 32 images give the whole-array formulas' bytes and draws."""

    @staticmethod
    def digits(dtype, n=70):  # 70 = two full blocks and a ragged one of 6
        with compute_policy(dtype):
            return make_dataset(n=n, size=28, seed=11)

    def assert_matches_reference(self, data, specs):
        gen, ref_gen = np.random.default_rng(5), np.random.default_rng(5)
        with compute_policy(data.images.dtype.name):
            out = apply_corruptions(data, specs, gen)
        want_images, want_labels = reference_chain(data, specs, ref_gen)
        assert out.images.dtype == data.images.dtype
        assert out.images.tobytes() == want_images.tobytes()
        np.testing.assert_array_equal(out.labels, want_labels)
        assert gen.bit_generator.state == ref_gen.bit_generator.state  # same draws

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("severity", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("name", PIXEL_CORRUPTIONS)
    def test_each_pixel_corruption(self, name, severity, dtype):
        self.assert_matches_reference(self.digits(dtype), [(name, severity)])

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_suite_composite(self, dtype):
        # default_suite's composite at its top severity.
        specs = [("blur", 0.5), ("gaussian_noise", 0.5)]
        self.assert_matches_reference(self.digits(dtype), specs)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_chain_with_labels(self, dtype):
        specs = [("gaussian_noise", 0.5), ("contrast", 0.6), ("label_noise", 0.3)]
        self.assert_matches_reference(self.digits(dtype), specs)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_three_pixel_steps_around_a_label_step(self, dtype):
        specs = [
            ("impulse_noise", 0.4),
            ("label_noise", 0.5),
            ("occlusion", 0.7),
            ("contrast", 0.3),
        ]
        self.assert_matches_reference(self.digits(dtype), specs)


@pytest.mark.parametrize("name", PIXEL_CORRUPTIONS)
def test_one_step_holds_no_float64_copy_of_the_set(name):
    """1000 float32 digits (3.0 MiB) corrupt in under 4 MiB of new memory;
    one float64 copy of the set alone would be 6.0 MiB.  ``impulse_noise``
    also holds its flip mask, one byte per pixel."""
    with compute_policy("float32"):
        data = make_dataset(n=1000, size=28)
        corrupt_dataset(data, name, 0.6, rng=1)  # lazy imports happen here
        tracemalloc.start()
        try:
            corrupt_dataset(data, name, 0.6, rng=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    mask = data.images.size if name == "impulse_noise" else 0
    assert peak < 4 * 2**20 + mask
