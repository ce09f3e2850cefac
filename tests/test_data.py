"""Tests for the dataset substrate: glyphs, rasterizer, augmentation,
containers, and the synthetic generator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.augment import (
    AugmentationParams,
    add_clutter,
    affine_matrix,
    augment_image,
    elastic_deform,
    transform_strokes,
)
from repro.data.dataset import DigitDataset, train_test_split
from repro.data.glyphs import (
    DIGIT_GLYPHS,
    DIGIT_STYLE_VARIABILITY,
    glyph_complexity,
    glyph_strokes,
)
from repro.data.rasterize import rasterize_strokes, strokes_to_segments
from repro.data.synthetic_mnist import (
    SyntheticMnistConfig,
    generate_synthetic_mnist,
    make_dataset_pair,
    render_digit,
)
from repro.errors import ConfigurationError, DataError
from repro.nn.compute import compute_policy


class TestGlyphs:
    def test_all_ten_digits_defined(self):
        assert set(DIGIT_GLYPHS) == set(range(10))

    @pytest.mark.parametrize("digit", range(10))
    def test_strokes_are_valid_polylines(self, digit):
        for stroke in glyph_strokes(digit):
            assert stroke.ndim == 2 and stroke.shape[1] == 2
            assert stroke.shape[0] >= 2
            assert stroke.min() >= 0.0 and stroke.max() <= 1.0

    def test_strokes_are_copies(self):
        a = glyph_strokes(3)
        a[0][0, 0] = 99.0
        assert glyph_strokes(3)[0][0, 0] != 99.0

    def test_invalid_digit_raises(self):
        with pytest.raises(DataError):
            glyph_strokes(10)

    def test_digit_one_is_simplest(self):
        """Digit 1's arc length should be the smallest -- the geometric root
        of the paper's 'digit 1 is easiest' observation."""
        lengths = {d: glyph_complexity(d) for d in range(10)}
        assert min(lengths, key=lengths.get) == 1

    def test_variability_covers_all_digits(self):
        assert set(DIGIT_STYLE_VARIABILITY) == set(range(10))
        assert DIGIT_STYLE_VARIABILITY[1] < DIGIT_STYLE_VARIABILITY[5]


class TestRasterize:
    def test_output_shape_and_range(self):
        image = rasterize_strokes(glyph_strokes(0), size=28)
        assert image.shape == (28, 28)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_ink_present(self):
        image = rasterize_strokes(glyph_strokes(8))
        assert image.max() > 0.9
        assert image.mean() > 0.02

    def test_thicker_pen_more_ink(self):
        thin = rasterize_strokes(glyph_strokes(0), thickness=0.03)
        thick = rasterize_strokes(glyph_strokes(0), thickness=0.09)
        assert thick.sum() > thin.sum()

    def test_straight_line_is_straight(self):
        stroke = [np.array([[0.5, 0.1], [0.5, 0.9]])]
        image = rasterize_strokes(stroke, size=28)
        # Ink should concentrate in the central columns.
        col_ink = image.sum(axis=0)
        assert col_ink.argmax() in (13, 14)
        assert col_ink[0] == 0 and col_ink[-1] == 0

    def test_segments_flattening(self):
        p0, p1 = strokes_to_segments(glyph_strokes(4))
        assert p0.shape == p1.shape
        assert p0.shape[0] == sum(len(s) - 1 for s in glyph_strokes(4))

    def test_bad_parameters_raise(self):
        with pytest.raises(DataError):
            rasterize_strokes(glyph_strokes(0), size=2)
        with pytest.raises(DataError):
            rasterize_strokes(glyph_strokes(0), thickness=0.0)
        with pytest.raises(DataError):
            rasterize_strokes([np.zeros((1, 2))])
        with pytest.raises(DataError):
            rasterize_strokes([])


class TestAugment:
    def test_affine_matrix_identity(self):
        np.testing.assert_allclose(affine_matrix(0, 0, 1, 1), np.eye(2))

    def test_affine_matrix_rotation(self):
        m = affine_matrix(90, 0, 1, 1)
        np.testing.assert_allclose(m @ [1, 0], [0, 1], atol=1e-12)

    def test_zero_difficulty_is_nearly_identity(self):
        strokes = glyph_strokes(2)
        out = transform_strokes(strokes, 0.0, AugmentationParams(), np.random.default_rng(0))
        for a, b in zip(strokes, out):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_difficulty_increases_displacement(self):
        strokes = glyph_strokes(2)
        params = AugmentationParams()
        easy = transform_strokes(strokes, 0.1, params, np.random.default_rng(1))
        hard = transform_strokes(strokes, 0.9, params, np.random.default_rng(1))
        d_easy = max(np.abs(a - b).max() for a, b in zip(strokes, easy))
        d_hard = max(np.abs(a - b).max() for a, b in zip(strokes, hard))
        assert d_hard > d_easy

    def test_strokes_stay_in_canvas(self):
        for seed in range(5):
            out = transform_strokes(
                glyph_strokes(8), 1.0, AugmentationParams(), np.random.default_rng(seed)
            )
            for stroke in out:
                assert stroke.min() >= 0.0 and stroke.max() <= 1.0

    def test_elastic_deform_zero_alpha_is_identity(self):
        image = np.random.default_rng(0).random((28, 28))
        np.testing.assert_array_equal(
            elastic_deform(image, 0.0, 2.0, np.random.default_rng(1)), image
        )

    def test_elastic_deform_changes_image(self):
        image = rasterize_strokes(glyph_strokes(3))
        out = elastic_deform(image, 5.0, 2.0, np.random.default_rng(1))
        assert not np.allclose(out, image)

    def test_clutter_adds_intensity(self):
        image = np.zeros((28, 28))
        out = add_clutter(image, 3, 0.5, np.random.default_rng(0))
        assert out.sum() > 0
        assert out.max() <= 1.0

    def test_augment_image_zero_difficulty(self):
        image = rasterize_strokes(glyph_strokes(7))
        out = augment_image(image, 0.0, AugmentationParams(), 0)
        np.testing.assert_allclose(out, image, atol=1e-9)

    def test_augment_image_stays_in_range(self):
        image = rasterize_strokes(glyph_strokes(7))
        out = augment_image(image, 1.0, AugmentationParams(), 3)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_invalid_difficulty_raises(self):
        image = np.zeros((28, 28))
        with pytest.raises(ConfigurationError):
            augment_image(image, 1.5, AugmentationParams(), 0)


class TestDigitDataset:
    def make(self, n=20):
        rng = np.random.default_rng(0)
        return DigitDataset(
            images=rng.random((n, 1, 8, 8)),
            labels=rng.integers(0, 10, n),
            difficulty=rng.random(n),
        )

    def test_basic_properties(self):
        ds = self.make()
        assert len(ds) == 20
        assert ds.image_shape == (1, 8, 8)

    def test_3d_images_get_channel_axis(self):
        ds = DigitDataset(np.zeros((5, 8, 8)), np.zeros(5, dtype=int))
        assert ds.images.shape == (5, 1, 8, 8)

    def test_bad_image_rank_rejected(self):
        # Corruptions and the models rely on every set being (N, C, H, W).
        for shape in [(5,), (5, 8), (5, 1, 1, 8, 8)]:
            with pytest.raises(DataError, match="images must be"):
                DigitDataset(np.zeros(shape), np.zeros(5, dtype=int))

    def test_label_range_checked(self):
        with pytest.raises(DataError):
            DigitDataset(np.zeros((2, 1, 8, 8)), np.array([0, 10]))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(DataError):
            DigitDataset(np.zeros((3, 1, 8, 8)), np.zeros(2, dtype=int))

    def test_subset(self):
        ds = self.make()
        sub = ds.subset(np.array([0, 5, 7]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.labels, ds.labels[[0, 5, 7]])

    @pytest.mark.parametrize(
        "indices", [np.array([4, 0, 7]), np.arange(20), 3, np.int64(3)]
    )
    def test_subset_is_fresh_for_every_index_kind(self, indices):
        ds = self.make()
        sub = ds.subset(indices)
        for got, whole in zip(
            (sub.images, sub.labels, sub.difficulty),
            (ds.images, ds.labels, ds.difficulty),
        ):
            assert not np.shares_memory(got, whole)
            np.testing.assert_array_equal(got.ravel(), whole[indices].ravel())

    def test_subset_copies_each_array_once(self):
        with compute_policy("float32"):
            ds = DigitDataset(np.zeros((1000, 1, 28, 28)), np.zeros(1000, dtype=int))
            tracemalloc.start()
            try:
                sub = ds.subset(np.arange(1000))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert sub.images.nbytes == 3_136_000
        assert peak < sub.images.nbytes + 2**18  # a second copy would double it

    def test_for_class(self):
        ds = self.make()
        for digit in range(10):
            sub = ds.for_class(digit)
            assert (sub.labels == digit).all()

    def test_class_counts_sum(self):
        ds = self.make()
        assert ds.class_counts().sum() == len(ds)

    def test_batches_cover_everything(self):
        ds = self.make(23)
        total = sum(len(y) for _, y in ds.batches(5))
        assert total == 23

    def test_shuffled_preserves_pairs(self):
        ds = self.make()
        tagged = {tuple(img.ravel()[:3]): lbl for img, lbl in zip(ds.images, ds.labels)}
        shuffled = ds.shuffled(rng=1)
        for img, lbl in zip(shuffled.images, shuffled.labels):
            assert tagged[tuple(img.ravel()[:3])] == lbl

    def test_train_test_split_disjoint_and_complete(self):
        ds = self.make(50)
        train, test = train_test_split(ds, test_fraction=0.2, rng=0)
        assert len(train) + len(test) == 50
        assert len(test) == 10

    def test_split_bad_fraction_raises(self):
        with pytest.raises(DataError):
            train_test_split(self.make(), test_fraction=1.5)

    def test_images_held_in_the_compute_dtype(self):
        images = np.random.default_rng(0).random((4, 1, 8, 8))
        labels = np.zeros(4, dtype=int)
        with compute_policy("float32"):
            ds = DigitDataset(images, labels)
            assert ds.images.dtype == np.float32
            np.testing.assert_array_equal(ds.images, images.astype(np.float32))
            assert DigitDataset(ds.images, labels).images is ds.images  # no copy
        with compute_policy("float64"):
            assert DigitDataset(images, labels).images is images


class TestSyntheticMnist:
    def test_deterministic_generation(self):
        a = generate_synthetic_mnist(30, rng=42)
        b = generate_synthetic_mnist(30, rng=42)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = generate_synthetic_mnist(30, rng=1)
        b = generate_synthetic_mnist(30, rng=2)
        assert not np.array_equal(a.images, b.images)

    def test_shapes_and_metadata(self):
        ds = generate_synthetic_mnist(25, rng=0)
        assert ds.images.shape == (25, 1, 28, 28)
        assert np.isfinite(ds.difficulty).all()
        assert ds.difficulty.min() >= 0 and ds.difficulty.max() <= 1

    def test_class_balance_respected(self):
        balance = np.zeros(10)
        balance[3] = 1.0
        ds = generate_synthetic_mnist(20, rng=0, class_balance=balance)
        assert (ds.labels == 3).all()

    def test_bad_class_balance_raises(self):
        with pytest.raises(ConfigurationError):
            generate_synthetic_mnist(10, class_balance=np.zeros(10))

    def test_digit_one_capped_difficulty(self):
        """Class variability caps digit-1 difficulty below digit-5's max."""
        ds = generate_synthetic_mnist(600, rng=0)
        ones = ds.difficulty[ds.labels == 1]
        fives = ds.difficulty[ds.labels == 5]
        assert ones.max() < fives.max()

    def test_render_digit_harder_means_more_distortion(self):
        config = SyntheticMnistConfig()
        clean = render_digit(5, 0.0, config, 0)
        messy = render_digit(5, 1.0, config, 0)
        base = rasterize_strokes(
            glyph_strokes(5),
            thickness=config.base_thickness,
            softness=config.base_softness,
        )
        assert np.abs(messy - base).mean() > np.abs(clean - base).mean()

    def test_make_dataset_pair_disjoint_names(self):
        train, test = make_dataset_pair(20, 10, rng=0)
        assert len(train) == 20 and len(test) == 10
        assert train.name != test.name

    def test_bad_beta_raises(self):
        with pytest.raises(ConfigurationError):
            SyntheticMnistConfig(difficulty_alpha=0.0)

    def test_variability_must_cover_digits(self):
        with pytest.raises(ConfigurationError):
            SyntheticMnistConfig(class_variability={0: 1.0})

    def test_float32_pair_is_the_float64_pair_rounded_once(self):
        with compute_policy("float64"):
            want = make_dataset_pair(40, 20, rng=3)
        with compute_policy("float32"):
            got = make_dataset_pair(40, 20, rng=3)
        for actual, expected in zip(got, want):
            assert actual.images.dtype == np.float32
            np.testing.assert_array_equal(
                actual.images, expected.images.astype(np.float32)
            )
            np.testing.assert_array_equal(actual.labels, expected.labels)
            np.testing.assert_array_equal(actual.difficulty, expected.difficulty)

    def test_float32_generation_allocates_no_float64_copy_of_the_set(self):
        """Synthesis peaks at the float32 set plus one batch's temporaries.

        One 32-digit batch peaks at about 5 MB.  For 1500 digits the
        float32 set is 4.7 MB and a float64 copy of it 9.4 MB, so any
        float64 copy of the set, beside the temporaries or the float32
        result, overshoots the bound by about 2 MB.
        """

        def traced_peak(num_samples: int) -> int:
            tracemalloc.start()
            try:
                generate_synthetic_mnist(num_samples, rng=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        num_samples = 1500
        float32_set = num_samples * 28 * 28 * 4
        with compute_policy("float32"):
            one_batch = traced_peak(32)
            peak = traced_peak(num_samples)
        assert peak < one_batch + 1.5 * float32_set

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 9), st.floats(0, 1))
    def test_render_digit_always_valid(self, digit, difficulty):
        image = render_digit(digit, difficulty, SyntheticMnistConfig(), 7)
        assert image.shape == (28, 28)
        assert image.min() >= 0.0 and image.max() <= 1.0
