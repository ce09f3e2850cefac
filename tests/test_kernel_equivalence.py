"""The training kernels agree exactly with their reference implementations.

``reference_kernels`` keeps the earlier im2col, col2im, max-pool, Conv2D,
activation and full-chain ``Network.backward`` code as oracles.  Every
check here is exact: gradients and trained parameters must match bit for
bit, not to a tolerance, on geometries chosen to hit the edge cases --
strides shorter than the window, borders no window covers, exact ties
inside a window and signed zeros -- in float32 and float64, with and
without an inference forward between a training forward and its backward.
"""

from __future__ import annotations

import numpy as np
import pytest

import reference_kernels as ref
from repro.cdl.architectures import ARCHITECTURES
from repro.cdl.network import CDLN
from repro.cdl.score_cache import StageScoreCache
from repro.cdl.training import CdlTrainingConfig, train_cdln
from repro.experiments.common import Scale, get_datasets
from repro.nn.compute import compute_policy
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.network import Network
from repro.nn.tensor_ops import col2im, conv_output_size, im2col

DTYPES = (np.float32, np.float64)
SEEDS = range(12)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Equal shape, dtype and bytes: stricter than ``array_equal``, which
    treats -0.0 and +0.0 as equal."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert (
        np.ascontiguousarray(actual).tobytes()
        == np.ascontiguousarray(expected).tobytes()
    )


def edge_case_values(rng, shape, dtype) -> np.ndarray:
    """Coarse values, so windows hold exact ties, with signed zeros mixed in."""
    x = rng.integers(-3, 4, size=shape).astype(dtype) * dtype(0.5)
    x[rng.random(shape) < 0.15] = dtype(-0.0)
    return x


def conv_geometry(rng):
    """Random (n, c, h, w, kernel, stride, padding), overlap and borders included."""
    kernel = int(rng.integers(1, 5))
    stride = int(rng.integers(1, 4))
    padding = int(rng.integers(0, 2))
    h = int(rng.integers(max(kernel - 2 * padding, 1), kernel + 6))
    w = int(rng.integers(max(kernel - 2 * padding, 1), kernel + 6))
    n, c = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    return n, c, h, w, kernel, stride, padding


def pool_geometry(rng):
    window = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 4))
    h = int(rng.integers(window, window + 6))
    w = int(rng.integers(window, window + 6))
    return int(rng.integers(1, 4)), int(rng.integers(1, 4)), h, w, window, stride


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("seed", SEEDS)
class TestTensorOps:
    def test_im2col_matches_reference(self, seed, dtype):
        rng = np.random.default_rng(seed)
        n, c, h, w, kernel, stride, padding = conv_geometry(rng)
        x = edge_case_values(rng, (n, c, h, w), dtype)
        expected = ref.im2col(x, kernel, stride, padding)
        assert_same_bits(im2col(x, kernel, stride, padding), expected)
        # Any input layout: a transposed view gathers the same values.
        view = np.ascontiguousarray(x.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
        assert_same_bits(im2col(view, kernel, stride, padding), expected)

    def test_col2im_matches_reference(self, seed, dtype):
        rng = np.random.default_rng(100 + seed)
        n, c, h, w, kernel, stride, padding = conv_geometry(rng)
        h_out = conv_output_size(h, kernel, stride, padding)
        w_out = conv_output_size(w, kernel, stride, padding)
        cols = edge_case_values(rng, (n * h_out * w_out, c * kernel * kernel), dtype)
        cols += rng.standard_normal(cols.shape).astype(dtype) * (cols != 0)
        expected = ref.col2im(cols, (n, c, h, w), kernel, stride, padding)
        assert_same_bits(col2im(cols, (n, c, h, w), kernel, stride, padding), expected)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("seed", SEEDS)
class TestMaxPool:
    def test_training_forward_and_backward_match_reference(self, seed, dtype):
        rng = np.random.default_rng(200 + seed)
        n, c, h, w, window, stride = pool_geometry(rng)
        pool = MaxPool2D(window, stride=stride)
        pool.build((c, h, w), rng)
        x = edge_case_values(rng, (n, c, h, w), dtype)
        grad = edge_case_values(rng, (n, *pool.output_shape), dtype)
        grad += rng.standard_normal(grad.shape).astype(dtype) * (grad != 0)
        with ref.reference_kernels():
            expected_out = pool.forward(x, training=True)
            expected_dx = pool.backward(grad)
        out = pool.forward(x, training=True)
        # The max of a window tied between -0.0 and +0.0 may carry either
        # sign; every other output, and every gradient bit, must match.
        np.testing.assert_array_equal(out, expected_out)
        assert out.dtype == expected_out.dtype
        assert_same_bits(pool.backward(grad), expected_dx)


@pytest.mark.parametrize("interleave", (True, False))
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("seed", SEEDS)
class TestConv2D:
    ACTIVATIONS = ("relu", "sigmoid", "tanh", "identity")

    def build(self, rng, dtype, batch=None):
        n, c, h, w, kernel, stride, padding = conv_geometry(rng)
        # The reference's bias sum and weight GEMM read ``grad_rows`` in
        # whatever layout transpose-then-reshape produced.  For a single
        # sample (``n == 1``) whose activation gradient came out NCHW, that
        # is a strided view, and numpy reduces it in another order
        # (pairwise, not sequential).  The library always uses C-contiguous
        # rows, the reference's layout for every larger batch, so exactness
        # is checked from two samples up and a single sample gets
        # ``test_single_sample_batch_agrees_to_rounding``.
        n = batch if batch is not None else n + 1
        layer = Conv2D(
            int(rng.integers(1, 5)),
            kernel,
            stride=stride,
            padding=padding,
            activation=self.ACTIVATIONS[int(rng.integers(len(self.ACTIVATIONS)))],
        )
        layer.build((c, h, w), rng)
        for key, value in layer.params.items():
            layer.params[key] = rng.standard_normal(value.shape).astype(dtype)
        x = edge_case_values(rng, (n, c, h, w), dtype)
        return layer, x

    @staticmethod
    def validation_pass(layer, x, interleave):
        """With ``interleave``, run an inference forward on a larger batch,
        as a mid-step validation pass does between a training forward and
        its backward.  Scratch is allocated per call, so it must leave the
        training forward's output and cached columns untouched."""
        if interleave:
            layer.forward(np.concatenate([x + 1, x]))

    def test_forward_and_gradients_match_reference(self, seed, dtype, interleave):
        rng = np.random.default_rng(400 + seed)
        layer, x = self.build(rng, dtype)
        grad = rng.standard_normal((x.shape[0], *layer.output_shape)).astype(dtype)
        with ref.reference_kernels():
            expected_out = layer.forward(x, training=True).copy()
            expected_dx = layer.backward(grad).copy()
            expected_grads = {k: v.copy() for k, v in layer.grads.items()}
            expected_infer = layer.forward(x).copy()
        out = layer.forward(x, training=True)
        self.validation_pass(layer, x, interleave)
        assert out.flags.c_contiguous
        assert_same_bits(out, expected_out)
        assert_same_bits(layer.backward(grad), expected_dx)
        for key, value in expected_grads.items():
            assert_same_bits(layer.grads[key], value)
        # Parameter gradients alone, without forming dL/d input.
        layer.zero_grads()
        layer.forward(x, training=True)
        self.validation_pass(layer, x, interleave)
        assert layer.backward_params(grad) is None
        for key, value in expected_grads.items():
            assert_same_bits(layer.grads[key], value)
        assert_same_bits(layer.forward(x), expected_infer)

    def test_single_sample_batch_agrees_to_rounding(self, seed, dtype, interleave):
        rng = np.random.default_rng(600 + seed)
        layer, x = self.build(rng, dtype, batch=1)
        grad = rng.standard_normal((1, *layer.output_shape)).astype(dtype)
        with ref.reference_kernels():
            layer.forward(x, training=True)
            expected_dx = layer.backward(grad).copy()
            expected = {k: v.copy() for k, v in layer.grads.items()}
        layer.forward(x, training=True)
        self.validation_pass(layer, x, interleave)
        assert_same_bits(layer.backward(grad), expected_dx)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for key, value in expected.items():
            np.testing.assert_allclose(layer.grads[key], value, rtol=tol, atol=tol)


@pytest.mark.parametrize("dtype", DTYPES)
def test_network_backward_matches_full_chain(dtype):
    rng = np.random.default_rng(7)
    net = Network(
        [
            Conv2D(3, 3, activation="relu"),
            MaxPool2D(2),
            Conv2D(4, 2, activation="relu"),
            MaxPool2D(2, stride=1),
            Flatten(),
            Dense(5, activation="softmax"),
        ],
        input_shape=(2, 9, 9),
        rng=1,
    ).astype(dtype)
    x = rng.random((6, 2, 9, 9)).astype(dtype)
    labels = rng.integers(0, 5, size=6)
    loss = SoftmaxCrossEntropy()
    with ref.reference_kernels():
        out = net.forward(x, training=True)
        assert net.backward(loss, out, labels).shape == x.shape
        expected = [
            {k: v.copy() for k, v in layer.grads.items()} for layer in net.layers
        ]
    out = net.forward(x, training=True)
    assert net.backward(loss, out, labels) is None
    for layer, grads in zip(net.layers, expected):
        for key, value in grads.items():
            assert_same_bits(layer.grads[key], value)


def test_score_cache_from_features_matches_build(trained_3c, tiny_scale):
    cdln = trained_3c.cdln
    # 400 training digits: more than one 256-row chunk, so the chunk
    # boundary that build and from_features must share is covered.
    images = get_datasets(tiny_scale, seed=7)[0].images
    assert images.shape[0] > 256
    built = StageScoreCache.build(cdln, images)
    features, final = cdln.backbone_outputs(images)
    cached = StageScoreCache.from_features(cdln, features, final)
    for name in built.cached_stage_names:
        assert_same_bits(cached.scores_for(name), built.scores_for(name))
    assert_same_bits(cached.replay(0.6).confidences, built.replay(0.6).confidences)
    empty = StageScoreCache.from_features(
        cdln, {t: v[:0] for t, v in features.items()}, final[:0]
    )
    assert empty.num_inputs == 0


def _train(architecture: str, scale: Scale, seed: int):
    train, _test = get_datasets(scale, seed)
    spec = ARCHITECTURES[architecture]
    config = CdlTrainingConfig(
        architecture=architecture, baseline_epochs=scale.baseline_epochs
    )
    return train_cdln(
        train, config=config, attach_indices=spec.attach_indices, rng=seed + 1
    )


def _trained_arrays(trained) -> dict[str, np.ndarray]:
    arrays = {}
    for i, layer in enumerate(trained.baseline.layers):
        for key, value in layer.params.items():
            arrays[f"baseline.{i}.{key}"] = value
    for stage in trained.cdln.linear_stages:
        arrays[f"{stage.name}.weights"] = stage.classifier.weights
        arrays[f"{stage.name}.bias"] = stage.classifier.bias
    return arrays


@pytest.mark.parametrize("dtype", ("float32", "float64"))
@pytest.mark.parametrize("architecture", ("mnist_3c", "mnist_2c"))
def test_algorithm_1_is_bit_identical_to_reference(architecture, dtype):
    """A whole train_cdln run -- baseline, classifiers, admission -- on the
    reference kernels and on the library's produces the same bits."""
    scale, seed = Scale.tiny(), 3
    with compute_policy(dtype=dtype):
        with ref.reference_kernels():
            expected = _train(architecture, scale, seed)
        actual = _train(architecture, scale, seed)
    expected_arrays = _trained_arrays(expected)
    actual_arrays = _trained_arrays(actual)
    assert actual_arrays.keys() == expected_arrays.keys()
    for key, value in expected_arrays.items():
        assert value.dtype == np.dtype(dtype)
        assert_same_bits(actual_arrays[key], value)
    assert actual.baseline_history.losses() == expected.baseline_history.losses()
    assert (
        actual.baseline_history.accuracies() == expected.baseline_history.accuracies()
    )
    assert actual.admission.kept == expected.admission.kept
    assert actual.admission.dropped == expected.admission.dropped
    assert actual.admission.diagnostics == expected.admission.diagnostics


def test_extract_features_is_the_backbone_pass(trained_3c, tiny_test_set):
    cdln: CDLN = trained_3c.cdln
    images = tiny_test_set.images[:70]
    features, final = cdln.backbone_outputs(images)
    for tap, value in cdln.extract_features(images).items():
        assert_same_bits(features[tap], value)
    assert_same_bits(final, cdln.baseline.predict(images))
