"""Tests for all layer types: geometry, forward values, gradient checks."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn.layers import (
    ActivationLayer,
    AvgPool2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    layer_from_config,
)

RNG = np.random.default_rng(0)


def _tol(float64_value: float, float32_value: float) -> float:
    """Precision-matched tolerance for the active compute dtype."""
    from repro.nn.compute import active_policy

    return float64_value if active_policy().dtype == np.float64 else float32_value


def _loss_through(layer, x, upstream):
    out = layer.forward(x, training=True)
    return float(np.sum(out * upstream))


def _check_input_gradient(layer, x, gradcheck, atol=None):
    # Gradients are checked against a finite difference computed in the
    # layer's own dtype, so the band scales with that dtype's precision.
    atol = _tol(1e-6, 2e-2) if atol is None else atol
    x = x.astype(layer.params["weight"].dtype) if layer.params else x
    upstream = np.random.default_rng(99).normal(size=layer.forward(x).shape)
    layer.forward(x, training=True)
    analytic = layer.backward(upstream)
    numeric = gradcheck(lambda: _loss_through(layer, x, upstream), x)
    np.testing.assert_allclose(analytic, numeric, atol=atol)


def _check_param_gradient(layer, x, key, gradcheck, atol=None):
    atol = _tol(1e-6, 2e-2) if atol is None else atol
    upstream = np.random.default_rng(98).normal(size=layer.forward(x).shape)
    layer.forward(x, training=True)
    layer.backward(upstream)
    analytic = layer.grads[key]
    numeric = gradcheck(lambda: _loss_through(layer, x, upstream), layer.params[key])
    np.testing.assert_allclose(analytic, numeric, atol=atol)


class TestConv2D:
    def make(self, activation="sigmoid"):
        layer = Conv2D(4, 3, activation=activation)
        layer.build((2, 6, 6), np.random.default_rng(1))
        return layer

    def test_output_shape(self):
        layer = self.make()
        assert layer.output_shape == (4, 4, 4)
        out = layer.forward(RNG.random((3, 2, 6, 6)))
        assert out.shape == (3, 4, 4, 4)

    def test_param_shapes_and_count(self):
        layer = self.make()
        assert layer.params["weight"].shape == (4, 2, 3, 3)
        assert layer.params["bias"].shape == (4,)
        assert layer.num_params == 4 * 2 * 9 + 4

    def test_identity_activation_matches_naive_conv(self):
        layer = self.make(activation="identity")
        x = RNG.random((1, 2, 6, 6))
        out = layer.forward(x)
        w, b = layer.params["weight"], layer.params["bias"]
        naive = np.zeros((1, 4, 4, 4))
        for m in range(4):
            for i in range(4):
                for j in range(4):
                    naive[0, m, i, j] = np.sum(x[0, :, i:i+3, j:j+3] * w[m]) + b[m]
        np.testing.assert_allclose(
            out, naive, rtol=_tol(1e-10, 1e-4), atol=_tol(0, 1e-5)
        )

    def test_input_gradient(self, gradcheck):
        layer = self.make()
        _check_input_gradient(layer, RNG.random((2, 2, 6, 6)), gradcheck)

    @pytest.mark.parametrize("key", ["weight", "bias"])
    def test_param_gradients(self, key, gradcheck):
        layer = self.make()
        _check_param_gradient(layer, RNG.random((2, 2, 6, 6)), key, gradcheck)

    def test_backward_without_forward_raises(self):
        layer = self.make()
        with pytest.raises(ShapeError):
            layer.backward(np.zeros((1, 4, 4, 4)))

    def test_wrong_input_shape_raises(self):
        layer = self.make()
        with pytest.raises(ShapeError):
            layer.forward(RNG.random((1, 3, 6, 6)))

    def test_bad_geometry_raises(self):
        with pytest.raises(ShapeError):
            Conv2D(0, 3)
        with pytest.raises(ShapeError):
            Conv2D(3, 3, stride=0)

    def test_build_rejects_flat_input(self):
        with pytest.raises(ShapeError):
            Conv2D(3, 3).build((10,), np.random.default_rng(0))

    def test_padding_preserves_size(self):
        layer = Conv2D(2, 3, padding=1)
        layer.build((1, 5, 5), np.random.default_rng(0))
        assert layer.output_shape == (2, 5, 5)


class TestMaxPool2D:
    def test_forward_values(self):
        layer = MaxPool2D(2)
        layer.build((1, 4, 4), None)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_gradient_routes_to_argmax(self):
        layer = MaxPool2D(2)
        layer.build((1, 4, 4), None)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        layer.forward(x, training=True)
        grad = layer.backward(np.ones((1, 1, 2, 2)))
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        np.testing.assert_array_equal(grad[0, 0], expected)

    def test_input_gradient_numeric(self, gradcheck):
        layer = MaxPool2D(2)
        layer.build((2, 4, 4), None)
        # Distinct values so the argmax is stable under perturbation.
        x = np.random.default_rng(5).permutation(64).astype(float).reshape(2, 2, 4, 4)
        _check_input_gradient(layer, x, gradcheck, atol=1e-5)

    def test_unit_window_is_identity(self):
        layer = MaxPool2D(1)
        layer.build((3, 5, 5), None)
        x = RNG.random((2, 3, 5, 5))
        np.testing.assert_array_equal(layer.forward(x, training=True), x)
        g = RNG.random((2, 3, 5, 5))
        np.testing.assert_array_equal(layer.backward(g), g)

    def test_table2_p3_geometry(self):
        """Table II lists P3 with the same 3x3 geometry as C3."""
        layer = MaxPool2D(1)
        layer.build((9, 3, 3), None)
        assert layer.output_shape == (9, 3, 3)


class TestAvgPool2D:
    def test_forward_values(self):
        layer = AvgPool2D(2)
        layer.build((1, 2, 2), None)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert layer.forward(x)[0, 0, 0, 0] == pytest.approx(2.5)

    def test_gradient_spreads_uniformly(self):
        layer = AvgPool2D(2)
        layer.build((1, 4, 4), None)
        layer.forward(RNG.random((1, 1, 4, 4)), training=True)
        grad = layer.backward(np.full((1, 1, 2, 2), 4.0))
        np.testing.assert_allclose(grad, np.ones((1, 1, 4, 4)))

    def test_input_gradient_numeric(self, gradcheck):
        layer = AvgPool2D(2)
        layer.build((2, 4, 4), None)
        _check_input_gradient(layer, RNG.random((2, 2, 4, 4)), gradcheck)


class TestDense:
    def make(self, activation="sigmoid"):
        layer = Dense(3, activation=activation)
        layer.build((5,), np.random.default_rng(2))
        return layer

    def test_forward_linear(self):
        layer = self.make(activation="identity")
        x = RNG.random((2, 5))
        expected = x @ layer.params["weight"].T + layer.params["bias"]
        np.testing.assert_allclose(
            layer.forward(x), expected, rtol=_tol(1e-7, 1e-5), atol=_tol(0, 1e-6)
        )

    def test_input_gradient(self, gradcheck):
        _check_input_gradient(self.make(), RNG.random((3, 5)), gradcheck)

    @pytest.mark.parametrize("key", ["weight", "bias"])
    def test_param_gradients(self, key, gradcheck):
        _check_param_gradient(self.make(), RNG.random((3, 5)), key, gradcheck)

    def test_softmax_dense_gradient(self, gradcheck):
        _check_input_gradient(self.make(activation="softmax"), RNG.random((3, 5)), gradcheck)

    def test_requires_flat_input(self):
        with pytest.raises(ShapeError):
            Dense(3).build((2, 3, 3), np.random.default_rng(0))

    def test_bad_units_raises(self):
        with pytest.raises(ShapeError):
            Dense(0)


class TestFlatten:
    def test_round_trip(self):
        layer = Flatten()
        layer.build((2, 3, 4), None)
        assert layer.output_shape == (24,)
        x = RNG.random((5, 2, 3, 4))
        out = layer.forward(x, training=True)
        assert out.shape == (5, 24)
        back = layer.backward(out)
        np.testing.assert_array_equal(back, x)


class TestActivationLayer:
    def test_forward_and_backward(self, gradcheck):
        layer = ActivationLayer("tanh")
        layer.build((4,), None)
        _check_input_gradient(layer, RNG.normal(size=(3, 4)), gradcheck)

    def test_backward_before_forward_raises(self):
        layer = ActivationLayer("relu")
        layer.build((4,), None)
        with pytest.raises(ShapeError):
            layer.backward(np.zeros((1, 4)))


class TestDropout:
    def test_inference_is_identity(self):
        layer = Dropout(0.5, seed=0)
        layer.build((10,), None)
        x = RNG.random((4, 10))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_training_preserves_expectation(self):
        layer = Dropout(0.5, seed=0)
        layer.build((1000,), None)
        x = np.ones((50, 1000))
        out = layer.forward(x, training=True)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, seed=1)
        layer.build((100,), None)
        x = np.ones((2, 100))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(out))
        np.testing.assert_array_equal((out == 0), (grad == 0))

    def test_rate_one_rejected(self):
        with pytest.raises(ShapeError):
            Dropout(1.0)


def _held_arrays(layer) -> list[str]:
    """Names of the attributes holding arrays other than parameters and gradients."""
    held = []
    for name, value in vars(layer).items():
        if name in ("params", "grads"):
            continue
        values = value.values() if isinstance(value, dict) else (value,)
        held += [name for item in values if isinstance(item, np.ndarray)]
    return held


# Every layer type that keeps state from a training forward for its
# backward, with an input shape it accepts.
TRAINING_STATE = {
    "Conv2D": (lambda: Conv2D(3, 3), (2, 6, 6)),
    "MaxPool2D": (lambda: MaxPool2D(2), (2, 6, 6)),
    "AvgPool2D": (lambda: AvgPool2D(2), (2, 6, 6)),
    "Dense": (lambda: Dense(4), (5,)),
    "ActivationLayer": (lambda: ActivationLayer("tanh"), (5,)),
    "Dropout": (lambda: Dropout(0.5, seed=0), (5,)),
}


@pytest.mark.parametrize("kind", sorted(TRAINING_STATE))
class TestClearCache:
    def build(self, kind):
        make, shape = TRAINING_STATE[kind]
        layer = make()
        layer.build(shape, np.random.default_rng(2))
        return layer, RNG.normal(size=(3, *shape))

    def test_drops_what_training_kept(self, kind):
        layer, x = self.build(kind)
        out = layer.forward(x, training=True)
        layer.backward(np.ones_like(out))
        assert _held_arrays(layer) or layer._cache
        layer.clear_cache()
        assert _held_arrays(layer) == []
        assert layer._cache == {}

    def test_layer_trains_on_after_clearing(self, kind):
        layer, x = self.build(kind)
        upstream = np.ones_like(layer.forward(x))
        layer.forward(x, training=True)
        layer.clear_cache()
        layer.forward(x, training=True)
        assert layer.backward(upstream).shape == x.shape


class TestLayerRegistry:
    def test_round_trip_config(self):
        layer = Conv2D(6, 5, activation="relu", name="C1")
        rebuilt = layer_from_config("Conv2D", layer.get_config())
        assert rebuilt.num_maps == 6
        assert rebuilt.kernel == 5
        assert rebuilt.activation.name == "relu"
        assert rebuilt.name == "C1"

    def test_unknown_class_raises(self):
        with pytest.raises(ConfigurationError):
            layer_from_config("NoSuchLayer", {})

    def test_unbuilt_layer_reports(self):
        layer = Dense(4)
        assert "unbuilt" in repr(layer)
        with pytest.raises(ConfigurationError):
            layer.forward(np.zeros((1, 4)))
