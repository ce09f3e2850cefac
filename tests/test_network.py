"""Tests for the Network container: segments, taps, fused backward."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    MeanSquaredError,
    Network,
    SoftmaxCrossEntropy,
)
from repro.nn.network import BLOCK_ROWS

RNG = np.random.default_rng(0)


def _gc_atol() -> float:
    """Gradient-check tolerance matched to the active compute dtype."""
    from repro.nn.compute import active_policy

    return 1e-6 if active_policy().dtype == np.float64 else 2e-2


def small_net(rng=3, output="softmax"):
    return Network(
        [
            Conv2D(3, 3, activation="relu"),
            MaxPool2D(2),
            Flatten(),
            Dense(10, activation=output),
        ],
        input_shape=(1, 8, 8),
        rng=rng,
    )


class TestConstruction:
    def test_shapes_propagate(self):
        net = small_net()
        assert net.output_shape == (10,)
        shapes = [s for _, _, s in net.layer_shapes()]
        assert shapes == [(3, 6, 6), (3, 3, 3), (27,), (10,)]

    def test_empty_layer_list_raises(self):
        with pytest.raises(ConfigurationError):
            Network([], input_shape=(1, 8, 8))

    def test_deterministic_init(self):
        a, b = small_net(rng=5), small_net(rng=5)
        np.testing.assert_array_equal(
            a.layers[0].params["weight"], b.layers[0].params["weight"]
        )

    def test_num_params(self):
        net = small_net()
        assert net.num_params == (3 * 9 + 3) + (27 * 10 + 10)

    def test_summary_mentions_every_layer(self):
        text = small_net().summary()
        for name in ("Conv2D", "MaxPool2D", "Flatten", "Dense", "total"):
            assert name in text


class TestForwardModes:
    def test_run_segment_composes_to_full_forward(self):
        net = small_net()
        x = RNG.random((4, 1, 8, 8))
        mid = net.run_segment(x, 0, 2)
        out = net.run_segment(mid, 2, None)
        np.testing.assert_allclose(out, net.forward(x))

    def test_run_segment_bad_range_raises(self):
        net = small_net()
        with pytest.raises(ConfigurationError):
            net.run_segment(RNG.random((1, 1, 8, 8)), 3, 1)

    def test_forward_collect_returns_taps(self):
        net = small_net()
        x = RNG.random((2, 1, 8, 8))
        out, taps = net.forward_collect(x, [1, 2])
        assert set(taps) == {1, 2}
        assert taps[1].shape == (2, 3, 3, 3)
        assert taps[2].shape == (2, 27)
        np.testing.assert_allclose(out, net.forward(x))

    def test_forward_collect_bad_tap_raises(self):
        net = small_net()
        with pytest.raises(ConfigurationError):
            net.forward_collect(RNG.random((1, 1, 8, 8)), [99])

    def test_predict_chunking_matches_single_pass(self):
        # Wider than two inference blocks, called in chunks of 5 rows.
        net = small_net()
        x = RNG.random((2 * BLOCK_ROWS + 5, 1, 8, 8))
        chunked = [net.predict(x[i : i + 5]) for i in range(0, x.shape[0], 5)]
        np.testing.assert_allclose(np.concatenate(chunked), net.predict(x))

    def test_predict_labels(self):
        net = small_net()
        x = RNG.random((3, 1, 8, 8))
        np.testing.assert_array_equal(
            net.predict_labels(x), net.predict(x).argmax(axis=1)
        )


class TestBackward:
    def test_full_backward_gradient_check(self, gradcheck):
        net = Network(
            [Flatten(), Dense(6, activation="tanh"), Dense(3, activation="sigmoid")],
            input_shape=(1, 2, 2),
            rng=1,
        )
        loss = MeanSquaredError()
        x = RNG.random((4, 1, 2, 2))
        labels = np.array([0, 1, 2, 0])
        out = net.forward(x, training=True)
        net.backward(loss, out, labels)
        analytic = net.layers[1].grads["weight"].copy()

        def value():
            return loss.value(net.forward(x, training=False), labels)

        numeric = gradcheck(value, net.layers[1].params["weight"])
        np.testing.assert_allclose(analytic, numeric, atol=_gc_atol())

    def test_fused_softmax_ce_matches_explicit_chain(self, gradcheck):
        """The fused softmax/CE path must equal the numeric gradient."""
        net = Network(
            [Flatten(), Dense(4, activation="softmax")],
            input_shape=(1, 2, 2),
            rng=2,
        )
        loss = SoftmaxCrossEntropy()
        x = RNG.random((5, 1, 2, 2))
        labels = np.array([0, 1, 2, 3, 0])
        out = net.forward(x, training=True)
        net.backward(loss, out, labels)
        analytic = net.layers[1].grads["weight"].copy()

        def value():
            return loss.value(net.forward(x, training=False), labels)

        numeric = gradcheck(value, net.layers[1].params["weight"])
        np.testing.assert_allclose(analytic, numeric, atol=_gc_atol())

    def test_zero_grads(self):
        net = small_net()
        x = RNG.random((2, 1, 8, 8))
        out = net.forward(x, training=True)
        net.backward(SoftmaxCrossEntropy(), out, np.array([1, 2]))
        net.zero_grads()
        for layer in net.trainable_layers():
            for grad in layer.grads.values():
                assert not grad.any()
