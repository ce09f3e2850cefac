"""Tests for the CDL linear classifiers (LMS / ridge / softmax rules)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdl.linear_classifier import LinearClassifier
from repro.errors import ConfigurationError, NotFittedError, ShapeError


def _separable(n=150, dim=6, classes=3, seed=0, margin=4.0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, n)
    centers = rng.normal(size=(classes, dim)) * margin
    features = centers[labels] + rng.normal(0, 0.3, size=(n, dim))
    return features, labels


class TestConstruction:
    def test_bad_rule_raises(self):
        with pytest.raises(ConfigurationError):
            LinearClassifier(10, rule="perceptron")

    def test_bad_learning_rate_raises(self):
        with pytest.raises(ConfigurationError):
            LinearClassifier(10, learning_rate=0.0)

    def test_bad_l2_raises(self):
        with pytest.raises(ConfigurationError):
            LinearClassifier(10, l2=-0.1)

    def test_unfitted_use_raises(self):
        clf = LinearClassifier(3)
        with pytest.raises(NotFittedError):
            clf.scores(np.zeros((1, 4)))
        with pytest.raises(NotFittedError):
            clf.op_cost()


@pytest.mark.parametrize("rule", ["lms", "ridge", "softmax"])
class TestAllRules:
    def test_learns_separable_data(self, rule):
        x, y = _separable()
        clf = LinearClassifier(3, rule=rule, epochs=30, rng=0).fit(x, y)
        assert (clf.predict(x) == y).mean() > 0.95

    def test_scores_shape(self, rule):
        x, y = _separable()
        clf = LinearClassifier(3, rule=rule, rng=0).fit(x, y)
        assert clf.scores(x).shape == (len(x), 3)

    def test_proba_rows_sum_to_one(self, rule):
        x, y = _separable()
        clf = LinearClassifier(3, rule=rule, rng=0).fit(x, y)
        np.testing.assert_allclose(
            clf.predict_proba(x).sum(axis=1),
            1.0,
            rtol=1e-9 if clf.weights.dtype == np.float64 else 1e-5,
        )

    def test_confidence_scores_in_unit_interval(self, rule):
        x, y = _separable()
        clf = LinearClassifier(3, rule=rule, rng=0).fit(x, y)
        conf = clf.confidence_scores(x)
        assert conf.min() >= 0.0 and conf.max() <= 1.0


class TestLmsRule:
    def test_stable_on_large_feature_scales(self):
        """NLMS normalization must keep the rule stable even when features
        are large and high-dimensional (the raw delta rule diverges)."""
        rng = np.random.default_rng(0)
        x = rng.random((100, 500)) * 50.0
        y = rng.integers(0, 10, 100)
        clf = LinearClassifier(10, rule="lms", epochs=5, rng=1).fit(x, y)
        assert np.isfinite(clf.weights).all()
        assert np.isfinite(clf.scores(x)).all()

    def test_converges_toward_ridge_solution(self):
        """Enough LMS epochs approach the closed-form global minimum the
        paper says the linear classifiers converge to."""
        x, y = _separable(n=300, seed=2)
        lms = LinearClassifier(3, rule="lms", epochs=200, rng=0).fit(x, y)
        ridge = LinearClassifier(3, rule="ridge", rng=0).fit(x, y)
        # LMS approaches (never beats by much, never strays far from) the
        # closed-form optimum; both land at tiny residual error here.
        assert lms.mean_squared_error(x, y) <= max(
            5.0 * ridge.mean_squared_error(x, y), 0.01
        )


class TestRidgeRule:
    def test_deterministic(self):
        x, y = _separable()
        a = LinearClassifier(3, rule="ridge", rng=0).fit(x, y)
        b = LinearClassifier(3, rule="ridge", rng=99).fit(x, y)
        np.testing.assert_allclose(a.weights, b.weights)

    def test_stronger_l2_shrinks_weights(self):
        x, y = _separable()
        loose = LinearClassifier(3, rule="ridge", l2=1e-4, rng=0).fit(x, y)
        tight = LinearClassifier(3, rule="ridge", l2=10.0, rng=0).fit(x, y)
        assert np.abs(tight.weights).sum() < np.abs(loose.weights).sum()

    def test_is_least_squares_optimum(self):
        """No small perturbation of the ridge solution may reduce the
        regularized LMS objective."""
        x, y = _separable(n=80, dim=4)
        clf = LinearClassifier(3, rule="ridge", l2=0.01, rng=0).fit(x, y)

        def objective(w):
            from repro.nn.tensor_ops import one_hot

            t = one_hot(y, 3)
            pred = x @ w.T + clf.bias
            lam = 0.01 * len(x)
            return float(np.sum((pred - t) ** 2) + lam * np.sum(w * w))

        base = objective(clf.weights)
        rng = np.random.default_rng(5)
        for _ in range(10):
            perturbed = clf.weights + rng.normal(0, 1e-3, clf.weights.shape)
            assert objective(perturbed) >= base - 1e-9


class TestOpCost:
    def test_exact_counts(self):
        x, y = _separable(dim=6)
        clf = LinearClassifier(3, rng=0).fit(x, y)
        cost = clf.op_cost()
        assert cost.macs == 3 * 6
        assert cost.adds == 3 + 2
        assert cost.comparisons == 3
        assert cost.activations == 6

    def test_cost_scales_with_input_dim(self):
        x1, y1 = _separable(dim=4)
        x2, y2 = _separable(dim=40)
        small = LinearClassifier(3, rng=0).fit(x1, y1).op_cost()
        big = LinearClassifier(3, rng=0).fit(x2, y2).op_cost()
        assert big.total > small.total


class TestValidation:
    def test_wrong_feature_dim_raises(self):
        x, y = _separable(dim=6)
        clf = LinearClassifier(3, rng=0).fit(x, y)
        with pytest.raises(ShapeError):
            clf.scores(np.zeros((2, 7)))

    def test_empty_fit_raises(self):
        with pytest.raises(ShapeError):
            LinearClassifier(3).fit(np.zeros((0, 4)), np.zeros(0, dtype=int))

    def test_3d_features_raise(self):
        with pytest.raises(ShapeError):
            LinearClassifier(3).fit(np.zeros((5, 2, 2)), np.zeros(5, dtype=int))

    def test_mismatched_labels_raise(self):
        with pytest.raises(ShapeError):
            LinearClassifier(3).fit(np.zeros((5, 4)), np.zeros(4, dtype=int))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 6), st.integers(5, 30))
    def test_fit_predict_roundtrip_shapes(self, classes, n):
        rng = np.random.default_rng(classes * n)
        x = rng.random((n, 8))
        y = rng.integers(0, classes, n)
        clf = LinearClassifier(classes, rule="ridge", rng=0).fit(x, y)
        assert clf.predict(x).shape == (n,)
        assert set(clf.predict(x)) <= set(range(classes))


class TestPooledTap:
    """A head that average-pools its (C, H, W) tap before the linear map."""

    SHAPE = (3, 13, 13)  # MNIST_3C's P1, the O1 tap

    def _fitted(self, rule="ridge"):
        rng = np.random.default_rng(3)
        x = rng.random((120, 507))
        y = rng.integers(0, 10, 120)
        clf = LinearClassifier(
            10, rule=rule, rng=0, tap_shape=self.SHAPE, pool_window=2
        ).fit(x, y)
        return clf, x

    def test_reads_the_whole_tap_and_maps_the_pooled_one(self):
        clf, x = self._fitted()
        assert clf.input_dim == 507
        assert clf.weights.shape == (10, 3 * 6 * 6)
        assert clf.scores(x).shape == (120, 10)
        with pytest.raises(ShapeError):
            clf.scores(x[:, :108])

    @pytest.mark.parametrize("rule", ["ridge", "lms", "softmax"])
    def test_scores_equal_a_dense_head_with_spread_weights(self, rule):
        """The pooled head is a linear classifier on all 507 P1 features:
        each pooled weight / 4 over its 2x2 block, zero on the 13th row and
        column that no whole window covers."""
        clf, x = self._fitted(rule)
        blocks = clf.weights.reshape(10, 3, 6, 6) / 4
        dense = np.zeros((10, *self.SHAPE), dtype=clf.weights.dtype)
        dense[:, :, :12, :12] = blocks.repeat(2, axis=2).repeat(2, axis=3)
        assert not dense[:, :, 12, :].any() and not dense[:, :, :, 12].any()
        want = x.astype(clf.weights.dtype) @ dense.reshape(10, 507).T + clf.bias
        rtol = 1e-12 if clf.weights.dtype == np.float64 else 1e-5
        np.testing.assert_allclose(clf.scores(x), want, rtol=rtol, atol=rtol)

    def test_op_cost_adds_the_pool(self):
        clf, _ = self._fitted()
        cost = clf.op_cost()
        # 108 windows x (3 adds + 1 scale), then a 10x108 map.
        assert cost.macs == 10 * 108
        assert cost.adds == 432 + 10 + 9
        assert cost.total == 2641

    def test_window_one_maps_the_tap_unpooled(self):
        rng = np.random.default_rng(0)
        x, y = rng.random((40, 507)), rng.integers(0, 10, 40)
        plain = LinearClassifier(10, rng=0).fit(x, y)
        tapped = LinearClassifier(10, rng=0, tap_shape=self.SHAPE).fit(x, y)
        assert tapped.pool is None
        np.testing.assert_array_equal(tapped.weights, plain.weights)
        assert tapped.op_cost() == plain.op_cost()
        with pytest.raises(ShapeError):
            LinearClassifier(10, tap_shape=self.SHAPE).fit(x[:, :500], y)

    def test_pool_needs_a_tap_shape(self):
        with pytest.raises(ConfigurationError, match="tap_shape"):
            LinearClassifier(10, pool_window=2)
        with pytest.raises(ConfigurationError, match="tap_shape"):
            LinearClassifier(10, tap_shape=(507,), pool_window=2)
        with pytest.raises(ConfigurationError):
            LinearClassifier(10, tap_shape=self.SHAPE, pool_window=0)
