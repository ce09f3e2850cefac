"""The cascade's linear classifiers.

Each stage of the CDLN is "a linear network of output neurons" trained on
the flattened convolutional features of that stage "using the least mean
square rule" (Algorithm 1, step 7).  :class:`LinearClassifier` implements
exactly that delta-rule training, plus a softmax-regression alternative
used by the trainer ablation.  A classifier may average-pool its tap
before the linear map, which shrinks the map (and the head's OPS) by the
window's area while it still reads the stage's full feature vector.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError, NotFittedError, ShapeError
from repro.nn.activations import Softmax
from repro.nn.compute import active_policy, resolve_dtype
from repro.nn.layers import AvgPool2D
from repro.nn.tensor_ops import one_hot
from repro.ops.counting import OpCount, count_layer_ops
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int

_RULES = ("lms", "ridge", "softmax")
_SOFTMAX = Softmax()


class LinearClassifier:
    """A single linear layer of output neurons over flat features.

    Parameters
    ----------
    num_classes:
        Output neuron count (matches the baseline DLN's output layer, per
        the paper).
    rule:
        ``"lms"`` -- normalized Widrow-Hoff delta rule on a linear output
        (the paper's choice): ``W += lr * (t - y) x / E[||x||^2]`` with
        ``y = Wx + b``.  The normalization by the mean squared feature
        norm is the standard NLMS step-size guard that keeps the rule
        stable for any feature dimensionality.
        ``"ridge"`` -- the closed-form (regularized) least-squares solution
        of the same LMS objective.  The paper notes the linear classifiers
        "converge to the global minima (least error attainable by the
        linear classifier)"; this rule jumps straight to that global
        minimum, so it is the default for experiments while ``"lms"``
        remains available for rule-level fidelity and ablations.
        ``"softmax"`` -- multinomial logistic regression (gradient of
        cross-entropy through a softmax), for the ablation study.
    learning_rate, epochs, batch_size:
        Mini-batch training hyper-parameters.
    l2:
        Optional L2 weight decay.
    rng:
        Seed/generator for initialization and shuffling.
    tap_shape:
        The ``(C, H, W)`` feature map the flat features were taken from.
        Required when ``pool_window > 1``.
    pool_window:
        Average-pool the tap with non-overlapping ``pool_window`` windows
        (:class:`~repro.nn.layers.AvgPool2D`) before the linear map.  The
        classifier still reads the tap's full flat features; rows and
        columns past the last whole window are dropped, as the pooling
        layer drops them.  ``1`` (the default) maps the tap as it is.
    """

    def __init__(
        self,
        num_classes: int = 10,
        *,
        rule: str = "ridge",
        learning_rate: float = 0.5,
        epochs: int = 12,
        batch_size: int = 64,
        l2: float = 0.0,
        rng: int | np.random.Generator | None = None,
        tap_shape: tuple[int, int, int] | None = None,
        pool_window: int = 1,
    ) -> None:
        self.num_classes = check_positive_int(num_classes, "num_classes")
        if rule not in _RULES:
            raise ConfigurationError(f"rule must be one of {_RULES}, got {rule!r}")
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be > 0, got {learning_rate}")
        if l2 < 0:
            raise ConfigurationError(f"l2 must be >= 0, got {l2}")
        self.rule = rule
        self.learning_rate = float(learning_rate)
        self.epochs = check_positive_int(epochs, "epochs")
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.l2 = float(l2)
        self.rng = ensure_rng(rng)
        self.tap_shape = None if tap_shape is None else tuple(int(d) for d in tap_shape)
        self.pool: AvgPool2D | None = None
        if check_positive_int(pool_window, "pool_window") > 1:
            if self.tap_shape is None or len(self.tap_shape) != 3:
                raise ConfigurationError(
                    f"pool_window={pool_window} needs a (C, H, W) tap_shape, "
                    f"got {tap_shape}"
                )
            self.pool = AvgPool2D(pool_window, name="pool")
            self.pool.build(self.tap_shape, None)
        self.weights: np.ndarray | None = None
        self.bias: np.ndarray | None = None

    # -- training ------------------------------------------------------------
    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LinearClassifier":
        """Train on ``(N, D)`` features with ``(N,)`` integer labels.

        Features are cast to the active compute policy's dtype, so the
        fitted weights (and every later score) follow the policy.
        """
        dtype = active_policy().dtype
        features = np.asarray(features, dtype=dtype)
        labels = np.asarray(labels, dtype=np.int64).ravel()
        if features.ndim != 2:
            raise ShapeError(f"features must be (N, D), got {features.shape}")
        if features.shape[0] != labels.shape[0]:
            raise ShapeError("features and labels disagree on sample count")
        if features.shape[0] == 0:
            raise ShapeError("cannot fit a linear classifier on zero samples")
        if self.tap_shape is not None:
            self._check_width(features, math.prod(self.tap_shape))
        features = self._pooled(features)
        n, dim = features.shape
        targets = one_hot(labels, self.num_classes, dtype=dtype)
        if self.rule == "ridge":
            return self._fit_ridge(features, targets)
        # Small random init breaks symmetry for softmax; zeros suit pure LMS.
        if self.rule == "lms":
            self.weights = np.zeros((self.num_classes, dim), dtype=dtype)
        else:
            self.weights = self.rng.normal(
                0.0, 0.01, size=(self.num_classes, dim)
            ).astype(dtype, copy=False)
        self.bias = np.zeros(self.num_classes, dtype=dtype)
        # NLMS-style step-size normalization: divide by the mean squared
        # feature norm (+1 for the bias input) so both gradient rules are
        # stable regardless of feature dimensionality or activation scale.
        power = float(np.mean(np.sum(features * features, axis=1))) + 1.0
        step = self.learning_rate / power

        for _ in range(self.epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                x, t = features[idx], targets[idx]
                y = x @ self.weights.T + self.bias
                if self.rule == "softmax":
                    y = _SOFTMAX.forward(y)
                err = (t - y) / x.shape[0]
                grad_w = err.T @ x
                if self.l2 > 0:
                    grad_w -= self.l2 * self.weights
                self.weights += step * grad_w
                self.bias += step * err.sum(axis=0)
        return self

    def _fit_ridge(self, features: np.ndarray, targets: np.ndarray) -> "LinearClassifier":
        """Closed-form regularized least squares (the LMS global minimum).

        Solves ``(X^T X + lam I) W = X^T T`` with an explicit bias column;
        ``lam`` defaults to ``1e-3 * N`` unless ``l2`` is set, keeping the
        effective regularization scale-free in the sample count.
        """
        n, dim = features.shape
        x = np.concatenate([features, np.ones((n, 1), dtype=features.dtype)], axis=1)
        lam = (self.l2 if self.l2 > 0 else 1e-3) * n
        gram = x.T @ x + lam * np.eye(dim + 1, dtype=features.dtype)
        solution = np.linalg.solve(gram, x.T @ targets)  # (dim+1, classes)
        self.weights = solution[:-1].T.copy()
        self.bias = solution[-1].copy()
        return self

    @property
    def is_fitted(self) -> bool:
        return self.weights is not None

    @property
    def input_dim(self) -> int:
        """Width of the flat features the classifier reads (its tap's size)."""
        self._require_fitted()
        if self.tap_shape is not None:
            return math.prod(self.tap_shape)
        return int(self.weights.shape[1])

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError("LinearClassifier used before fit()")

    @staticmethod
    def _check_width(features: np.ndarray, width: int) -> None:
        if features.ndim != 2 or features.shape[1] != width:
            raise ShapeError(f"features must be (N, {width}), got {features.shape}")

    def _pooled(self, features: np.ndarray) -> np.ndarray:
        """What the linear map reads: the features, pooled if configured."""
        if self.pool is None:
            return features
        n = features.shape[0]
        return self.pool.forward(features.reshape(n, *self.tap_shape)).reshape(n, -1)

    # -- inference -------------------------------------------------------------
    def astype(self, dtype: np.dtype | str | type) -> "LinearClassifier":
        """Cast the fitted weights (in place) to ``dtype``; returns ``self``."""
        target = resolve_dtype(dtype)
        if self.weights is not None:
            self.weights = self.weights.astype(target, copy=False)
            self.bias = self.bias.astype(target, copy=False)
        return self

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Raw linear scores ``(N, num_classes)`` (computed in the weight dtype)."""
        self._require_fitted()
        features = np.asarray(features, dtype=self.weights.dtype)
        self._check_width(features, self.input_dim)
        return self._pooled(features) @ self.weights.T + self.bias

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities (softmax over the linear scores)."""
        return _SOFTMAX.forward(self.scores(features))

    def confidence_scores(self, features: np.ndarray) -> np.ndarray:
        """Per-class confidences in [0, 1] for the activation module.

        The LMS rule regresses scores toward one-hot targets, so a score is
        already an (unnormalized) estimate of "this class's confidence";
        clipping to [0, 1] preserves that per-class reading, which the
        paper's multi-label ambiguity criterion needs.  The softmax rule's
        natural confidences are its class probabilities.
        """
        scores = self.scores(features)
        if self.rule == "softmax":
            return _SOFTMAX.forward(scores)
        return np.clip(scores, 0.0, 1.0)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Class labels."""
        return self.scores(features).argmax(axis=1)

    def mean_squared_error(self, features: np.ndarray, labels: np.ndarray) -> float:
        """LMS objective value (for convergence diagnostics)."""
        targets = one_hot(np.asarray(labels, dtype=np.int64).ravel(), self.num_classes)
        diff = self.scores(features) - targets
        return float(0.5 * np.mean(np.sum(diff * diff, axis=1)))

    # -- hardware cost -----------------------------------------------------------
    def op_cost(self) -> OpCount:
        """Operations per input: the tap's pooling (if any), the linear
        layer, a confidence softmax, and the activation module's
        threshold comparisons.

        The softmax terms (``c - 1`` adds, ``2 * c`` activations) are
        charged whatever the rule, although only the ``softmax`` rule runs
        one: the ``ridge`` and ``lms`` heads clip their scores to [0, 1]
        instead (:meth:`confidence_scores`), so each is charged 29 OPS it
        never executes for 10 classes, and its clip is not charged.
        """
        self._require_fitted()
        c, d = self.weights.shape
        cost = OpCount(
            macs=c * d,
            adds=c + (c - 1),  # bias adds + softmax normalization sum
            comparisons=c,  # activation-module threshold checks
            activations=2 * c,  # softmax exp + divide per class
        )
        if self.pool is not None:
            cost = count_layer_ops(self.pool) + cost
        return cost

    def __repr__(self) -> str:
        dims = f"{self.input_dim}->{self.num_classes}" if self.is_fitted else "unfitted"
        pool = "" if self.pool is None else f", pool_window={self.pool.window}"
        return f"LinearClassifier({dims}, rule={self.rule!r}{pool})"
