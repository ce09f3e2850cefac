"""Shared fixtures.

Heavy objects (datasets, trained networks) are session-scoped and built at
the *tiny* experiment scale so the whole suite stays fast while still
exercising the real training paths end to end.  The session holds every
digit set :func:`~repro.experiments.common.get_datasets` hands out, so each
is synthesized once per run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic_mnist import make_dataset_pair
from repro.experiments.common import Scale, get_datasets, get_trained, holding_datasets


@pytest.fixture(scope="session", autouse=True)
def _hold_datasets():
    with holding_datasets():
        yield


@pytest.fixture(scope="session")
def tiny_scale() -> Scale:
    return Scale.tiny()


@pytest.fixture(scope="session")
def tiny_datasets():
    """A small deterministic train/test pair shared across the suite."""
    return make_dataset_pair(400, 200, rng=1234)


@pytest.fixture(scope="session")
def trained_3c(tiny_scale):
    """A trained MNIST_3C baseline+CDLN (paper taps, admission on)."""
    return get_trained("mnist_3c", tiny_scale, seed=7)


@pytest.fixture(scope="session")
def trained_3c_all_taps(tiny_scale):
    """MNIST_3C with taps at every pooling layer (no admission)."""
    return get_trained("mnist_3c", tiny_scale, seed=7, attach="all")


@pytest.fixture(scope="session")
def trained_2c(tiny_scale):
    """A trained MNIST_2C baseline+CDLN."""
    return get_trained("mnist_2c", tiny_scale, seed=7)


@pytest.fixture(scope="session")
def tiny_test_set(tiny_scale):
    return get_datasets(tiny_scale, seed=7)[1]


def numeric_gradient(fn, x: np.ndarray, eps: float | None = None) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` w.r.t. array ``x``.

    The step size matches the array's precision: 1e-6 suits float64, but a
    float32 central difference needs a much larger step (1e-2) before the
    function-evaluation rounding noise (~1e-7 relative) stops dominating
    the quotient.
    """
    if eps is None:
        eps = 1e-6 if x.dtype == np.float64 else 1e-2
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        grad_flat[i] = (hi - lo) / (2 * eps)
    return grad


@pytest.fixture
def gradcheck():
    return numeric_gradient
