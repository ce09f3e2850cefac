"""Property-style tests for the PR-3 substrate: im2col/col2im adjoints
and round-trips, and pooling forward/backward adjoints.

Each case draws a random geometry (odd spatial sizes, mixed strides,
kernels and padding) from a seeded generator and checks the algebraic
identities the layers rely on:

* ``im2col``/``col2im`` allocate a fresh result on every call and are
  exact adjoints: ``<im2col(x), y> == <x, col2im(y)>`` for every
  geometry;
* average pooling's forward map is linear and its backward is the exact
  adjoint; max pooling's backward routes gradient only to argmax
  positions and preserves mass.

Both compute dtypes are exercised; ~50 randomized cases per identity
family keep the odd-shape/stride/kernel space honestly covered.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.layers.pool import AvgPool2D, MaxPool2D
from repro.nn.tensor_ops import col2im, conv_output_size, im2col, sliding_windows

SEEDS = range(13)
DTYPES = (np.float32, np.float64)


def random_geometry(rng: np.random.Generator):
    """Random (n, c, h, w, kernel, stride, padding) with odd spatial sizes."""
    n = int(rng.integers(1, 4))
    c = int(rng.integers(1, 4))
    h = int(rng.choice([5, 7, 9, 11, 13]))
    w = int(rng.choice([5, 7, 9, 11, 13]))
    kernel = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 4))
    padding = int(rng.integers(0, 2))
    return n, c, h, w, kernel, stride, padding


def tolerance(dtype) -> float:
    return 1e-4 if dtype == np.float32 else 1e-10


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("seed", SEEDS)
class TestIm2colCol2im:
    def test_each_call_returns_a_fresh_array(self, seed, dtype):
        """Results are allocated per call: they alias neither the input nor
        an earlier result, so a layer may cache one across later calls."""
        rng = np.random.default_rng(seed)
        n, c, h, w, kernel, stride, padding = random_geometry(rng)
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        fresh = im2col(x, kernel, stride, padding)
        again = im2col(x, kernel, stride, padding)
        assert fresh.dtype == dtype and fresh.flags.c_contiguous
        assert not np.shares_memory(fresh, x)
        assert not np.shares_memory(fresh, again)
        np.testing.assert_array_equal(again, fresh)

        cols = rng.standard_normal(fresh.shape).astype(dtype)
        back = col2im(cols, x.shape, kernel, stride, padding)
        back_again = col2im(cols, x.shape, kernel, stride, padding)
        assert back.shape == x.shape and back.dtype == dtype
        assert not np.shares_memory(back, cols)
        assert not np.shares_memory(back, back_again)
        np.testing.assert_array_equal(back_again, back)

    def test_gather_scatter_adjoint_identity(self, seed, dtype):
        """<im2col(x), y> == <x, col2im(y)>: the exact adjoint pair that
        makes col2im the correct convolution gradient routing."""
        rng = np.random.default_rng(1000 + seed)
        n, c, h, w, kernel, stride, padding = random_geometry(rng)
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        cols = im2col(x, kernel, stride, padding)
        y = rng.standard_normal(cols.shape).astype(dtype)
        lhs = float(np.vdot(cols.astype(np.float64), y.astype(np.float64)))
        back = col2im(y, x.shape, kernel, stride, padding)
        rhs = float(np.vdot(x.astype(np.float64), back.astype(np.float64)))
        assert lhs == pytest.approx(rhs, rel=tolerance(dtype), abs=tolerance(dtype))

    def test_round_trip_recovers_multiplicity_weighted_input(self, seed, dtype):
        """col2im(im2col(x)) == x * (times each pixel appears in a window)."""
        rng = np.random.default_rng(2000 + seed)
        n, c, h, w, kernel, stride, padding = random_geometry(rng)
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        counts = col2im(
            im2col(np.ones_like(x), kernel, stride, padding),
            x.shape, kernel, stride, padding,
        )
        back = col2im(
            im2col(x, kernel, stride, padding), x.shape, kernel, stride, padding
        )
        np.testing.assert_allclose(back, x * counts, atol=tolerance(dtype))
        if stride >= kernel and padding == 0:
            # Non-overlapping windows (the vectorized strided-view path):
            # every window-covered pixel appears exactly once.
            h_cov = kernel + stride * (conv_output_size(h, kernel, stride) - 1)
            w_cov = kernel + stride * (conv_output_size(w, kernel, stride) - 1)
            covered = counts[:, :, :h_cov, :w_cov]
            if stride == kernel:
                assert np.all(covered == 1.0)
            else:
                assert set(np.unique(covered)) <= {0.0, 1.0}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("seed", SEEDS)
class TestPoolingAdjoints:
    def build_pool(self, cls, rng, c, h, w):
        window = int(rng.integers(1, 4))
        stride = int(rng.integers(window, 4))  # non-overlapping or matched
        pool = cls(window, stride=stride)
        pool.build((c, h, w), rng)
        return pool

    def test_avg_pool_backward_is_exact_adjoint(self, seed, dtype):
        """AvgPool forward is linear: <P x, g> == <x, P^T g> exactly."""
        rng = np.random.default_rng(3000 + seed)
        n, c, h, w, *_ = random_geometry(rng)
        pool = self.build_pool(AvgPool2D, rng, c, h, w)
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        out = pool.forward(x, training=True)
        g = rng.standard_normal(out.shape).astype(dtype)
        dx = pool.backward(g)
        lhs = float(np.vdot(out.astype(np.float64), g.astype(np.float64)))
        rhs = float(np.vdot(x.astype(np.float64), dx.astype(np.float64)))
        assert lhs == pytest.approx(rhs, rel=tolerance(dtype), abs=tolerance(dtype))
        assert dx.shape == x.shape

    def test_avg_pool_forward_matches_naive_window_mean(self, seed, dtype):
        rng = np.random.default_rng(4000 + seed)
        n, c, h, w, *_ = random_geometry(rng)
        pool = self.build_pool(AvgPool2D, rng, c, h, w)
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        out = pool.forward(x)
        naive = sliding_windows(x, pool.window, pool.stride).mean(axis=(-2, -1))
        np.testing.assert_allclose(out, naive, atol=tolerance(dtype))

    def test_max_pool_forward_inference_matches_training(self, seed, dtype):
        """The slice-accumulated inference max equals the argmax-tracking
        training forward for every geometry."""
        rng = np.random.default_rng(5000 + seed)
        n, c, h, w, *_ = random_geometry(rng)
        pool = self.build_pool(MaxPool2D, rng, c, h, w)
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        np.testing.assert_array_equal(
            pool.forward(x, training=False), pool.forward(x, training=True)
        )

    def test_max_pool_backward_routes_to_argmax_only(self, seed, dtype):
        rng = np.random.default_rng(6000 + seed)
        n, c, h, w, *_ = random_geometry(rng)
        pool = self.build_pool(MaxPool2D, rng, c, h, w)
        # Continuous draws: argmax ties have probability zero.
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        out = pool.forward(x, training=True)
        g = rng.standard_normal(out.shape).astype(dtype)
        dx = pool.backward(g)
        # Mass is preserved exactly (each window's gradient lands once)...
        mass_tol = 1e-3 if dtype == np.float32 else 1e-10
        assert float(dx.sum()) == pytest.approx(
            float(g.sum()), rel=tolerance(dtype), abs=mass_tol
        )
        # ...and only at positions that are some window's max (their input
        # value appears verbatim in the forward output).
        nonzero = np.argwhere(dx != 0)
        for ni, ci, hi, wi in nonzero[: min(len(nonzero), 16)]:
            assert np.any(out[ni, ci] == x[ni, ci, hi, wi])

    def test_backward_without_forward_rejected(self, seed, dtype):
        rng = np.random.default_rng(7000 + seed)
        _, c, h, w, *_ = random_geometry(rng)
        pool = self.build_pool(MaxPool2D, rng, c, h, w)
        with pytest.raises(ShapeError, match="backward"):
            pool.backward(np.zeros((1, *pool.output_shape), dtype=dtype))
