"""Compute policy, dtype parity and the stage-score cache."""

import copy
import gc
import tracemalloc

import numpy as np
import pytest

from repro.cdl import CDLN, mnist_3c
from repro.cdl.score_cache import StageScoreCache
from repro.cdl.statistics import evaluate_cached, evaluate_cdln
from repro.errors import ConfigurationError
from repro.nn import (
    ComputePolicy,
    Conv2D,
    Dense,
    Network,
    active_policy,
    compute_policy,
    load_network,
    save_network,
)
from repro.nn.compute import resolve_dtype
from repro.nn.layers import AvgPool2D, Flatten, MaxPool2D
from repro.nn.network import BLOCK_ROWS
from repro.nn.tensor_ops import col2im, one_hot

RNG = np.random.default_rng(0)


class TestComputePolicy:
    def test_default_matches_environment(self):
        import os

        policy = active_policy()
        expected = os.environ.get("REPRO_COMPUTE_DTYPE", "float64")
        assert policy.dtype == np.dtype(expected)

    def test_context_override_and_restore(self):
        outer = active_policy()
        with compute_policy(dtype="float32") as policy:
            assert policy.dtype == np.float32
            assert active_policy().dtype == np.float32
        assert active_policy().dtype == outer.dtype

    def test_nested_overrides(self):
        with compute_policy(dtype="float32"):
            # An unset dtype inherits the surrounding policy.
            with compute_policy():
                assert active_policy().dtype == np.float32
            with compute_policy(dtype="float64"):
                assert active_policy().dtype == np.float64
            assert active_policy().dtype == np.float32

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(ConfigurationError):
            ComputePolicy(dtype="float16")
        with pytest.raises(ConfigurationError):
            resolve_dtype(np.int32)

    def test_resolve_dtype_none_follows_policy(self):
        with compute_policy(dtype="float32"):
            assert resolve_dtype(None) == np.float32

    def test_cast_is_noop_for_matching_dtype(self):
        x = np.ones(3, dtype=active_policy().dtype)
        assert active_policy().cast(x) is x


class TestPolicyThreading:
    def test_initializers_follow_policy(self):
        with compute_policy(dtype="float32"):
            net = Network(
                [Conv2D(2, 3), Flatten(), Dense(4)], input_shape=(1, 6, 6), rng=0
            )
        assert net.dtype == np.float32
        for layer in net.layers:
            for param in layer.params.values():
                assert param.dtype == np.float32

    def test_forward_follows_param_dtype(self):
        with compute_policy(dtype="float32"):
            net = Network([Flatten(), Dense(4)], input_shape=(1, 3, 3), rng=0)
        out = net.forward(RNG.random((2, 1, 3, 3)))  # float64 input
        assert out.dtype == np.float32

    def test_astype_round_trip(self):
        net = Network([Flatten(), Dense(4)], input_shape=(1, 3, 3), rng=0)
        original = net.layers[1].params["weight"].copy()
        net.astype(np.float32)
        assert net.dtype == np.float32
        net.astype(np.float64)
        # float64 -> float32 -> float64 keeps the float32 rounding...
        np.testing.assert_allclose(
            net.layers[1].params["weight"], original, rtol=1e-6
        )

    def test_network_pickle_and_deepcopy_round_trip(self):
        import pickle

        net = Network(
            [Conv2D(2, 3), Flatten(), Dense(4)], input_shape=(1, 6, 6), rng=0
        )
        x = RNG.random((2, 1, 6, 6))
        expected = net.forward(x)
        revived = pickle.loads(pickle.dumps(net))
        np.testing.assert_array_equal(revived.forward(x), expected)
        np.testing.assert_array_equal(copy.deepcopy(net).forward(x), expected)

    def test_one_hot_dtype(self):
        assert one_hot(np.array([0, 1]), 3).dtype == np.float64
        assert one_hot(np.array([0, 1]), 3, dtype=np.float32).dtype == np.float32

    def test_serialization_respects_policy(self, tmp_path):
        with compute_policy(dtype="float32"):
            net = Network([Flatten(), Dense(4)], input_shape=(1, 3, 3), rng=0)
            path = save_network(net, tmp_path / "ckpt.npz")
            # Lossless float32 round-trip under a float32 policy.
            loaded = load_network(path)
            assert loaded.dtype == np.float32
            np.testing.assert_array_equal(
                loaded.layers[1].params["weight"], net.layers[1].params["weight"]
            )
        # Under a float64 policy the same checkpoint loads as float64.
        with compute_policy(dtype="float64"):
            loaded64 = load_network(path)
            assert loaded64.dtype == np.float64


class TestZeroCopySubstrate:
    def test_col2im_nonoverlap_matches_loop(self):
        # stride >= kernel takes the vectorized strided-view path; the
        # overlapping geometry takes the accumulation loop.  Their adjoint
        # semantics must agree where both apply (disjoint windows sum once).
        x_shape = (2, 3, 8, 8)
        cols = RNG.random((2 * 4 * 4, 3 * 2 * 2))
        fast = col2im(cols, x_shape, 2, 2)
        blocks = cols.reshape(2, 4, 4, 3, 2, 2).transpose(0, 3, 1, 2, 4, 5)
        naive = np.zeros(x_shape)
        for i in range(2):
            for j in range(2):
                naive[:, :, i::2, j::2] += blocks[:, :, :, :, i, j]
        np.testing.assert_array_equal(fast, naive)

    def test_inference_forward_between_training_forward_and_backward(self):
        # An inference pass interleaved between a training forward and its
        # backward (mid-step validation) must not clobber the cached
        # im2col columns, nor the input and max the pooling backward
        # routes by.
        def grads_for(interleave: bool):
            conv, pool = Conv2D(2, 3), MaxPool2D(2)
            pool.build(conv.build((1, 7, 7), np.random.default_rng(5)), None)
            x = np.random.default_rng(6).random((2, 1, 7, 7))
            out = pool.forward(conv.forward(x, training=True), training=True)
            if interleave:
                other = np.random.default_rng(7).random((4, 1, 7, 7))
                pool.forward(conv.forward(other))
            dx = conv.backward(pool.backward(np.ones_like(out)))
            return conv.grads["weight"].copy(), dx.copy()

        for quiet, interleaved in zip(grads_for(False), grads_for(True)):
            np.testing.assert_array_equal(quiet, interleaved)

    def test_avgpool_overlapping_backward_matches_adjoint(self):
        # stride < window exercises the accumulation fallback.
        layer = AvgPool2D(3, stride=1)
        layer.build((1, 5, 5), None)
        x = RNG.random((1, 1, 5, 5))
        layer.forward(x, training=True)
        grad = RNG.random((1, 1, 3, 3))
        dx = layer.backward(grad)
        naive = np.zeros_like(x)
        for i in range(3):
            for j in range(3):
                naive[0, 0, i : i + 3, j : j + 3] += grad[0, 0, i, j] / 9.0
        np.testing.assert_allclose(dx, naive, rtol=1e-12)


def float32_3c(rows: int) -> tuple[Network, CDLN, np.ndarray]:
    """An untrained float32 MNIST_3C, a CDLN over it and ``rows`` images."""
    with compute_policy(dtype="float32"):
        net, spec = mnist_3c(rng=0)
    x = RNG.random((rows, *net.input_shape)).astype(np.float32)
    cdln = CDLN(net, spec.attach_indices).fit_linear_classifiers(
        x[:32], np.arange(32) % 10
    )
    return net, cdln, x


class TestNoPersistentScratch:
    """Inference allocates per call: a predict leaves nothing resident."""

    ROWS = 512

    @staticmethod
    def traced_growth(call) -> int:
        """Bytes still traced after ``call()`` returns (its result dropped)."""
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            call()
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    def test_network_predict_keeps_no_scratch(self):
        net, _, x = float32_3c(self.ROWS)
        grown = self.traced_growth(lambda: net.predict(x))
        assert grown < 2**20, f"predict left {grown / 2**20:.1f} MB resident"

    def test_cdln_predict_keeps_no_scratch(self):
        _, cdln, x = float32_3c(self.ROWS)
        grown = self.traced_growth(lambda: cdln.predict(x, delta=0.6))
        assert grown < 2**20, f"predict left {grown / 2**20:.1f} MB resident"


class TestBlockedInference:
    """Inference runs ``BLOCK_ROWS`` images at a time into per-batch arrays."""

    ROWS = 512

    @staticmethod
    def traced_peak(call) -> int:
        """Peak bytes traced while ``call()`` runs."""
        gc.collect()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_network_predict_peak_is_bounded_by_the_block(self):
        # Whole-batch temporaries peaked at 19.9 MB: C1's im2col columns
        # alone take 12.5 MB for 512 float32 images.
        net, _, x = float32_3c(self.ROWS)
        peak = self.traced_peak(lambda: net.predict(x))
        assert peak < 4 * 2**20, f"predict peaked at {peak / 2**20:.1f} MB"

    def test_cdln_predict_peak_is_bounded_by_the_block(self):
        _, cdln, x = float32_3c(self.ROWS)
        peak = self.traced_peak(lambda: cdln.predict(x, delta=0.6))
        assert peak < 4 * 2**20, f"predict peaked at {peak / 2**20:.1f} MB"

    def test_ragged_batch_matches_each_block_alone(self, trained_3c, tiny_test_set):
        net = trained_3c.baseline
        x = tiny_test_set.images[:70]
        blocks = [x[i : i + BLOCK_ROWS] for i in range(0, x.shape[0], BLOCK_ROWS)]
        assert [b.shape[0] for b in blocks] == [32, 32, 6]

        def assert_same_bits(whole, parts):
            joined = np.concatenate(parts)
            assert whole.dtype == joined.dtype and whole.shape == joined.shape
            assert whole.tobytes() == joined.tobytes()

        assert_same_bits(net.predict(x), [net.predict(b) for b in blocks])
        mid = net.run_segment(x, 0, 3)
        assert_same_bits(mid, [net.run_segment(b, 0, 3) for b in blocks])
        assert_same_bits(
            net.run_segment(mid, 3),
            [net.run_segment(b, 3) for b in np.split(mid, [32, 64])],
        )
        taps = (1, 3)
        out, acts = net.forward_collect(x, taps)
        parts = [net.forward_collect(b, taps) for b in blocks]
        assert_same_bits(out, [part[0] for part in parts])
        for tap in taps:
            assert_same_bits(acts[tap], [part[1][tap] for part in parts])


class TestDtypeParity:
    def test_float32_predict_agrees_with_float64(self, trained_3c, tiny_test_set):
        cdln64 = trained_3c.cdln
        cdln32 = copy.deepcopy(cdln64).astype(np.float32)
        r64 = cdln64.predict(tiny_test_set.images, delta=0.6)
        r32 = cdln32.predict(tiny_test_set.images, delta=0.6)
        np.testing.assert_array_equal(r64.labels, r32.labels)
        np.testing.assert_allclose(r64.confidences, r32.confidences, atol=1e-4)

    def test_float32_training_reaches_float64_accuracy(self, tiny_scale):
        from repro.experiments.common import get_datasets, get_trained

        _, test = get_datasets(tiny_scale, seed=7)
        acc64 = float(
            np.mean(
                get_trained("mnist_3c", tiny_scale, seed=7).baseline.predict_labels(
                    test.images
                )
                == test.labels
            )
        )
        with compute_policy(dtype="float32"):
            trained32 = get_trained("mnist_3c", tiny_scale, seed=7)
            assert trained32.baseline.dtype == np.float32
            acc32 = float(
                np.mean(
                    trained32.baseline.predict_labels(test.images) == test.labels
                )
            )
        assert abs(acc64 - acc32) < 0.05


class TestStageScoreCache:
    def test_replay_matches_naive_evaluate_exactly(self, trained_3c, tiny_test_set):
        cdln = trained_3c.cdln
        cache = StageScoreCache.build(cdln, tiny_test_set.images)
        # The naive path scores shrinking active subsets, the cache scores
        # full batches; in float64 the two agree exactly, in float32 BLAS
        # rounding may tie-break a borderline input or two differently.
        float64 = cdln.baseline.dtype == np.float64
        for delta in (0.2, 0.4, 0.6, 0.8):
            naive = evaluate_cdln(cdln, tiny_test_set, delta=delta)
            fast = evaluate_cached(cache, tiny_test_set, delta=delta)
            if float64:
                np.testing.assert_array_equal(
                    naive.result.labels, fast.result.labels
                )
                np.testing.assert_array_equal(
                    naive.result.exit_stages, fast.result.exit_stages
                )
                assert naive.ops.average_ops == fast.ops.average_ops
                assert naive.accuracy == fast.accuracy
                np.testing.assert_allclose(
                    naive.result.confidences, fast.result.confidences, atol=1e-12
                )
            else:
                assert np.sum(naive.result.labels != fast.result.labels) <= 2
                assert np.sum(naive.result.exit_stages != fast.result.exit_stages) <= 2
                np.testing.assert_allclose(
                    naive.ops.average_ops, fast.ops.average_ops, rtol=1e-2
                )

    def test_subset_replay_matches_clone(self, trained_3c_all_taps, tiny_test_set):
        cdln = trained_3c_all_taps.cdln
        cache = StageScoreCache.build(cdln, tiny_test_set.images)
        names = [s.name for s in cdln.linear_stages]
        for count in range(len(names) + 1):
            subset = names[:count]
            naive = cdln.clone_with_stages(subset).predict(
                tiny_test_set.images, delta=0.6
            )
            fast = cache.replay(0.6, stages=subset)
            np.testing.assert_array_equal(naive.labels, fast.labels)
            np.testing.assert_array_equal(naive.exit_stages, fast.exit_stages)

    def test_max_stage_matches_executor(self, trained_3c_all_taps, tiny_test_set):
        from repro.serving.cascade import execute_cascade

        cdln = trained_3c_all_taps.cdln
        cache = StageScoreCache.build(cdln, tiny_test_set.images)
        naive = execute_cascade(cdln, tiny_test_set.images, 0.6, max_stage=1)
        fast = cache.replay(0.6, max_stage=1)
        np.testing.assert_array_equal(naive.labels, fast.labels)
        np.testing.assert_array_equal(naive.exit_stages, fast.exit_stages)
        assert fast.exit_stages.max() <= 1

    def test_policy_override_matches_swapped_module(
        self, trained_3c, tiny_test_set
    ):
        from repro.cdl.confidence import ActivationModule

        cdln = trained_3c.cdln
        cache = StageScoreCache.build(cdln, tiny_test_set.images)
        module = ActivationModule(delta=0.6, policy="max_probability")
        original = cdln.activation_module
        cdln.activation_module = module
        try:
            naive = cdln.predict(tiny_test_set.images, delta=0.6)
        finally:
            cdln.activation_module = original
        fast = cache.replay(0.6, activation_module=module)
        np.testing.assert_array_equal(naive.labels, fast.labels)
        np.testing.assert_array_equal(naive.exit_stages, fast.exit_stages)

    def test_empty_build_is_well_formed_and_unknown_stage_rejected(
        self, trained_3c, tiny_test_set
    ):
        # An empty sample yields an empty (but fully functional) cache; the
        # degenerate-input contract lives in tests/test_serving.py too.
        empty = StageScoreCache.build(trained_3c.cdln, tiny_test_set.images[:0])
        assert empty.num_inputs == 0
        assert empty.replay(0.6).labels.shape == (0,)
        cache = StageScoreCache.build(trained_3c.cdln, tiny_test_set.images[:8])
        with pytest.raises(ConfigurationError):
            cache.scores_for("nope")

    def test_evaluate_cached_rejects_size_mismatch(self, trained_3c, tiny_test_set):
        cache = StageScoreCache.build(trained_3c.cdln, tiny_test_set.images[:16])
        with pytest.raises(ConfigurationError):
            evaluate_cached(cache, tiny_test_set, delta=0.6)
