"""Tests for the experiment harness: every table/figure runs at tiny scale
and produces structurally sound, renderable results."""

import hashlib
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.bench import run_benchmarks
from repro.errors import ConfigurationError
from repro.experiments import (
    common,
    fig5_ops,
    fig6_energy,
    fig7_accuracy_stages,
    fig8_difficulty,
    fig9_stage_sweep,
    fig10_delta_sweep,
    table3_accuracy,
    table4_examples,
)
from repro.experiments.common import (
    Scale,
    get_datasets,
    get_trained,
    get_validation_set,
    holding_datasets,
)
from repro.experiments.runner import ALL_EXPERIMENTS, run_all
from repro.experiments.table4_examples import image_to_ascii
from repro.nn.compute import active_policy, compute_policy


@pytest.fixture
def synthesized(monkeypatch):
    """``make_dataset_pair`` calls per dataset key, counted on an empty
    dataset cache outside the session's holding scope."""
    calls = Counter()
    make_pair = common.make_dataset_pair

    def counting(num_train, num_test, *, rng):
        calls[(num_train, num_test, rng, active_policy().dtype_name)] += 1
        return make_pair(num_train, num_test, rng=rng)

    monkeypatch.setattr(common, "make_dataset_pair", counting)
    monkeypatch.setattr(common, "_dataset_cache", {})
    monkeypatch.setattr(common, "_held", None)
    return calls


#: Small enough that synthesizing and training on it takes a moment.
MINI = Scale(num_train=40, num_test=20, baseline_epochs=1)


def _digest(pair) -> str:
    sha = hashlib.sha256()
    for dataset in pair:
        for array in (dataset.images, dataset.labels, dataset.difficulty):
            sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


class TestScale:
    def test_presets(self):
        assert Scale.tiny().num_train < Scale.small().num_train < Scale.full().num_train

    def test_invalid_raises(self):
        with pytest.raises(ConfigurationError):
            Scale(num_train=0)


class TestCommon:
    def test_dataset_cache_returns_same_object(self, tiny_scale):
        a = get_datasets(tiny_scale, seed=7)
        b = get_datasets(tiny_scale, seed=7)
        assert a[0] is b[0]

    def test_dataset_cache_holds_one_entry_per_dtype(self, tiny_scale):
        with compute_policy("float64"):
            pair64 = get_datasets(tiny_scale, seed=7)
        with compute_policy("float32"):
            pair32 = get_datasets(tiny_scale, seed=7)
            assert get_datasets(tiny_scale, seed=7)[0] is pair32[0]
        with compute_policy("float64"):
            assert get_datasets(tiny_scale, seed=7)[0] is pair64[0]
        for got, want in zip(pair32, pair64):
            assert want.images.dtype == np.float64
            assert got.images.dtype == np.float32
            np.testing.assert_array_equal(got.images, want.images.astype(np.float32))
            np.testing.assert_array_equal(got.labels, want.labels)
            np.testing.assert_array_equal(got.difficulty, want.difficulty)

    def test_dropped_pair_is_freed_and_rebuilt_bit_identical(
        self, synthesized, monkeypatch
    ):
        monkeypatch.setattr(common, "_trained_cache", {})
        pair = get_datasets(MINI, seed=3)
        digest = _digest(pair)
        assert get_datasets(MINI, seed=3)[0] is pair[0]
        # Training reads the held pair and keeps no reference to it.
        get_trained("mnist_3c", MINI, seed=3)
        refs = [weakref.ref(dataset) for dataset in pair]
        del pair
        assert [ref() for ref in refs] == [None, None]
        assert _digest(get_datasets(MINI, seed=3)) == digest
        assert list(synthesized.values()) == [2]

    def test_validation_set_is_held_and_rebuilt_bit_identical(self, monkeypatch):
        calls = Counter()
        generate = common.generate_synthetic_mnist

        def counting(size, *, rng, name):
            calls[(size, rng, active_policy().dtype_name)] += 1
            return generate(size, rng=rng, name=name)

        monkeypatch.setattr(common, "generate_synthetic_mnist", counting)
        monkeypatch.setattr(common, "_dataset_cache", {})
        monkeypatch.setattr(common, "_held", None)
        validation = get_validation_set(20, seed=5)
        digest = _digest([validation])
        # The digits table3_accuracy synthesized inline before it cached them.
        assert digest == _digest([generate(20, rng=5, name="table3-validation")])
        assert get_validation_set(20, seed=5) is validation
        ref = weakref.ref(validation)
        del validation
        assert ref() is None
        with holding_datasets():
            assert _digest([get_validation_set(20, seed=5)]) == digest
            assert _digest([get_validation_set(20, seed=5)]) == digest
        assert list(calls.values()) == [2]

    def test_holding_scope_keeps_pairs_until_it_exits(self, synthesized):
        with holding_datasets():
            refs = [weakref.ref(dataset) for dataset in get_datasets(MINI, seed=3)]
            with holding_datasets():
                get_datasets(MINI, seed=3)
            # The outer scope still holds what the inner one fetched.
            assert None not in [ref() for ref in refs]
        assert [ref() for ref in refs] == [None, None]
        assert list(synthesized.values()) == [1]

    def test_run_benchmarks_synthesizes_each_pair_once(self, synthesized):
        # A tier-scale spec and one fixed at Scale.tiny(), which share a pair.
        run_benchmarks(
            ["serving_delta_budget", "serving_slo_tiny"], tier="tiny",
            rounds=1, warmup_rounds=0,
        )
        assert list(synthesized.values()) == [1]

    def test_loadgen_cli_synthesizes_its_pair_once(
        self, synthesized, monkeypatch, capsys
    ):
        from repro.serving.loadgen import main

        monkeypatch.setattr(common, "_trained_cache", {})
        assert main([
            "run", "--mode", "sim", "--rate", "50", "--duration", "0.5",
            "--slo-p99", "0.5",
        ]) == 0
        assert "throughput @ SLO" in capsys.readouterr().out
        assert list(synthesized.values()) == [1]

    def test_trained_cache_returns_same_object(self, tiny_scale):
        a = get_trained("mnist_3c", tiny_scale, seed=7)
        b = get_trained("mnist_3c", tiny_scale, seed=7)
        assert a is b

    def test_unknown_architecture_raises(self, tiny_scale):
        with pytest.raises(ConfigurationError):
            get_trained("lenet5", tiny_scale)

    def test_bad_attach_raises(self, tiny_scale):
        with pytest.raises(ConfigurationError):
            get_trained("mnist_3c", tiny_scale, attach="some")


class TestFig5(object):
    def test_structure(self, tiny_scale):
        result = fig5_ops.run(tiny_scale, seed=7)
        assert result.improvement_2c.shape == (10,)
        assert result.improvement_3c.shape == (10,)
        assert result.average_2c > 1.0
        assert result.average_3c > 1.0
        assert "Fig. 5" in result.render()


class TestFig6:
    def test_structure(self, tiny_scale):
        result = fig6_energy.run(tiny_scale, seed=7)
        assert result.average_2c > 1.0
        assert result.average_3c > 1.0
        # Energy gain below OPS gain (the paper's overhead effect).
        assert result.average_2c < result.ops_average_2c
        assert result.average_3c < result.ops_average_3c
        assert "Fig. 6" in result.render()


class TestTable3:
    def test_structure(self, tiny_scale):
        result = table3_accuracy.run(tiny_scale, seed=7)
        for value in (
            result.baseline_2c, result.cdln_2c, result.baseline_3c, result.cdln_3c
        ):
            assert 0.0 <= value <= 1.0
        assert "Table III" in result.render()


class TestFig7:
    def test_structure(self, tiny_scale):
        result = fig7_accuracy_stages.run(tiny_scale, seed=7)
        assert len(result.configurations) == 3
        assert result.configurations[0] == "O1-FC"
        assert result.configurations[-1] == "O1-O2-O3-FC"
        # More stages never increases FC traffic.
        fractions = result.final_stage_fractions
        assert all(b <= a + 1e-9 for a, b in zip(fractions, fractions[1:]))
        assert "Fig. 7" in result.render()


class TestFig8:
    def test_structure(self, tiny_scale):
        result = fig8_difficulty.run(tiny_scale, seed=7)
        assert result.digit_order.shape == (10,)
        # The ordering is by decreasing benefit.
        imp = result.energy_improvement
        assert all(b <= a + 1e-9 for a, b in zip(imp, imp[1:]))
        assert result.easiest_digit != result.hardest_digit
        assert "Fig. 8" in result.render()

    def test_difficulty_quintiles_decrease(self, tiny_scale):
        """Energy benefit must fall as generation difficulty rises: the
        first quintile beats the last."""
        result = fig8_difficulty.run(tiny_scale, seed=7)
        q = result.quintile_energy_improvement
        assert q[0] > q[-1]


class TestFig9:
    def test_structure(self, tiny_scale):
        result = fig9_stage_sweep.run(tiny_scale, seed=7)
        assert len(result.configurations) == 3
        assert 1 <= result.break_even_stage_count <= 3
        assert (result.normalized_ops > 0).all()
        assert "Fig. 9" in result.render()


class TestFig10:
    def test_structure(self, tiny_scale):
        result = fig10_delta_sweep.run(tiny_scale, seed=7)
        assert result.deltas.shape == result.accuracies.shape
        assert result.deltas.shape == result.normalized_ops.shape
        assert 0.0 <= result.best_delta <= 1.0
        assert "Fig. 10" in result.render()

    def test_delta_moves_ops(self, tiny_scale):
        """The knob must actually modulate cost: OPS at the extremes of the
        sweep must differ."""
        result = fig10_delta_sweep.run(tiny_scale, seed=7)
        assert result.normalized_ops.max() > result.normalized_ops.min()


class TestTable4:
    def test_structure(self, tiny_scale):
        result = table4_examples.run(tiny_scale, seed=7)
        assert result.digits == (1, 5)
        assert any(v is not None for v in result.examples.values())
        assert "Table IV" in result.render()

    def test_ascii_rendering(self):
        image = np.zeros((28, 28))
        image[10, :] = 1.0
        art = image_to_ascii(image)
        lines = art.splitlines()
        assert len(lines) == 28
        assert "@" in lines[10]
        assert "@" not in lines[0]


class TestRunner:
    def test_registry_covers_every_table_and_figure(self):
        names = [name for name, _ in ALL_EXPERIMENTS]
        assert names == [
            "Table III", "Fig. 5", "Fig. 6", "Fig. 7",
            "Fig. 8", "Fig. 9", "Fig. 10", "Table IV", "Robustness",
        ]

    def test_run_all_tiny(self, tiny_scale, synthesized):
        results = run_all(tiny_scale, seed=7)
        assert set(results) == {name for name, _ in ALL_EXPERIMENTS}
        for result in results.values():
            assert isinstance(result.render(), str)
        assert list(synthesized.values()) == [1]
