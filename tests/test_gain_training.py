"""Tests for the gain criterion, stage admission, and Algorithm 1."""

import numpy as np
import pytest

from repro.cdl.architectures import ARCHITECTURES, build_architecture, mnist_2c, mnist_3c
from repro.cdl.gain import (
    AdmissionResult,
    admit_stages,
    evaluate_stage_gains,
    render_gain_table,
    stage_gain,
)
from repro.cdl.statistics import evaluate_baseline_accuracy, evaluate_cdln
from repro.cdl.training import CdlTrainingConfig, train_cdln
from repro.errors import ConfigurationError
from repro.nn import Adam, Trainer


class TestStageGainFormula:
    def test_pure_savings(self):
        # Everything classified at a stage costing half the baseline.
        assert stage_gain(100.0, 50.0, classified=10, reached=10) == 500.0

    def test_pure_penalty(self):
        # Nothing classified: gain is the overhead on every forwarded input.
        assert stage_gain(100.0, 50.0, classified=0, reached=10) == -500.0

    def test_break_even(self):
        # (100-50)*5 - 50*5 == 0
        assert stage_gain(100.0, 50.0, classified=5, reached=10) == 0.0

    def test_invalid_counts_raise(self):
        with pytest.raises(ConfigurationError):
            stage_gain(100.0, 50.0, classified=5, reached=3)
        with pytest.raises(ConfigurationError):
            stage_gain(100.0, 50.0, classified=-1, reached=3)


class TestEvaluateStageGains:
    def test_diagnostics_flow_conservation(self, trained_3c_all_taps, tiny_test_set):
        gains = evaluate_stage_gains(
            trained_3c_all_taps.cdln, tiny_test_set.images, delta=0.6
        )
        assert gains[0].reached == len(tiny_test_set)
        for prev, nxt in zip(gains, gains[1:]):
            assert nxt.reached == prev.reached - prev.classified

    def test_render_table(self, trained_3c_all_taps, tiny_test_set):
        gains = evaluate_stage_gains(
            trained_3c_all_taps.cdln, tiny_test_set.images[:50], delta=0.6
        )
        text = render_gain_table(gains)
        for gain in gains:
            assert gain.stage_name in text


class TestAdmission:
    def test_keeps_first_stage(self, trained_3c_all_taps, tiny_test_set):
        cdln = trained_3c_all_taps.cdln.clone_with_stages(
            [s.name for s in trained_3c_all_taps.cdln.linear_stages]
        )
        result = admit_stages(cdln, tiny_test_set.images, delta=0.6)
        assert "O1" in result.kept

    def test_huge_epsilon_drops_all_but_first(self, trained_3c_all_taps, tiny_test_set):
        cdln = trained_3c_all_taps.cdln.clone_with_stages(
            [s.name for s in trained_3c_all_taps.cdln.linear_stages]
        )
        result = admit_stages(
            cdln, tiny_test_set.images, epsilon=1e12, delta=0.6
        )
        assert result.kept == ["O1"]
        assert set(result.dropped) == {"O2", "O3"}

    def test_kept_stages_have_positive_gain(self, trained_3c_all_taps, tiny_test_set):
        cdln = trained_3c_all_taps.cdln.clone_with_stages(
            [s.name for s in trained_3c_all_taps.cdln.linear_stages]
        )
        result = admit_stages(cdln, tiny_test_set.images, delta=0.6)
        for diag in result.diagnostics:
            if diag.kept and diag.stage_name != "O1":
                assert diag.gain > 0

    def test_render(self, trained_3c_all_taps, tiny_test_set):
        cdln = trained_3c_all_taps.cdln.clone_with_stages(
            [s.name for s in trained_3c_all_taps.cdln.linear_stages]
        )
        result = admit_stages(cdln, tiny_test_set.images[:50], delta=0.6)
        text = result.render()
        assert "stage" in text and ("keep" in text or "drop" in text)


class TestArchitectures:
    def test_table1_geometry(self):
        """Table I: 28x28 -> C1 24x24x6 -> P1 12x12x6 -> C2 8x8x12 ->
        P2 4x4x12 -> FC 10."""
        net, spec = mnist_2c(rng=0)
        shapes = [s for _, _, s in net.layer_shapes()]
        assert shapes[0] == (6, 24, 24)
        assert shapes[1] == (6, 12, 12)
        assert shapes[2] == (12, 8, 8)
        assert shapes[3] == (12, 4, 4)
        assert shapes[-1] == (10,)
        assert spec.attach_indices == (1,)

    def test_table2_geometry(self):
        """Table II: 28x28 -> C1 26x26x3 -> P1 13x13x3 -> C2 10x10x6 ->
        P2 5x5x6 -> C3 3x3x9 -> P3 3x3x9 -> FC 10."""
        net, spec = mnist_3c(rng=0)
        shapes = [s for _, _, s in net.layer_shapes()]
        assert shapes[0] == (3, 26, 26)
        assert shapes[1] == (3, 13, 13)
        assert shapes[2] == (6, 10, 10)
        assert shapes[3] == (6, 5, 5)
        assert shapes[4] == (9, 3, 3)
        assert shapes[5] == (9, 3, 3)
        assert shapes[-1] == (10,)
        assert spec.attach_indices == (1, 3)
        assert spec.all_tap_indices == (1, 3, 5)

    @pytest.mark.parametrize("name", ["mnist_2c", "mnist_3c"])
    def test_forward_pass_scores_ten_classes_and_trains(self, name):
        """A forward pass gives one score per digit class, and one training
        epoch records one epoch of finite loss."""
        net, _ = build_architecture(name, rng=0)
        rng = np.random.default_rng(0)
        images = rng.random((16, 1, 28, 28))
        scores = net.predict(images)
        assert scores.shape == (16, 10) and np.isfinite(scores).all()
        trainer = Trainer(
            net, loss="softmax_cross_entropy", optimizer=Adam(0.005), rng=0
        )
        history = trainer.fit(images, rng.integers(0, 10, 16), epochs=1)
        assert len(history.epochs) == 1
        assert np.isfinite(history.epochs[0].train_loss)

    def test_layer_names_match_paper(self):
        net, _ = mnist_3c(rng=0)
        names = [layer.name for layer in net.layers]
        assert names == ["C1", "P1", "C2", "P2", "C3", "P3", "flatten", "FC"]

    def test_paper_recipe_activations(self):
        net, _ = mnist_3c(rng=0, recipe="paper")
        assert net.layers[0].activation.name == "sigmoid"
        assert net.layers[-1].activation.name == "sigmoid"

    def test_modern_recipe_activations(self):
        net, _ = mnist_3c(rng=0, recipe="modern")
        assert net.layers[0].activation.name == "relu"
        assert net.layers[-1].activation.name == "softmax"

    def test_unknown_architecture_raises(self):
        with pytest.raises(ConfigurationError):
            build_architecture("mnist_9c")

    def test_unknown_recipe_raises(self):
        with pytest.raises(ConfigurationError):
            mnist_2c(rng=0, recipe="quantum")

    def test_registry_complete(self):
        assert set(ARCHITECTURES) == {"mnist_2c", "mnist_3c"}


class TestTrainCdln:
    def test_end_to_end_produces_working_cascade(self, trained_3c, tiny_test_set):
        assert trained_3c.cdln.is_fitted
        ev = evaluate_cdln(trained_3c.cdln, tiny_test_set, delta=0.6)
        # Even at tiny scale the cascade must clearly beat chance and
        # save operations.
        assert ev.accuracy > 0.5
        assert ev.ops_improvement > 1.0

    def test_admission_recorded(self, trained_3c):
        assert isinstance(trained_3c.admission, AdmissionResult)
        assert "O1" in trained_3c.admission.kept

    def test_baseline_history_populated(self, trained_3c):
        assert len(trained_3c.baseline_history.epochs) >= 1

    def test_pretrained_baseline_reused(self, trained_3c, tiny_datasets):
        train, _ = tiny_datasets
        config = CdlTrainingConfig(
            architecture="mnist_3c", baseline_epochs=1, gain_epsilon=None
        )
        result = train_cdln(
            train, config=config, baseline=trained_3c.baseline, rng=0
        )
        assert result.baseline is trained_3c.baseline
        assert len(result.baseline_history.epochs) == 0

    def test_bad_architecture_in_config_raises(self):
        with pytest.raises(ConfigurationError):
            CdlTrainingConfig(architecture="lenet")

    def test_cdln_accuracy_not_worse_than_baseline_margin(
        self, trained_3c, tiny_test_set
    ):
        """Table III shape, with tiny-scale tolerance: the CDLN must stay
        within 3 points of the baseline (at bench scale it beats it)."""
        base = evaluate_baseline_accuracy(trained_3c.cdln, tiny_test_set)
        ev = evaluate_cdln(trained_3c.cdln, tiny_test_set, delta=0.6)
        assert ev.accuracy >= base - 0.03
