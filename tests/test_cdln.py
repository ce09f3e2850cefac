"""Tests for the CDLN cascade: construction, training, conditional
inference, cost tables, and agreement between the batched and the
single-instance (Algorithm 2) paths."""

import numpy as np
import pytest

from repro.cdl.architectures import mnist_3c
from repro.cdl.inference import classify_instance
from repro.cdl.linear_classifier import LinearClassifier
from repro.cdl.network import CDLN
from repro.cdl.stages import Stage
from repro.errors import ConfigurationError, NotFittedError, ShapeError


class TestStage:
    def test_final_stage_shape(self):
        stage = Stage(name="FC", is_final=True)
        assert stage.classifier is None

    def test_final_stage_rejects_classifier(self):
        with pytest.raises(ConfigurationError):
            Stage(name="FC", is_final=True, attach_index=1)

    def test_linear_stage_requires_classifier(self):
        with pytest.raises(ConfigurationError):
            Stage(name="O1", attach_index=1)

    def test_linear_stage_requires_attach(self):
        with pytest.raises(ConfigurationError):
            Stage(name="O1", classifier=LinearClassifier(10))


class TestConstruction:
    def test_stage_names_default(self):
        net, _ = mnist_3c(rng=0)
        cdln = CDLN(net, (1, 3))
        assert cdln.stage_names == ("O1", "O2", "FC")

    def test_custom_names(self):
        net, _ = mnist_3c(rng=0)
        cdln = CDLN(net, (1,), stage_names=["early"])
        assert cdln.stage_names == ("early", "FC")

    def test_names_must_align(self):
        net, _ = mnist_3c(rng=0)
        with pytest.raises(ConfigurationError):
            CDLN(net, (1, 3), stage_names=["O1"])

    def test_attach_must_be_increasing(self):
        net, _ = mnist_3c(rng=0)
        with pytest.raises(ConfigurationError):
            CDLN(net, (3, 1))
        with pytest.raises(ConfigurationError):
            CDLN(net, (1, 1))

    def test_attach_cannot_hit_head(self):
        net, _ = mnist_3c(rng=0)
        with pytest.raises(ConfigurationError):
            CDLN(net, (len(net.layers) - 1,))

    def test_unfitted_predict_raises(self, tiny_datasets):
        net, _ = mnist_3c(rng=0)
        cdln = CDLN(net, (1,))
        with pytest.raises(NotFittedError):
            cdln.predict(tiny_datasets[1].images[:4])


class TestFeatureExtraction:
    def test_feature_dims_match_table2(self, trained_3c):
        """O1 sees P1's 3x13x13=507 features; O2 sees P2's 6x5x5=150."""
        cdln = trained_3c.cdln
        for stage in cdln.linear_stages:
            if stage.name == "O1":
                assert stage.classifier.input_dim == 507
            if stage.name == "O2":
                assert stage.classifier.input_dim == 150

    def test_extract_features_chunking_consistent(self, trained_3c, tiny_test_set):
        cdln = trained_3c.cdln
        images = tiny_test_set.images[:70]
        chunks = [cdln.extract_features(images[i : i + 7]) for i in range(0, 70, 7)]
        whole = cdln.extract_features(images)
        for key, value in whole.items():
            np.testing.assert_allclose(
                np.concatenate([chunk[key] for chunk in chunks]), value
            )


class TestCostTable:
    def test_exit_costs_increase_with_depth(self, trained_3c):
        totals = trained_3c.cdln.path_cost_table().exit_totals()
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_first_exit_cheaper_than_baseline(self, trained_3c):
        table = trained_3c.cdln.path_cost_table()
        assert table.exit_totals()[0] < table.baseline_cost.total

    def test_final_exit_costlier_than_baseline(self, trained_3c):
        """The deepest path pays the whole backbone plus every LC."""
        table = trained_3c.cdln.path_cost_table()
        assert table.exit_totals()[-1] > table.baseline_cost.total


class TestConditionalInference:
    def test_all_inputs_get_labels(self, trained_3c, tiny_test_set):
        result = trained_3c.cdln.predict(tiny_test_set.images, delta=0.6)
        assert (result.labels >= 0).all()
        assert (result.exit_stages >= 0).all()
        assert result.labels.shape == (len(tiny_test_set),)

    def test_chunked_predict_matches(self, trained_3c, tiny_test_set):
        images = tiny_test_set.images[:50]
        a = trained_3c.cdln.predict(images, delta=0.6, batch_size=7)
        b = trained_3c.cdln.predict(images, delta=0.6, batch_size=512)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.exit_stages, b.exit_stages)

    def test_delta_extremes_route_differently(self, trained_3c, tiny_test_set):
        """Under the two-criterion rule both extremes forward more than a
        moderate delta: near 0 everything looks ambiguous (many labels clear
        the bar), near 1 nothing looks confident (no label clears it)."""
        cdln = trained_3c.cdln
        moderate = (cdln.predict(tiny_test_set.images, delta=0.6).exit_stages == 0).mean()
        lenient = (cdln.predict(tiny_test_set.images, delta=0.02).exit_stages == 0).mean()
        strict = (cdln.predict(tiny_test_set.images, delta=0.995).exit_stages == 0).mean()
        assert moderate > strict
        assert moderate > lenient

    def test_some_early_exits_at_default_delta(self, trained_3c, tiny_test_set):
        result = trained_3c.cdln.predict(tiny_test_set.images, delta=0.6)
        assert (result.exit_stages == 0).any()

    def test_agrees_with_algorithm2_trace(self, trained_3c, tiny_test_set):
        """The batched production path and the literal Algorithm 2
        transcription must make identical decisions."""
        cdln = trained_3c.cdln
        images = tiny_test_set.images[:40]
        batched = cdln.predict(images, delta=0.6)
        for i in range(len(images)):
            trace = classify_instance(cdln, images[i], delta=0.6)
            assert trace.label == batched.labels[i]
            assert trace.exit_stage == batched.exit_stages[i]

    def test_trace_structure(self, trained_3c, tiny_test_set):
        trace = classify_instance(trained_3c.cdln, tiny_test_set.images[0], delta=0.6)
        assert trace.stages_executed == trace.exit_stage + 1
        assert trace.decisions[-1].terminated
        for decision in trace.decisions[:-1]:
            assert not decision.terminated

    def test_trace_rejects_bad_shape(self, trained_3c):
        with pytest.raises(ShapeError):
            classify_instance(trained_3c.cdln, np.zeros((2, 1, 28, 28)))

    def test_ops_profile_round_trip(self, trained_3c, tiny_test_set):
        result = trained_3c.cdln.predict(tiny_test_set.images, delta=0.6)
        profile = result.ops_profile(tiny_test_set.labels)
        assert profile.average_ops > 0
        assert profile.average_ops <= result.costs.exit_totals()[-1]


class TestCloneAndDrop:
    def test_clone_preserves_training(self, trained_3c, tiny_test_set):
        cdln = trained_3c.cdln
        clone = cdln.clone_with_stages([s.name for s in cdln.linear_stages])
        a = cdln.predict(tiny_test_set.images[:20], delta=0.6)
        b = clone.predict(tiny_test_set.images[:20], delta=0.6)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_clone_subset_skips_stage(self, trained_3c, tiny_test_set):
        cdln = trained_3c.cdln
        first = cdln.linear_stages[0].name
        clone = cdln.clone_with_stages([first])
        assert clone.stage_names == (first, "FC")
        # The original is untouched.
        assert len(cdln.linear_stages) >= 1

    def test_clone_empty_is_pure_baseline(self, trained_3c, tiny_test_set):
        clone = trained_3c.cdln.clone_with_stages([])
        result = clone.predict(tiny_test_set.images[:10], delta=0.6)
        assert (result.exit_stages == 0).all()  # only the FC stage exists
        np.testing.assert_array_equal(
            result.labels,
            trained_3c.baseline.predict_labels(tiny_test_set.images[:10]),
        )

    def test_clone_unknown_name_raises(self, trained_3c):
        with pytest.raises(ConfigurationError):
            trained_3c.cdln.clone_with_stages(["nope"])

    def test_drop_unknown_raises(self, trained_3c):
        with pytest.raises(ConfigurationError):
            trained_3c.cdln.clone_with_stages(
                [s.name for s in trained_3c.cdln.linear_stages]
            ).drop_stage("nope")


class TestTrainOnPassed:
    def test_passed_mode_trains(self, tiny_datasets):
        train, test = tiny_datasets
        net, spec = mnist_3c(rng=0)
        # Light training so features are non-degenerate.
        from repro.nn import Adam, Trainer

        Trainer(net, loss="softmax_cross_entropy", optimizer=Adam(0.005), rng=1).fit(
            train.images, train.labels, epochs=1
        )
        cdln = CDLN(net, spec.attach_indices)
        cdln.fit_linear_classifiers(
            train.images, train.labels, train_on="passed", delta=0.6
        )
        result = cdln.predict(test.images, delta=0.6)
        assert (result.labels >= 0).all()

    def test_bad_train_on_raises(self, tiny_datasets):
        train, _ = tiny_datasets
        net, spec = mnist_3c(rng=0)
        cdln = CDLN(net, spec.attach_indices)
        with pytest.raises(ConfigurationError):
            cdln.fit_linear_classifiers(train.images, train.labels, train_on="some")
