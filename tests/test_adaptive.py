"""Tests for repro.serving.adaptive: drift detection, operating tables,
retargeting, and the fair-overhead drift-replay accounting."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cdl.score_cache import StageScoreCache
from repro.errors import ConfigurationError
from repro.scenarios import (
    DriftSchedule,
    DriftStream,
    Scenario,
    budgeted_drift_replay,
    replay_drift,
)
from repro.serving import (
    DeltaController,
    InferenceEngine,
    ModelRegistry,
    ServingConfig,
)
from repro.serving.adaptive import (
    AdaptiveDeltaPolicy,
    DriftDetector,
    OperatingTable,
    RegimeSignature,
    SignatureWindow,
    fold_exit_fractions,
    population_stability_index,
    signature_distance,
)
from repro.serving.metrics import STAGE0_QUANTILE_GRID

DELTA = 0.6


def make_signature(fractions, quantiles=None) -> RegimeSignature:
    if quantiles is None:
        quantiles = np.linspace(0.5, 0.9, len(STAGE0_QUANTILE_GRID))
    return RegimeSignature(
        exit_fractions=np.asarray(fractions, dtype=np.float64),
        stage0_quantiles=np.asarray(quantiles, dtype=np.float64),
    )


def synthetic_batch(rng, kind: str, size: int = 32):
    """(exit_stages, stage0_confidences) drawn from one of two regimes."""
    if kind == "clean":
        exits = rng.choice(3, size=size, p=(0.7, 0.2, 0.1))
        conf = np.clip(rng.normal(0.85, 0.08, size=size), 0.0, 1.0)
    else:
        exits = rng.choice(3, size=size, p=(0.2, 0.3, 0.5))
        conf = np.clip(rng.normal(0.55, 0.12, size=size), 0.0, 1.0)
    return exits, conf


def reference_for(kind: str, n: int = 4096, seed: int = 0) -> RegimeSignature:
    exits, conf = synthetic_batch(np.random.default_rng(seed), kind, size=n)
    return make_signature(
        np.bincount(exits, minlength=3) / n,
        np.quantile(conf, STAGE0_QUANTILE_GRID),
    )


@pytest.fixture(scope="module")
def table_setup(trained_3c_all_taps, tiny_test_set):
    cdln = trained_3c_all_taps.cdln
    scenarios = [
        Scenario(name="clean"),
        Scenario(name="noise", corruptions=(("gaussian_noise", 1.0),)),
    ]
    table = OperatingTable.build(
        cdln, tiny_test_set, scenarios, reference_delta=DELTA
    )
    return cdln, tiny_test_set, table


class TestScores:
    def test_psi_zero_for_identical(self):
        h = np.array([0.5, 0.3, 0.2])
        assert population_stability_index(h, h) == pytest.approx(0.0)

    def test_psi_positive_and_symmetric_for_shift(self):
        a = np.array([0.7, 0.2, 0.1])
        b = np.array([0.2, 0.3, 0.5])
        psi = population_stability_index(a, b)
        assert psi > 0.25
        assert psi == pytest.approx(population_stability_index(b, a))

    def test_psi_handles_empty_bins(self):
        psi = population_stability_index(
            np.array([1.0, 0.0]), np.array([0.0, 1.0])
        )
        assert np.isfinite(psi) and psi > 0

    def test_psi_shape_mismatch(self):
        with pytest.raises(ConfigurationError, match="equal-length"):
            population_stability_index(np.ones(2) / 2, np.ones(3) / 3)

    def test_signature_distance_terms(self):
        a = make_signature([0.7, 0.2, 0.1], [0.8] * 5)
        b = make_signature([0.7, 0.2, 0.1], [0.6] * 5)
        # Identical exits: pure quantile term, weighted.
        assert signature_distance(a, b, quantile_weight=2.0) == pytest.approx(0.4)
        assert signature_distance(a, b, quantile_weight=0.0) == pytest.approx(0.0)

    def test_fold_exit_fractions_matches_capped_replay(
        self, trained_3c_all_taps, tiny_test_set
    ):
        """Folding the uncapped histogram at the cap must reproduce the
        capped executor's histogram exactly (exit = min(exit, cap))."""
        cdln = trained_3c_all_taps.cdln
        cache = StageScoreCache.build(cdln, tiny_test_set.images)
        n = cache.num_inputs
        free = np.bincount(cache.exit_stages(DELTA), minlength=cache.num_stages) / n
        for cap in range(cache.num_stages):
            capped = (
                np.bincount(
                    cache.exit_stages(DELTA, max_stage=cap),
                    minlength=cache.num_stages,
                )
                / n
            )
            np.testing.assert_allclose(fold_exit_fractions(free, cap), capped)

    def test_fold_no_cap_copies(self):
        f = np.array([0.5, 0.5])
        out = fold_exit_fractions(f, None)
        np.testing.assert_array_equal(out, f)
        assert out is not f


class TestDriftDetector:
    def test_fires_on_sudden_shift_within_bound(self):
        rng = np.random.default_rng(1)
        detector = DriftDetector(reference_for("clean"))
        for _ in range(10):
            assert detector.observe(*synthetic_batch(rng, "clean")) is None
        fired_after = None
        for t in range(6):
            event = detector.observe(*synthetic_batch(rng, "shifted"))
            if event is not None:
                fired_after = t + 1
                break
        assert fired_after is not None and fired_after <= 3
        assert event.kind == "drift"
        assert event.score >= detector.threshold
        assert not detector.armed

    def test_quiet_on_clean_replay(self):
        """False-trigger bound: many clean batches, several stream seeds,
        not a single event and scores well under the threshold."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            detector = DriftDetector(reference_for("clean"))
            for _ in range(30):
                assert detector.observe(*synthetic_batch(rng, "clean")) is None
            assert detector.last_score < detector.threshold

    def test_recovery_rearms(self):
        rng = np.random.default_rng(2)
        detector = DriftDetector(reference_for("clean"))
        events = []
        for kind in ["clean"] * 6 + ["shifted"] * 6 + ["clean"] * 8:
            event = detector.observe(*synthetic_batch(rng, kind))
            if event is not None:
                events.append(event.kind)
        # One drift event; once clean flushes the window, one recovery.
        assert events == ["drift", "recovery"]
        assert detector.armed

    def test_rebase_clears_and_rearms(self):
        rng = np.random.default_rng(3)
        detector = DriftDetector(reference_for("clean"))
        for kind in ["clean"] * 6 + ["shifted"] * 4:
            detector.observe(*synthetic_batch(rng, kind))
        assert not detector.armed
        detector.rebase(reference_for("shifted"))
        assert detector.armed and detector.observations == 0
        # Quiet against the new reference.
        for _ in range(8):
            assert detector.observe(*synthetic_batch(rng, "shifted")) is None

    def test_min_observations_gate(self):
        rng = np.random.default_rng(4)
        detector = DriftDetector(reference_for("clean"), min_observations=3)
        # Even wildly shifted traffic cannot fire before the gate.
        for _ in range(2):
            assert detector.observe(*synthetic_batch(rng, "shifted")) is None
            assert detector.last_score is None

    def test_window_signature_recent(self):
        rng = np.random.default_rng(5)
        detector = DriftDetector(reference_for("clean"), window=4)
        for kind in ["clean"] * 3 + ["shifted"]:
            detector.observe(*synthetic_batch(rng, kind))
        full = detector.window_signature()
        recent = detector.window_signature(recent=1)
        ref = detector.reference
        # The fresh tail is further from clean than the diluted window.
        assert signature_distance(recent, ref) > signature_distance(full, ref)

    def test_validation(self):
        ref = reference_for("clean")
        with pytest.raises(ConfigurationError, match="threshold"):
            DriftDetector(ref, threshold=0.0)
        with pytest.raises(ConfigurationError, match="window"):
            DriftDetector(ref, window=0)
        with pytest.raises(ConfigurationError, match="quantile_weight"):
            DriftDetector(ref, quantile_weight=-1)
        detector = DriftDetector(ref)
        with pytest.raises(ConfigurationError, match="no observations"):
            detector.window_signature()
        with pytest.raises(ConfigurationError, match="out of range"):
            detector.observe(np.array([7]), np.array([0.5]))


class TestSignatureWindow:
    def test_window_trims_and_counts(self):
        window = SignatureWindow(num_stages=3, size=2)
        assert window.signature() is None
        window.add(np.array([0, 0, 1]), np.array([0.9, 0.8, 0.4]))
        window.add(np.array([2, 2]), np.array([0.1, 0.2]))
        window.after_batch(None, np.array([1]), np.array([0.5]))
        sig = window.signature()
        # Window of 2: only the last two batches (3 observations) remain.
        assert sig.count == 3
        np.testing.assert_allclose(sig.exit_fractions, [0.0, 1 / 3, 2 / 3])
        expected = np.quantile(
            [0.1, 0.2, 0.5], [0.1, 0.25, 0.5, 0.75, 0.9]
        )
        np.testing.assert_allclose(sig.stage0_quantiles, expected)

    def test_agrees_with_the_detector_window(self):
        rng = np.random.default_rng(5)
        reference = reference_for("clean")
        detector = DriftDetector(reference, window=3, min_observations=99)
        window = SignatureWindow(len(reference.exit_fractions), size=3)
        for kind in ("clean", "shifted", "clean", "shifted", "shifted"):
            exits, conf = synthetic_batch(rng, kind)
            detector.observe(exits, conf)
            window.add(exits, conf)
            for recent in (None, 1, 2):
                ours = window.signature(recent=recent)
                theirs = detector.window_signature(recent=recent)
                assert ours.count == theirs.count
                np.testing.assert_array_equal(
                    ours.exit_fractions, theirs.exit_fractions
                )
                np.testing.assert_array_equal(
                    ours.stage0_quantiles, theirs.stage0_quantiles
                )


class TestSignatureMerge:
    """Count-weighted cross-replica merge (the PR-9 bugfix)."""

    def _split_signatures(self, sizes, seed=0):
        """One pooled sample split into per-replica windows of given sizes."""
        rng = np.random.default_rng(seed)
        exits, conf = synthetic_batch(rng, "noise", size=sum(sizes))
        parts, start = [], 0
        for size in sizes:
            sl = slice(start, start + size)
            parts.append(
                RegimeSignature(
                    exit_fractions=np.bincount(exits[sl], minlength=3) / size,
                    stage0_quantiles=np.quantile(
                        conf[sl], STAGE0_QUANTILE_GRID
                    ),
                    count=size,
                )
            )
            start += size
        pooled_fractions = np.bincount(exits, minlength=3) / len(exits)
        return parts, pooled_fractions

    def test_merge_recovers_pooled_histogram_exactly(self):
        parts, pooled = self._split_signatures([700, 60, 12])
        merged = RegimeSignature.merge(parts)
        np.testing.assert_allclose(merged.exit_fractions, pooled, atol=1e-12)
        assert merged.count == 772

    def test_unweighted_average_biases_psi(self):
        # Regression: a 700-observation replica and a 12-observation
        # replica merged by plain fraction averaging yield a histogram no
        # window actually observed; the PSI against the true pooled
        # histogram is materially wrong, while the count-weighted merge
        # is exact.  (Uneven windows are the norm in a fleet -- replicas
        # restart, shed, and dispatch unevenly.)
        parts, pooled = self._split_signatures([700, 12], seed=3)
        merged = RegimeSignature.merge(parts)
        naive = np.mean([p.exit_fractions for p in parts], axis=0)
        psi_merged = population_stability_index(pooled, merged.exit_fractions)
        psi_naive = population_stability_index(pooled, naive)
        assert psi_merged == pytest.approx(0.0, abs=1e-12)
        assert psi_naive > psi_merged

    def test_merge_single_is_identity(self):
        parts, _ = self._split_signatures([64])
        merged = RegimeSignature.merge(parts)
        np.testing.assert_allclose(
            merged.exit_fractions, parts[0].exit_fractions
        )
        assert merged.count == parts[0].count

    def test_merge_validation(self):
        good = RegimeSignature(
            np.array([0.5, 0.3, 0.2]), np.linspace(0.4, 0.9, 5), count=32
        )
        with pytest.raises(ConfigurationError, match="zero"):
            RegimeSignature.merge([])
        countless = make_signature([0.5, 0.3, 0.2])  # count defaults to 0
        with pytest.raises(ConfigurationError, match="count"):
            RegimeSignature.merge([good, countless])
        other = RegimeSignature(
            np.array([0.6, 0.4]), np.linspace(0.4, 0.9, 5), count=8
        )
        with pytest.raises(ConfigurationError, match="stage counts"):
            RegimeSignature.merge([good, other])

    def test_observe_signature_gates_then_fires(self):
        detector = DriftDetector(
            reference_for("clean"), threshold=0.25, min_observations=3
        )
        rng = np.random.default_rng(9)
        events = []
        for i in range(6):
            exits, conf = synthetic_batch(rng, "noise", size=256)
            signature = RegimeSignature(
                exit_fractions=np.bincount(exits, minlength=3) / 256,
                stage0_quantiles=np.quantile(conf, STAGE0_QUANTILE_GRID),
                count=256,
            )
            event = detector.observe_signature(signature)
            if i < 2:
                assert event is None, "min_observations must gate the score"
            if event is not None:
                events.append((i, event))
        assert events, "a sustained shifted fleet signature must fire"
        assert events[0][1].kind == "drift"


class TestOperatingTable:
    def test_build_contents(self, table_setup):
        _, _, table = table_setup
        assert set(table.regime_names) == {"clean", "noise"}
        assert table.reference_regime == "clean"
        assert "clean" in table and "nope" not in table
        entry = table.entry("noise")
        assert entry.num_samples > 0
        deltas = [p.delta for p in entry.points]
        assert deltas == sorted(deltas) and len(deltas) == 19
        for point in entry.points:
            assert point.mean_ops > 0
            assert 0.0 <= point.accuracy <= 1.0
            assert abs(sum(point.exit_fractions) - 1.0) < 1e-9
        with pytest.raises(ConfigurationError, match="unknown regime"):
            table.entry("nope")

    def test_json_round_trip(self, table_setup, tmp_path):
        _, _, table = table_setup
        path = table.save(tmp_path / "model.npz.optable.json")
        loaded = OperatingTable.load(path)
        assert loaded.regime_names == table.regime_names
        assert loaded.reference_regime == table.reference_regime
        assert loaded.reference_delta == table.reference_delta
        assert loaded.stage_names == table.stage_names
        for name in table.regime_names:
            a, b = table.entry(name), loaded.entry(name)
            assert a.num_samples == b.num_samples
            assert a.scenario_spec == b.scenario_spec
            np.testing.assert_allclose(
                a.signature.exit_fractions, b.signature.exit_fractions
            )
            np.testing.assert_allclose(
                a.signature.stage0_quantiles, b.signature.stage0_quantiles
            )
            assert a.points == b.points

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ConfigurationError, match="schema"):
            OperatingTable.load(path)

    def test_default_path(self):
        assert (
            OperatingTable.default_path("ckpt/model.npz").name
            == "model.npz.optable.json"
        )

    def test_match_identifies_own_regimes(self, table_setup):
        _, _, table = table_setup
        for name in table.regime_names:
            signature = table.entry(name).signature_at(DELTA)
            matched, distance = table.match(signature, delta=DELTA)
            assert matched == name
            assert distance == pytest.approx(0.0, abs=1e-12)

    def test_match_respects_depth_cap(self, table_setup):
        _, _, table = table_setup
        capped = table.entry("noise").signature_at(DELTA, max_stage=0)
        matched, _ = table.match(capped, delta=DELTA, max_stage=0)
        assert matched == "noise"

    def test_retarget_matches_offline_optimal(self, table_setup):
        """retarget() must land on the δ a live calibration over the very
        same scenario sample would pick (same grid, same budget)."""
        cdln, base, table = table_setup
        target = 0.75 * float(cdln.path_cost_table().baseline_cost.total)
        grid = tuple(p.delta for p in table.entry("noise").points)
        controller = DeltaController(target_mean_ops=target, delta_grid=grid)
        point = controller.retarget(table, "noise")
        offline = DeltaController(target_mean_ops=target, delta_grid=grid)
        realized = Scenario(
            name="noise", corruptions=(("gaussian_noise", 1.0),)
        ).realize(base)
        offline.calibrate(cdln, realized.images)
        assert controller.delta == pytest.approx(offline.delta, abs=1e-12)
        assert point.mean_ops == pytest.approx(
            offline.calibration.point_for_delta(offline.delta).mean_ops,
            rel=1e-9,
        )

    def test_retarget_folds_hard_budget_cap(self, table_setup):
        """With a hard budget, retarget must install the *capped* curve --
        the same folding a live calibrate() applies -- not the uncapped
        table points."""
        cdln, base, table = table_setup
        totals = cdln.path_cost_table().exit_totals()
        target = 0.75 * float(cdln.path_cost_table().baseline_cost.total)
        # A budget that only affords the cheapest exit: cap at stage 0.
        controller = DeltaController(
            target_mean_ops=target, hard_ops_budget=float(totals[0])
        )
        point = controller.retarget(table, "noise")
        # Every input force-exits at stage 0, so every curve point must
        # predict exactly the stage-0 exit cost.
        assert point.mean_ops == pytest.approx(float(totals[0]))
        for p in controller.calibration.points:
            assert p.mean_ops == pytest.approx(float(totals[0]))
            assert p.exit_fractions[0] == pytest.approx(1.0)
        # And it agrees with a live capped calibration on the same sample.
        grid = tuple(p.delta for p in table.entry("noise").points)
        live = DeltaController(
            target_mean_ops=target,
            hard_ops_budget=float(totals[0]),
            delta_grid=grid,
        )
        realized = Scenario(
            name="noise", corruptions=(("gaussian_noise", 1.0),)
        ).realize(base)
        live.calibrate(cdln, realized.images)
        for table_point, live_point in zip(
            controller.calibration.points, live.calibration.points
        ):
            assert table_point.mean_ops == pytest.approx(live_point.mean_ops)

    def test_retarget_unsatisfiable_hard_budget(self, table_setup):
        cdln, _, table = table_setup
        totals = cdln.path_cost_table().exit_totals()
        controller = DeltaController(
            target_mean_ops=1.0, hard_ops_budget=float(totals[0]) / 2
        )
        with pytest.raises(ConfigurationError, match="below the cheapest exit"):
            controller.retarget(table, "noise")

    def test_legacy_table_without_exit_totals_retargets_uncapped(
        self, table_setup
    ):
        cdln, _, table = table_setup
        payload = table.to_dict()
        del payload["exit_totals"]
        legacy = OperatingTable.from_dict(payload)
        assert legacy.exit_totals == ()
        totals = cdln.path_cost_table().exit_totals()
        target = 0.75 * float(cdln.path_cost_table().baseline_cost.total)
        controller = DeltaController(
            target_mean_ops=target, hard_ops_budget=float(totals[0])
        )
        # Falls back to the uncapped curve instead of raising.
        controller.retarget(legacy, "noise")
        assert controller.calibration is not None

    def test_load_rejects_foreign_quantile_grid(self, table_setup, tmp_path):
        _, _, table = table_setup
        payload = table.to_dict()
        regime = next(iter(payload["regimes"].values()))
        regime["signature"]["quantile_grid"] = [0.2, 0.4, 0.6, 0.8, 0.99]
        with pytest.raises(ConfigurationError, match="quantile levels"):
            OperatingTable.from_dict(payload)

    def test_retarget_requires_soft_target(self, table_setup):
        _, _, table = table_setup
        hard_only = DeltaController(hard_ops_budget=1e9)
        with pytest.raises(ConfigurationError, match="soft target"):
            hard_only.retarget(table, "clean")

    def test_retarget_to_installed_regime_keeps_feedback(self, table_setup):
        """A drift detector re-firing onto the regime already installed must
        not discard the folded feedback ratio or move δ; a different
        regime's curve still starts from a fresh ratio."""
        cdln, _, table = table_setup
        target = 0.75 * float(cdln.path_cost_table().baseline_cost.total)
        controller = DeltaController(target_mean_ops=target)
        controller.retarget(table, "noise")
        predicted = controller.calibration.point_for_delta(controller.delta).mean_ops
        controller.observe(1.5 * predicted, batch_size=8)
        ratio, delta = controller._cost_ratio, controller.delta
        assert ratio != 1.0
        assert controller.feedback_folds == 1
        point = controller.retarget(table, "noise")
        assert controller._cost_ratio == ratio
        assert controller.delta == delta
        assert point == controller.calibration.point_for_delta(delta)
        controller.retarget(table, "clean")
        assert controller._cost_ratio == 1.0
        assert controller.feedback_folds == 1

    def test_registry_attachment(self, table_setup, tmp_path):
        cdln, _, table = table_setup
        registry = ModelRegistry()
        path = table.save(tmp_path / "table.json")
        entry = registry.register("m", cdln, operating_table=path)
        assert entry.operating_table.regime_names == table.regime_names
        # Direct object attachment works too.
        entry2 = registry.register("m", cdln, operating_table=table)
        assert entry2.operating_table is table

    def test_registry_attachment_rejects_stage_mismatch(
        self, table_setup, trained_3c
    ):
        _, _, table = table_setup
        registry = ModelRegistry()
        if tuple(trained_3c.cdln.stage_names) == table.stage_names:
            pytest.skip("admission kept every tap; layouts coincide")
        with pytest.raises(ConfigurationError, match="stages"):
            registry.register("other", trained_3c.cdln, operating_table=table)


class TestEngineIntegration:
    def test_adaptive_requires_soft_controller(self, table_setup):
        cdln, _, table = table_setup
        policy = AdaptiveDeltaPolicy(table)
        with pytest.raises(ConfigurationError, match="soft"):
            InferenceEngine.from_config(
                ServingConfig(model=cdln, adaptive=policy)
            )
        with pytest.raises(ConfigurationError, match="soft"):
            InferenceEngine.from_config(
                ServingConfig(
                    model=cdln,
                    controller=DeltaController(hard_ops_budget=1e9),
                    adaptive=policy,
                )
            )

    def test_prime_installs_table_calibration(self, table_setup):
        cdln, base, table = table_setup
        target = 0.75 * float(cdln.path_cost_table().baseline_cost.total)
        controller = DeltaController(target_mean_ops=target)
        engine = InferenceEngine.from_config(
            ServingConfig(
                model=cdln,
                controller=controller,
                adaptive=AdaptiveDeltaPolicy(table),
            )
        )
        # No lazy calibration pass needed: the table already calibrated it.
        assert not controller.needs_calibration
        assert engine.adaptive.detector is not None
        primed_delta = controller.delta
        response = engine.classify(base.images[0])
        # Served at the primed δ (observe() feedback may move it afterwards).
        assert response.delta == primed_delta

    def test_detector_window_records_stage0_quantiles(self, table_setup):
        """The drift signal is the detector's own window of stage-0
        confidences; the metrics snapshot keeps none."""
        cdln, base, table = table_setup
        target = 0.75 * float(cdln.path_cost_table().baseline_cost.total)
        engine = InferenceEngine.from_config(
            ServingConfig(
                model=cdln,
                controller=DeltaController(target_mean_ops=target),
                adaptive=AdaptiveDeltaPolicy(table),
            )
        )
        engine.classify_many(base.images[:32])
        window = engine.adaptive.detector.window_signature()
        assert window.count == 32
        assert window.stage0_quantiles.shape == (len(STAGE0_QUANTILE_GRID),)
        assert np.all(np.diff(window.stage0_quantiles) >= 0)
        assert "stage-0 confidence" not in engine.metrics.snapshot().render()

    def test_use_model_rebinds_adaptive_policy(self, table_setup):
        cdln, base, table = table_setup
        registry = ModelRegistry()
        registry.register("m", cdln, operating_table=table)
        registry.register("bare", cdln)
        target = 0.75 * float(cdln.path_cost_table().baseline_cost.total)
        engine = InferenceEngine.from_config(
            ServingConfig(
                registry=registry,
                model_spec="m",
                controller=DeltaController(target_mean_ops=target),
                adaptive=AdaptiveDeltaPolicy(table),
            )
        )
        # Swapping to an entry without a table is refused up front...
        with pytest.raises(ConfigurationError, match="no operating table"):
            engine.use_model("bare")
        assert engine.entry.spec == "m:1"
        # ...and a table-carrying swap rebinds + re-primes the policy.
        registry.register("m2", cdln, operating_table=table)
        engine.use_model("m2")
        assert engine.adaptive.table is registry.resolve("m2").operating_table
        assert engine.adaptive.current_regime == table.reference_regime
        engine.classify_many(base.images[:8])  # serves without detector errors

    def test_replay_retargets_on_shift(self, table_setup):
        cdln, base, table = table_setup
        result = budgeted_drift_replay(
            cdln,
            base,
            Scenario(name="noise", corruptions=(("gaussian_noise", 1.0),)),
            DriftSchedule.sudden(3),
            batch_size=32,
            num_batches=9,
            rng=7,
            delta=DELTA,
            adaptive=True,
        )
        assert result.retargets >= 1
        assert result.hard_cap_held
        assert result.recalibrations == 0
        assert result.total_overhead_ops == 0.0
        assert result.offline_table_ops > 0.0
        regimes = [p.regime for p in result.phases]
        assert regimes[0] == "clean"
        assert "noise" in regimes[3:]
        assert np.isfinite(result.post_shift_budget_error())

    def test_replay_controller_kwargs_reach_the_controller(self, table_setup):
        """``feedback_smoothing=0.0`` serves a clean-only table open loop:
        the detector's re-fires onto the installed regime are no-ops and
        no cost feedback is folded, so δ never moves; with feedback on,
        the same stream moves it."""
        cdln, base, _ = table_setup
        args = dict(
            batch_size=32,
            num_batches=9,
            rng=7,
            delta=DELTA,
            adaptive=True,
            table_scenarios=[Scenario(name="clean")],
        )
        noise = Scenario(name="noise", corruptions=(("gaussian_noise", 1.0),))
        open_loop = budgeted_drift_replay(
            cdln,
            base,
            noise,
            DriftSchedule.sudden(3),
            controller_kwargs={"feedback_smoothing": 0.0},
            **args,
        )
        closed_loop = budgeted_drift_replay(
            cdln, base, noise, DriftSchedule.sudden(3), **args
        )
        assert open_loop.retargets >= 1
        assert len({p.delta for p in open_loop.phases}) == 1
        assert len({p.delta for p in closed_loop.phases}) > 1

    def test_replay_validation(self, table_setup, tiny_test_set):
        cdln, base, table = table_setup
        stream = DriftStream(
            tiny_test_set, tiny_test_set, DriftSchedule.sudden(1), num_batches=2
        )
        with pytest.raises(ConfigurationError, match="operating_table"):
            replay_drift(
                cdln, stream, detector=DriftDetector(reference_for("clean"))
            )
        with pytest.raises(ConfigurationError, match="target_mean_ops"):
            replay_drift(cdln, stream, operating_table=table)


class TestAfterWindow:
    """``after_window`` is the fleet's entry into the policy: one assembled
    window in, the same match -> retarget -> rebase step ``after_batch``
    runs, and a :class:`RetargetEvent` out."""

    @staticmethod
    def _engine(table_setup, **detector_kwargs) -> InferenceEngine:
        cdln, _, table = table_setup
        target = 0.75 * float(cdln.path_cost_table().baseline_cost.total)
        return InferenceEngine.from_config(
            ServingConfig(
                model=cdln,
                controller=DeltaController(target_mean_ops=target),
                adaptive=AdaptiveDeltaPolicy(
                    table, detector_kwargs=detector_kwargs
                ),
            )
        )

    @staticmethod
    def _feed_until_retarget(engine, signature, limit: int = 10):
        for _ in range(limit):
            event = engine.adaptive.after_window(engine, signature)
            if event is not None:
                return event
        raise AssertionError(f"no retarget within {limit} windows")

    def test_unprimed_policy_refuses_a_window(self, table_setup):
        _, _, table = table_setup
        policy = AdaptiveDeltaPolicy(table)
        window = table.entry("noise").signature_at(DELTA)
        with pytest.raises(ConfigurationError, match="primed"):
            policy.after_window(object(), window)
        assert policy.events == []

    def test_reference_window_holds_delta(self, table_setup):
        engine = self._engine(table_setup)
        policy = engine.adaptive
        primed = engine.controller.delta
        for _ in range(12):
            assert policy.after_window(engine, policy.detector.reference) is None
        assert engine.controller.delta == primed
        assert policy.events == []
        assert policy.current_regime == "clean"

    def test_shifted_window_retargets_and_rebases(self, table_setup):
        _, _, table = table_setup
        engine = self._engine(table_setup)
        policy = engine.adaptive
        window = table.entry("noise").signature_at(engine.controller.delta)
        event = self._feed_until_retarget(engine, window)
        assert event.regime == "noise" and event.trigger == "level"
        assert policy.current_regime == "noise"
        assert policy.events == [event]
        assert type(event.delta) is float
        assert event.delta == engine.controller.delta
        # The controller sits where a retarget onto the same curves puts it.
        fresh = DeltaController(target_mean_ops=engine.controller.target_mean_ops)
        fresh.retarget(table, "clean")
        fresh.retarget(table, "noise")
        assert engine.controller.delta == fresh.delta
        # The detector was rebased onto the matched regime at the new δ.
        detector = policy.detector
        rebased = table.entry("noise").signature_at(event.delta, max_stage=None)
        np.testing.assert_array_equal(
            detector.reference.exit_fractions, rebased.exit_fractions
        )
        assert detector.armed and detector.observations == 0

    def test_matches_the_window_it_was_handed(self, table_setup):
        """Unlike ``after_batch``, which matches on its freshest batches,
        the fleet path matches on the merged window it passes in."""
        _, _, table = table_setup
        engine = self._engine(table_setup)
        policy = engine.adaptive
        before = engine.controller.delta
        reference = policy.detector.reference
        weight = policy.detector.quantile_weight
        window = table.entry("noise").signature_at(before)
        event = self._feed_until_retarget(engine, window)
        regime, distance = table.match(
            window, delta=before, max_stage=None, quantile_weight=weight
        )
        assert (event.regime, event.distance) == (regime, distance)
        assert event.score == signature_distance(
            window, reference, quantile_weight=weight
        )

    def test_shift_back_to_clean_is_another_event(self, table_setup):
        _, _, table = table_setup
        engine = self._engine(table_setup)
        primed = engine.controller.delta
        noise = table.entry("noise").signature_at(primed)
        self._feed_until_retarget(engine, noise)
        clean = table.entry("clean").signature_at(engine.controller.delta)
        back = self._feed_until_retarget(engine, clean)
        assert back.regime == "clean"
        assert engine.adaptive.current_regime == "clean"
        assert [e.regime for e in engine.adaptive.events] == ["noise", "clean"]
        assert engine.controller.delta == pytest.approx(primed)

    def test_window_and_batch_paths_share_one_step(self, table_setup):
        """Differential: one shifted batch fed to ``after_batch`` and its
        window signature fed to ``after_window`` retarget two identical
        engines identically."""
        _, _, table = table_setup
        single = {"window": 1, "min_observations": 1}
        by_batch = self._engine(table_setup, **single)
        by_window = self._engine(table_setup, **single)
        noise = table.entry("noise").signature_at(by_batch.controller.delta)
        rng = np.random.default_rng(5)
        fractions = np.asarray(noise.exit_fractions, dtype=np.float64)
        exits = rng.choice(len(fractions), size=256, p=fractions / fractions.sum())
        confidences = np.clip(rng.normal(0.5, 0.15, size=256), 0.0, 1.0)
        probe = DriftDetector(by_window.adaptive.detector.reference, **single)
        probe.observe(exits, confidences)
        window = probe.window_signature()

        batch_event = by_batch.adaptive.after_batch(by_batch, exits, confidences)
        window_event = by_window.adaptive.after_window(by_window, window)
        assert batch_event is not None
        assert window_event == batch_event
        assert by_window.controller.delta == by_batch.controller.delta
        np.testing.assert_array_equal(
            by_window.adaptive.detector.reference.exit_fractions,
            by_batch.adaptive.detector.reference.exit_fractions,
        )


class TestOverheadAccounting:
    """Regression: calibration passes must be charged explicitly to
    ``overhead_ops`` -- never folded into the served ``mean_ops`` -- so
    adaptive-vs-scheduled comparisons stay fair."""

    def test_scheduled_overhead_is_pinned(self, trained_3c_all_taps, tiny_test_set):
        cdln = trained_3c_all_taps.cdln
        full_pass = float(cdln.path_cost_table().exit_totals()[-1])
        scenario = Scenario(name="noise", corruptions=(("gaussian_noise", 1.0),))
        stream = DriftStream.from_scenario(
            tiny_test_set, scenario, DriftSchedule.sudden(2),
            batch_size=24, num_batches=6, rng=0,
        )
        target = 0.75 * float(cdln.path_cost_table().baseline_cost.total)
        result = replay_drift(
            cdln, stream, target_mean_ops=target, recalibrate_every=2
        )
        # Initial calibration: the whole clean pool, charged to phase 0.
        assert result.phases[0].overhead_ops == pytest.approx(
            len(tiny_test_set) * full_pass
        )
        # Recalibrations at batches 2 and 4, each over the last 2 batches.
        assert result.recalibrations == 2
        for index in (2, 4):
            assert result.phases[index].overhead_ops == pytest.approx(
                2 * 24 * full_pass
            )
        for index in (1, 3, 5):
            assert result.phases[index].overhead_ops == 0.0
        assert result.total_overhead_ops == pytest.approx(
            (len(tiny_test_set) + 2 * 2 * 24) * full_pass
        )
        # Served cost excludes overhead: every phase's mean is bounded by
        # the deepest exit, which a folded-in calibration pass would break.
        for phase in result.phases:
            assert phase.mean_ops <= full_pass
            assert phase.num_requests == 24
        # And the two error bases actually differ.
        assert result.budget_error() > result.budget_error(
            include_overhead=False
        )

    def test_fixed_delta_replay_has_no_overhead(
        self, trained_3c_all_taps, tiny_test_set
    ):
        cdln = trained_3c_all_taps.cdln
        scenario = Scenario(name="noise", corruptions=(("gaussian_noise", 1.0),))
        stream = DriftStream.from_scenario(
            tiny_test_set, scenario, DriftSchedule.sudden(2),
            batch_size=16, num_batches=4, rng=0,
        )
        result = replay_drift(cdln, stream, delta=DELTA)
        assert result.total_overhead_ops == 0.0
        assert result.retargets == 0
        assert np.isnan(result.budget_error())

    def test_mean_ops_overall_amortizes(self, trained_3c_all_taps, tiny_test_set):
        cdln = trained_3c_all_taps.cdln
        scenario = Scenario(name="noise", corruptions=(("gaussian_noise", 1.0),))
        stream = DriftStream.from_scenario(
            tiny_test_set, scenario, DriftSchedule.sudden(2),
            batch_size=24, num_batches=6, rng=0,
        )
        target = 0.75 * float(cdln.path_cost_table().baseline_cost.total)
        result = replay_drift(
            cdln, stream, target_mean_ops=target, recalibrate_every=2
        )
        served = result.mean_ops_overall()
        loaded = result.mean_ops_overall(include_overhead=True)
        requests = sum(p.num_requests for p in result.phases)
        assert loaded == pytest.approx(
            served + result.total_overhead_ops / requests
        )
        payload = result.to_dict()
        assert payload["overhead_ops"] == pytest.approx(result.total_overhead_ops)
        assert payload["phases"][0]["overhead_ops"] > 0
