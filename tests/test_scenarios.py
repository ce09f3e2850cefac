"""Tests for repro.scenarios: specs, suites, drift streams, evaluation."""

from __future__ import annotations

import inspect
import json

import numpy as np
import pytest

from repro.data.dataset import DigitDataset
from repro.errors import ConfigurationError
from repro.scenarios import (
    DriftSchedule,
    DriftStream,
    Scenario,
    ScenarioSuite,
    budgeted_drift_replay,
    default_suite,
    evaluate_scenario,
    evaluate_suite,
    expected_calibration_error,
    replay_drift,
)
from repro.scenarios.cli import main as cli_main


def make_dataset(n=60, seed=0, num_classes=10) -> DigitDataset:
    rng = np.random.default_rng(seed)
    return DigitDataset(
        images=rng.random((n, 1, 12, 12)),
        labels=rng.integers(0, num_classes, size=n),
        name="toy",
    )


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="unknown corruption"):
            Scenario(name="bad", corruptions=(("fog", 0.5),))
        with pytest.raises(ConfigurationError, match="severity"):
            Scenario(name="bad", corruptions=(("blur", 2.0),))
        with pytest.raises(ConfigurationError, match="class_mix"):
            Scenario(name="bad", class_mix=(0.0,) * 10)
        with pytest.raises(ConfigurationError, match="sample_limit"):
            Scenario(name="bad", sample_limit=0)
        with pytest.raises(ConfigurationError, match="name"):
            Scenario(name="")

    def test_severity_and_primary_corruption(self):
        clean = Scenario(name="clean")
        assert clean.is_clean and clean.severity == 0.0
        assert clean.primary_corruption == "clean"
        mixed = Scenario(
            name="mix", corruptions=(("blur", 0.3), ("gaussian_noise", 0.8))
        )
        assert mixed.severity == 0.8
        assert mixed.primary_corruption == "blur"

    def test_realize_is_deterministic(self):
        base = make_dataset()
        scenario = Scenario(name="noisy", corruptions=(("gaussian_noise", 0.5),))
        a = scenario.realize(base)
        b = scenario.realize(base)
        np.testing.assert_array_equal(a.images, b.images)
        assert a.name == "toy:noisy"

    def test_realize_clean_copies(self):
        base = make_dataset()
        realized = Scenario(name="clean").realize(base)
        np.testing.assert_array_equal(realized.images, base.images)
        realized.images[0] = 0.0
        assert base.images[0].any()  # base untouched

    def test_sample_limit(self):
        base = make_dataset(n=50)
        realized = Scenario(name="cap", sample_limit=20).realize(base)
        assert len(realized) == 20
        # A limit above the base size degrades to the base size.
        assert len(Scenario(name="big", sample_limit=500).realize(base)) == 50

    def test_class_mix_biases_composition(self):
        base = make_dataset(n=400, seed=1)
        mix = tuple(10.0 if digit == 3 else 0.1 for digit in range(10))
        realized = Scenario(name="skew", class_mix=mix, seed=2).realize(base)
        counts = realized.class_counts()
        assert counts[3] > 0.5 * len(realized)
        assert len(realized) == len(base)

    def test_class_mix_must_match_classes(self):
        base = make_dataset()
        with pytest.raises(ConfigurationError, match="class_mix"):
            Scenario(name="skew", class_mix=(1.0, 2.0)).realize(base)

    def test_empty_base_rejected(self):
        empty = make_dataset().subset(np.array([], dtype=np.int64))
        with pytest.raises(ConfigurationError, match="empty"):
            Scenario(name="clean").realize(empty)


class TestScenarioSuite:
    def test_add_get_iter(self):
        suite = ScenarioSuite("s")
        scenario = suite.add(Scenario(name="a"))
        assert suite.get("a") is scenario
        assert "a" in suite and len(suite) == 1
        assert [s.name for s in suite] == ["a"]
        assert suite.select(["a"]) == [scenario]

    def test_duplicate_and_unknown(self):
        suite = ScenarioSuite()
        suite.add(Scenario(name="a"))
        with pytest.raises(ConfigurationError, match="already"):
            suite.add(Scenario(name="a"))
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            suite.get("b")

    def test_default_suite_contents(self):
        suite = default_suite(severities=(0.5, 1.0))
        names = suite.names()
        assert "clean" in names
        assert "gaussian_noise@0.5" in names and "blur@1" in names
        assert "class_skew" in names and "composite_blur_noise" in names
        restricted = default_suite(
            corruptions=("blur",),
            severities=(0.5,),
            include_class_skew=False,
            include_composite=False,
        )
        assert restricted.names() == ("clean", "blur@0.5")


class TestDriftSchedule:
    def test_sudden(self):
        schedule = DriftSchedule.sudden(3)
        assert [schedule.mix_fraction(t) for t in range(5)] == [0, 0, 0, 1.0, 1.0]

    def test_gradual(self):
        schedule = DriftSchedule.gradual(2, 6)
        fractions = [schedule.mix_fraction(t) for t in range(8)]
        assert fractions[:3] == [0.0, 0.0, 0.0]
        assert fractions[6:] == [1.0, 1.0]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_recurring(self):
        schedule = DriftSchedule.recurring(4, duty=0.5)
        fractions = [schedule.mix_fraction(t) for t in range(8)]
        assert fractions == [0.0, 0.0, 1.0, 1.0] * 2

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="kind"):
            DriftSchedule(kind="chaotic")
        with pytest.raises(ConfigurationError, match="end > start"):
            DriftSchedule.gradual(5, 5)
        with pytest.raises(ConfigurationError, match="period"):
            DriftSchedule.recurring(0)
        with pytest.raises(ConfigurationError, match="batch index"):
            DriftSchedule.sudden(0).mix_fraction(-1)


class TestDriftStream:
    def test_batches_match_schedule(self):
        base = make_dataset(n=80)
        scenario = Scenario(name="noisy", corruptions=(("gaussian_noise", 1.0),))
        stream = DriftStream.from_scenario(
            base, scenario, DriftSchedule.sudden(2), batch_size=10, num_batches=5,
            rng=0,
        )
        batches = list(stream)
        assert len(batches) == 5 == len(stream)
        for t, batch in enumerate(batches):
            assert batch.index == t
            assert batch.images.shape == (10, 1, 12, 12)
            assert batch.labels.shape == (10,)
            assert batch.shifted_mask.sum() == round(batch.mix_fraction * 10)
        assert batches[0].mix_fraction == 0.0
        assert batches[4].mix_fraction == 1.0

    def test_deterministic(self):
        base = make_dataset(n=40)
        scenario = Scenario(name="noisy", corruptions=(("impulse_noise", 0.8),))

        def collect():
            stream = DriftStream.from_scenario(
                base, scenario, DriftSchedule.gradual(1, 4), batch_size=8,
                num_batches=6, rng=3,
            )
            return np.concatenate([b.images for b in stream])

        np.testing.assert_array_equal(collect(), collect())

    def test_reiterating_same_stream_is_exact(self):
        """Inspect-then-serve: a second pass over one stream object must see
        the very same batches (per-batch child generators, not one cursor)."""
        base = make_dataset(n=40)
        scenario = Scenario(name="noisy", corruptions=(("gaussian_noise", 0.9),))
        stream = DriftStream.from_scenario(
            base, scenario, DriftSchedule.sudden(2), batch_size=8, num_batches=4,
            rng=5,
        )
        first = [(b.images.copy(), b.labels.copy()) for b in stream]
        second = [(b.images, b.labels) for b in stream]
        for (ia, la), (ib, lb) in zip(first, second):
            np.testing.assert_array_equal(ia, ib)
            np.testing.assert_array_equal(la, lb)

    def test_validation(self):
        base = make_dataset(n=10)
        empty = base.subset(np.array([], dtype=np.int64))
        with pytest.raises(ConfigurationError, match="non-empty"):
            DriftStream(base, empty, DriftSchedule.sudden(1))
        small = DigitDataset(
            images=np.zeros((4, 1, 8, 8)), labels=np.zeros(4, dtype=np.int64)
        )
        with pytest.raises(ConfigurationError, match="image shapes"):
            DriftStream(base, small, DriftSchedule.sudden(1))


class TestExpectedCalibrationError:
    def test_perfectly_calibrated_bins(self):
        # Two bins whose mean confidence equals their empirical accuracy.
        conf = np.array([0.8, 0.8, 0.8, 0.8, 0.8])
        correct = np.array([True, True, True, True, False])
        ece = expected_calibration_error(conf, correct, num_bins=10)
        assert ece == pytest.approx(0.0)

    def test_overconfident_wrong(self):
        conf = np.full(10, 0.95)
        correct = np.zeros(10, dtype=bool)
        assert expected_calibration_error(conf, correct) == pytest.approx(0.95)

    def test_empty_is_zero(self):
        assert expected_calibration_error(np.array([]), np.array([], dtype=bool)) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="disagree"):
            expected_calibration_error(np.ones(3), np.ones(2, dtype=bool))


class TestEvaluation:
    def test_evaluate_scenario_fields(self, trained_3c, tiny_test_set):
        base = tiny_test_set.subset(np.arange(80))
        scenario = Scenario(name="noisy", corruptions=(("gaussian_noise", 0.8),))
        results = evaluate_scenario(
            trained_3c.cdln, base, scenario, deltas=[0.4, 0.6]
        )
        assert [r.delta for r in results] == [0.4, 0.6]
        for r in results:
            assert r.num_samples == 80
            assert 0.0 <= r.accuracy <= 1.0
            assert r.mean_ops > 0 and r.mean_energy_pj > 0
            assert r.exit_fractions.sum() == pytest.approx(1.0)
            assert 0.0 <= r.calibration_error <= 1.0
            assert len(r.stage_names) == len(r.exit_fractions)

    def test_suite_report_aggregates(self, trained_3c, tiny_test_set):
        base = tiny_test_set.subset(np.arange(100))
        suite = default_suite(
            corruptions=("gaussian_noise",),
            severities=(0.5, 1.0),
            include_class_skew=False,
            include_composite=False,
        )
        report = evaluate_suite(trained_3c.cdln, base, suite, delta=0.6)
        assert len(report.results) == 3
        assert report.clean is not None and report.clean.scenario.is_clean
        profile = report.severity_profile()
        assert [s for s, *_ in profile] == [0.0, 0.5, 1.0]
        groups = report.by_corruption()
        assert set(groups) == {"gaussian_noise"}
        rendered = report.render()
        assert "Robustness report" in rendered
        assert "severity profile" in rendered.lower()
        payload = json.dumps(report.to_dict())
        assert "gaussian_noise@1" in payload
        assert report.for_scenario("clean") is report.clean
        with pytest.raises(ConfigurationError, match="no result"):
            report.for_scenario("nope")

    def test_corruption_shifts_exits_deeper(self, trained_3c, tiny_test_set):
        """The tentpole's qualitative claim at test scale: corrupted inputs
        are less confident, so they travel deeper and cost more."""
        base = tiny_test_set
        suite = default_suite(
            corruptions=("occlusion",),
            severities=(1.0,),
            include_class_skew=False,
            include_composite=False,
        )
        report = evaluate_suite(trained_3c.cdln, base, suite, delta=0.6)
        clean = report.clean
        severe = report.for_scenario("occlusion@1")
        assert severe.accuracy < clean.accuracy
        assert severe.mean_exit_stage > clean.mean_exit_stage
        assert severe.mean_ops > clean.mean_ops
        assert report.exit_depth_shift() > 0


class TestDriftReplay:
    @pytest.fixture()
    def drift_setup(self, trained_3c_all_taps, tiny_test_set):
        cdln = trained_3c_all_taps.cdln
        base = tiny_test_set
        scenario = Scenario(name="shift", corruptions=(("gaussian_noise", 1.0),))
        stream = DriftStream.from_scenario(
            base, scenario, DriftSchedule.sudden(2), batch_size=24, num_batches=6,
            rng=0,
        )
        return cdln, stream

    def test_hard_cap_never_violated(self, drift_setup):
        cdln, stream = drift_setup
        totals = cdln.path_cost_table().exit_totals()
        hard = float((totals[-2] + totals[-1]) / 2)
        result = replay_drift(cdln, stream, hard_ops_budget=hard, delta=0.6)
        assert result.hard_cap_held
        assert result.budget_violations == 0
        assert result.max_ops_overall <= hard
        assert len(result.phases) == 6
        assert "held for every request" in result.render()

    def test_soft_target_with_recalibration(self, drift_setup):
        cdln, stream = drift_setup
        baseline_ops = float(cdln.path_cost_table().baseline_cost.total)
        result = replay_drift(
            cdln,
            stream,
            target_mean_ops=0.75 * baseline_ops,
            delta=0.6,
            recalibrate_every=2,
        )
        assert result.recalibrations >= 1
        assert result.phases[0].delta > 0
        clean_ops, shifted_ops = result.mean_ops_by_regime()
        assert np.isfinite(clean_ops) and np.isfinite(shifted_ops)
        payload = result.to_dict()
        assert len(payload["phases"]) == 6

    def test_fixed_delta_replay(self, drift_setup):
        cdln, stream = drift_setup
        result = replay_drift(cdln, stream, delta=0.6)
        assert result.final_delta == 0.6
        assert all(p.delta == 0.6 for p in result.phases)

    def test_learning_options_are_gone(self, drift_setup):
        """Online regime learning is deleted: neither replay recipe takes
        its settings, and results report no learned regimes."""
        removed = {
            "learning", "unknown_distance", "learn_samples", "learn_batches",
            "calibrator", "table_path",
        }
        for replay in (replay_drift, budgeted_drift_replay):
            params = set(inspect.signature(replay).parameters)
            assert not removed & params, replay.__name__
        cdln, stream = drift_setup
        result = replay_drift(cdln, stream, delta=0.6)
        assert not hasattr(result, "learned_regimes")
        assert "learned_regimes" not in result.to_dict()


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gaussian_noise@1" in out
        assert "class_skew" in out

    @pytest.mark.parametrize(
        "flags", [["--learn"], ["--unknown-distance", "0.5"]]
    )
    def test_learning_flags_are_gone(self, flags, capsys):
        with pytest.raises(SystemExit) as exited:
            cli_main(["run", "--tier", "tiny", "--adaptive", *flags])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_corruption_is_config_error(self, capsys):
        code = cli_main(["list", "--corruptions", "fog"])
        assert code == 2
        assert "unknown corruption" in capsys.readouterr().err

    def test_duplicate_severities_deduplicated(self, capsys):
        assert cli_main(["list", "--severities", "0.5", ".5", "0.5"]) == 0
        out = capsys.readouterr().out
        rows = [ln for ln in out.splitlines() if ln.startswith("| blur@0.5 ")]
        assert len(rows) == 1

    def test_label_only_suite_skips_drift_and_writes_report(
        self, capsys, tmp_path
    ):
        out_path = tmp_path / "report.json"
        code = cli_main(
            [
                "run",
                "--tier", "tiny",
                "--seed", "7",
                "--corruptions", "label_noise",
                "--severities", "1.0",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "skipping the drift replay" in out
        payload = json.loads(out_path.read_text())
        assert "drift" not in payload
        assert payload["robustness"]["results"]

    def test_tables_writes_operating_table(self, capsys, tmp_path):
        from repro.serving.adaptive import OperatingTable

        out_path = tmp_path / "model.optable.json"
        code = cli_main(
            [
                "tables",
                "--tier", "tiny",
                "--seed", "7",
                "--corruptions", "gaussian_noise",
                "--severities", "1.0",
                "--deltas", "0.3", "0.6", "0.9",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Operating table" in out
        table = OperatingTable.load(out_path)
        assert set(table.regime_names) == {"clean", "gaussian_noise@1"}
        assert [p.delta for p in table.entry("clean").points] == [0.3, 0.6, 0.9]

    def test_run_adaptive_drift(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = cli_main(
            [
                "run",
                "--tier", "tiny",
                "--seed", "7",
                "--corruptions", "gaussian_noise",
                "--severities", "1.0",
                "--drift", "sudden",
                "--drift-batches", "9",
                "--drift-batch-size", "32",
                "--adaptive",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adaptive table retargeting" in out
        payload = json.loads(out_path.read_text())
        assert payload["drift"]["budget_violations"] == 0
        assert payload["drift"]["recalibrations"] == 0
        assert payload["drift"]["retargets"] >= 1

    def test_run_tiny_restricted(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = cli_main(
            [
                "run",
                "--tier", "tiny",
                "--seed", "7",
                "--corruptions", "gaussian_noise",
                "--severities", "0.5", "1.0",
                "--drift", "sudden",
                "--drift-batches", "6",
                "--drift-batch-size", "16",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Robustness report" in out
        assert "Drift replay" in out
        assert "hard per-request cap" in out
        payload = json.loads(out_path.read_text())
        assert payload["drift"]["budget_violations"] == 0
        assert payload["robustness"]["monotonic_degradation"] in (True, False)
