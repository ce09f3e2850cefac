"""Tests for the operating-table artifact and the drift-rate signal: the
atomic table rewrite, the v1/v2 schemas, nearest-regime matching, and
rate-triggered retargeting.

* the table artifact rewrite is atomic -- a crash injected mid-rename
  leaves the previous file loadable, never a truncated one;
* v1 artifacts load forever and round-trip losslessly through v2, and v2
  entries written by the removed online regime learning (``"learned":
  true``, ``"accuracy": null``) load and match as ordinary regimes;
* gradual ramps fire the rate trigger within a pinned batch budget across
  seeds and slopes, while clean replays never false-trigger.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    DriftSchedule,
    Scenario,
    budgeted_drift_replay,
)
from repro.serving import (
    DeltaController,
    DriftDetector,
    OperatingTable,
    RegimeSignature,
    robust_slope,
)
from repro.serving.adaptive import TABLE_SCHEMA, TABLE_SCHEMA_V1

DELTA = 0.6
NOISE = Scenario(name="noise", corruptions=(("gaussian_noise", 1.0),))

#: Rate-detector configuration the ramp tests pin (tuned on the tier-1
#: model in float64 and float32; the bench equivalent lives in
#: repro.bench.suites.adaptive).  An 8-batch window, as the bench uses,
#: so one noisy 32-image batch cannot push the level over its threshold
#: or fake a slope on a clean stream.
RATE_KWARGS = {
    "window": 8,
    "rate_threshold": 0.003,
    "rate_window": 6,
    "rate_patience": 1,
}
#: Every seeded ramp below must rate-fire within this many batches.
DETECTION_BUDGET = 38


@pytest.fixture(scope="module")
def regime_setup(trained_3c_all_taps, tiny_test_set):
    """A clean-only table: the deployment whose live mix was never
    characterized, so any shifted traffic is an unknown regime."""
    cdln = trained_3c_all_taps.cdln
    table = OperatingTable.build(
        cdln, tiny_test_set, [Scenario(name="clean")], reference_delta=DELTA
    )
    return cdln, tiny_test_set, table


def far_signature(like: RegimeSignature) -> RegimeSignature:
    """A signature no tabulated regime matches: all mass on the deepest
    exit, stage-0 confidence collapsed."""
    fractions = np.zeros_like(np.asarray(like.exit_fractions))
    fractions[-1] = 1.0
    quantiles = np.full_like(np.asarray(like.stage0_quantiles), 0.1)
    return RegimeSignature(fractions, quantiles, count=256)


def with_learned_entry(table: OperatingTable) -> dict:
    """``table``'s v2 payload plus ``learned_0``, an entry as online regime
    learning wrote them: the ``learned`` flag, null accuracies, and a
    signature far from clean."""
    payload = json.loads(json.dumps(table.to_dict()))
    entry = json.loads(json.dumps(table.entry("clean").to_dict()))
    far = far_signature(table.entry("clean").signature)
    entry["signature"] = far.to_dict()
    entry["scenario"] = "<live mini-calibration>"
    entry["learned"] = True
    for point in entry["points"]:
        point["accuracy"] = None
        point["exit_fractions"] = list(far.exit_fractions)
    payload["regimes"]["learned_0"] = entry
    return payload


class TestAtomicRewrite:
    def test_crash_during_rename_leaves_old_table(
        self, regime_setup, tmp_path, monkeypatch
    ):
        """A crash injected mid-rewrite must leave the previous artifact
        loadable, never a truncated one."""
        _, _, table = regime_setup
        path = tmp_path / "table.json"
        table.save(path)
        before = path.read_text()
        grown = OperatingTable.from_dict(with_learned_entry(table))

        def crash(src, dst):
            raise OSError("simulated crash mid-replace")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="simulated"):
            grown.save(path)
        monkeypatch.undo()
        # The target is untouched and still loads; the partial write was
        # confined to a temporary that save() cleaned up.
        assert path.read_text() == before
        assert set(OperatingTable.load(path).regime_names) == {"clean"}
        assert [p.name for p in tmp_path.iterdir()] == ["table.json"]

    def test_save_load_round_trip(self, regime_setup, tmp_path):
        _, _, table = regime_setup
        path = table.save(tmp_path / "table.json")
        assert OperatingTable.load(path).to_dict() == table.to_dict()


class TestSchemaVersions:
    def test_current_schema_is_v2(self, regime_setup):
        _, _, table = regime_setup
        payload = table.to_dict()
        assert payload["schema"] == TABLE_SCHEMA
        for entry in payload["regimes"].values():
            assert "learned" not in entry

    def test_v1_round_trip_is_lossless(self, regime_setup):
        """A v1 artifact loads forever and re-saves as identical v2."""
        _, _, table = regime_setup
        v1 = json.loads(json.dumps(table.to_dict()))
        v1["schema"] = TABLE_SCHEMA_V1
        loaded = OperatingTable.from_dict(v1)
        assert loaded.to_dict() == table.to_dict()

    def test_learned_v2_entry_loads_and_matches_like_any_regime(
        self, regime_setup
    ):
        """v2 artifacts written by online regime learning still load: the
        ``learned`` entry is an ordinary regime, and the nearest-match
        lookup picks it for traffic that looks like it."""
        _, _, table = regime_setup
        loaded = OperatingTable.from_dict(with_learned_entry(table))
        assert set(loaded.regime_names) == {"clean", "learned_0"}
        entry = loaded.entry("learned_0")
        assert all(np.isnan(p.accuracy) for p in entry.points)
        observed = entry.signature_at(DELTA)
        name, distance = loaded.match(observed, delta=DELTA)
        assert name == "learned_0"
        assert distance == pytest.approx(0.0)
        # Clean traffic still matches the clean regime.
        clean = loaded.entry("clean").signature_at(DELTA)
        assert loaded.match(clean, delta=DELTA)[0] == "clean"
        # The flag is not carried forward: re-saves are plain v2.
        assert "learned" not in loaded.to_dict()["regimes"]["learned_0"]

    def test_nan_accuracy_round_trips_through_null(self, regime_setup):
        """Points without a labeled estimate carry accuracy NaN; that must
        serialize as JSON null, not the non-standard NaN token."""
        _, _, table = regime_setup
        grown = OperatingTable.from_dict(with_learned_entry(table))
        text = json.dumps(grown.to_dict(), allow_nan=False)  # strict JSON
        again = OperatingTable.from_dict(json.loads(text))
        assert all(
            np.isnan(p.accuracy) for p in again.entry("learned_0").points
        )

    def test_unknown_schema_refused(self):
        with pytest.raises(ConfigurationError, match="schema"):
            OperatingTable.from_dict({"schema": "repro.operating_table/v99"})

    def test_controller_retargets_onto_a_learned_v2_regime(self, regime_setup):
        """Null accuracies do not stop a retarget, which reads only each
        point's mean OPS and exit fractions: the loaded entry's own curve
        is installed."""
        _, _, table = regime_setup
        loaded = OperatingTable.from_dict(with_learned_entry(table))
        entry = loaded.entry("learned_0")
        wanted = entry.points[len(entry.points) // 3]
        controller = DeltaController(target_mean_ops=wanted.mean_ops)
        point = controller.retarget(loaded, "learned_0")
        assert point.mean_ops == wanted.mean_ops
        np.testing.assert_array_equal(
            point.exit_fractions, far_signature(entry.signature).exit_fractions
        )


class TestMatchTieHandling:
    """Regression: equidistant regimes must resolve to the
    lexicographically lowest name, never to insertion order."""

    def _twin_table(self, table: OperatingTable, first: str, second: str):
        clean = table.entry("clean").to_dict()
        payload = json.loads(json.dumps(table.to_dict()))
        payload["regimes"] = {first: clean, second: clean}
        payload["reference_regime"] = first
        return OperatingTable.from_dict(payload)

    def test_tie_breaks_to_lowest_name(self, regime_setup):
        _, _, table = regime_setup
        # Same two identical entries in both insertion orders.
        for order in (("zz", "aa"), ("aa", "zz")):
            twins = self._twin_table(table, *order)
            signature = twins.entry("aa").signature_at(DELTA)
            name, distance = twins.match(signature, delta=DELTA)
            assert name == "aa", f"insertion order {order} leaked into match"
            assert distance == pytest.approx(0.0)


class TestNearestMatch:
    def test_far_window_still_names_the_nearest_regime(self, regime_setup):
        """There is no unknown-regime cutoff: however far the observed
        window sits from every regime, the match names the nearest one and
        reports the distance."""
        _, _, table = regime_setup
        far = far_signature(table.entry("clean").signature)
        name, distance = table.match(far, delta=DELTA)
        assert name == "clean"
        assert np.isfinite(distance) and distance > 0.5


class TestRobustSlope:
    def test_matches_polyfit_on_linear_series(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            slope = rng.uniform(-0.05, 0.05)
            intercept = rng.uniform(0.0, 0.5)
            n = int(rng.integers(3, 12))
            series = intercept + slope * np.arange(n)
            fitted = np.polyfit(np.arange(n), series, 1)[0]
            assert robust_slope(series) == pytest.approx(fitted, abs=1e-12)
            assert robust_slope(series) == pytest.approx(slope, abs=1e-12)

    def test_single_outlier_cannot_swing_it(self):
        series = 0.1 + 0.01 * np.arange(9)
        spiked = series.copy()
        spiked[-1] += 5.0
        # Least squares is dragged far off the true slope by one spike...
        assert abs(np.polyfit(np.arange(9), spiked, 1)[0] - 0.01) > 0.05
        # ...the median-of-pairwise-slopes estimate barely moves.
        assert robust_slope(spiked) == pytest.approx(0.01, abs=0.005)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="slope"):
            robust_slope([0.1])
        with pytest.raises(ConfigurationError, match="slope"):
            robust_slope(np.zeros((2, 2)))


class TestRateDetectorUnit:
    def _detector(self, reference, **kwargs):
        defaults = dict(
            window=2,
            min_observations=1,
            threshold=0.25,
            rate_threshold=0.01,
            rate_window=3,
            rate_patience=2,
        )
        defaults.update(kwargs)
        return DriftDetector(reference, **defaults)

    def _signature_at(self, reference, fraction):
        """Interpolate the reference toward a shifted regime; the drift
        score grows monotonically with ``fraction``."""
        shifted = far_signature(reference)

        def mix(a, b):
            return (1 - fraction) * np.asarray(a) + fraction * np.asarray(b)

        return RegimeSignature(
            mix(reference.exit_fractions, shifted.exit_fractions),
            mix(reference.stage0_quantiles, shifted.stage0_quantiles),
            count=256,
        )

    def _reference(self):
        return RegimeSignature(
            np.array([0.7, 0.2, 0.1]),
            np.linspace(0.5, 0.9, 9),
            count=4096,
        )

    def test_ramp_fires_rate_before_level(self):
        reference = self._reference()
        detector = self._detector(reference)
        event = None
        for step in range(40):
            event = detector.observe_signature(
                self._signature_at(reference, 0.008 * step)
            )
            if event is not None:
                break
        assert event is not None and event.trigger == "rate"
        # The level trigger alone would have needed score >= 0.25; the
        # ramp was caught while still well below it.
        assert event.score < detector.threshold

    def test_rate_params_validation(self):
        reference = self._reference()
        with pytest.raises(ConfigurationError, match="rate_threshold"):
            self._detector(reference, rate_threshold=0.0)
        with pytest.raises(ConfigurationError, match="rate_window"):
            self._detector(reference, rate_window=2)
        with pytest.raises(ConfigurationError, match="rate_patience"):
            self._detector(reference, rate_patience=0)
        with pytest.raises(ConfigurationError, match="rate_floor_fraction"):
            self._detector(reference, rate_floor_fraction=1.5)

    def test_rate_floor_gates_low_level_slopes(self):
        """A climbing slope whose level sits below the elevation floor
        must not count toward the rate streak -- that is what keeps a
        stationary noisy score from reading as a ramp."""
        reference = self._reference()
        gated = self._detector(reference, rate_floor_fraction=1.0)
        open_floor = self._detector(reference, rate_floor_fraction=0.0)
        fired_open = False
        for step in range(40):
            signature = self._signature_at(reference, 0.008 * step)
            assert gated.observe_signature(signature) is None or (
                gated.last_score >= gated.threshold
            ), "gated detector may only fire at full level"
            if open_floor.armed:
                fired_open = (
                    open_floor.observe_signature(signature) is not None
                    or fired_open
                )
        assert fired_open, "floor 0 must let the same ramp rate-fire"


class TestRateDetectorReplays:
    """Seeded end-to-end pins: gradual ramps the level trigger would
    sleep through must rate-fire within a budgeted number of batches;
    clean streams must never false-trigger."""

    @pytest.mark.parametrize("span", [64, 72, 80])
    @pytest.mark.parametrize("seed", range(5))
    def test_gradual_ramp_fires_rate_first(
        self, regime_setup, span, seed
    ):
        cdln, base, _ = regime_setup
        result = budgeted_drift_replay(
            cdln,
            base,
            NOISE,
            DriftSchedule.gradual(4, span),
            rng=seed,
            batch_size=32,
            num_batches=40,
            delta=DELTA,
            adaptive=True,
            detector_kwargs=RATE_KWARGS,
        )
        assert result.retargets >= 1
        assert result.retarget_triggers[0] == "rate"
        # retarget_observations resets on rebase: the first entry is the
        # whole batch budget the detection consumed.
        assert result.retarget_observations[0] <= DETECTION_BUDGET
        assert result.hard_cap_held

    @pytest.mark.parametrize("seed", range(5))
    def test_clean_stream_never_false_triggers(self, regime_setup, seed):
        cdln, base, _ = regime_setup
        result = budgeted_drift_replay(
            cdln,
            base,
            NOISE,
            DriftSchedule.sudden(41),  # shift beyond the horizon: all clean
            rng=100 + seed,
            batch_size=32,
            num_batches=40,
            delta=DELTA,
            adaptive=True,
            detector_kwargs=RATE_KWARGS,
        )
        assert result.retargets == 0
        assert result.retarget_triggers == ()


class TestOverheadAccounting:
    """Table retargets are free: an adaptive replay charges no online
    control-plane OPS, however often the detector fires."""

    def test_frozen_table_pays_zero_overhead(self, regime_setup):
        cdln, base, _ = regime_setup
        result = budgeted_drift_replay(
            cdln,
            base,
            NOISE,
            DriftSchedule.sudden(3),
            rng=0,
            batch_size=32,
            num_batches=8,
            delta=DELTA,
            adaptive=True,
            table_scenarios=[Scenario(name="clean")],
        )
        assert result.total_overhead_ops == 0.0
