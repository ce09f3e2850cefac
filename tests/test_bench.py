"""Tests for the repro.bench harness: registry, artifacts, compare gate.

Everything here uses toy benchmark specs (no model training) so the suite
stays fast; the real suites are exercised by the benchmark front ends.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench import (
    SCHEMA,
    BenchArtifact,
    BenchContext,
    BenchResult,
    Registry,
    Tolerance,
    benchmark,
    compare_dirs,
    load_artifact,
    load_suites,
    measure,
    run_benchmark,
    run_benchmarks,
    tier_from_env,
)
from repro.bench.artifact import validate_artifact_dict
from repro.bench.cli import main as cli_main
from repro.bench.runner import BenchCheckFailures
from repro.errors import ConfigurationError


def make_registry(metric_value: float = 2.0) -> Registry:
    """A registry with one cheap benchmark (no training)."""
    registry = Registry()

    @benchmark(
        "toy",
        group="tests",
        rounds=2,
        warmup_rounds=0,
        tolerances={"gated": Tolerance(rel=0.1), "loose": None},
        registry=registry,
    )
    def toy(ctx: BenchContext) -> BenchResult:
        return BenchResult(
            metrics={"gated": metric_value, "loose": 123.0},
            units=10.0,
            text="toy table",
            payload=metric_value,
        )

    @toy.check
    def _check(res: BenchResult) -> None:
        assert res.payload > 0

    return registry


class TestTolerance:
    def test_band_arithmetic(self):
        band = Tolerance(rel=0.1, abs=0.5)
        assert band.accepts(10.4, 10.0)  # inside 0.5 + 1.0
        assert band.accepts(11.5, 10.0)  # exactly on the edge
        assert not band.accepts(11.6, 10.0)
        assert Tolerance().accepts(3.0, 3.0)
        assert not Tolerance().accepts(3.0, 3.0001)

    def test_negative_bands_rejected(self):
        with pytest.raises(ConfigurationError):
            Tolerance(rel=-0.1)
        with pytest.raises(ConfigurationError):
            Tolerance(abs=-1.0)


class TestRegistry:
    def test_registration_and_lookup(self):
        registry = make_registry()
        spec = registry.get("toy")
        assert spec.group == "tests"
        assert "toy" in registry
        assert len(registry) == 1

    def test_duplicate_name_rejected(self):
        registry = make_registry()

        with pytest.raises(ConfigurationError, match="already registered"):

            @benchmark("toy", registry=registry)
            def again(ctx):
                return BenchResult(metrics={})

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown benchmark"):
            make_registry().get("nope")

    def test_context_validates_tier(self):
        spec = make_registry().get("toy")
        ctx = spec.context("tiny", seed=7)
        assert ctx.tier == "tiny"
        assert ctx.seed == 7
        assert ctx.scale.num_train == 400
        with pytest.raises(ConfigurationError, match="scale tier"):
            spec.context("huge")

    def test_tier_params_reach_context(self):
        registry = Registry()

        @benchmark("tiered", tiers={"tiny": {"batch": 8}}, registry=registry)
        def tiered(ctx):
            return BenchResult(metrics={"batch": float(ctx.params["batch"])})

        ctx = registry.get("tiered").context("tiny")
        assert ctx.params == {"batch": 8}
        assert registry.get("tiered").context("small").params == {}

    def test_builtin_suites_register_all_benchmarks(self):
        registry = load_suites()
        names = set(registry.names())
        expected = {
            "table3_accuracy", "fig5_ops", "fig6_energy", "fig7_accuracy_stages",
            "fig8_difficulty", "fig9_stage_sweep", "fig10_delta_sweep",
            "table4_examples", "ablation_confidence_policies",
            "ablation_gain_epsilon", "ablation_lc_training_rule",
            "ablation_scalable_effort", "serving_throughput",
            "serving_delta_budget", "serving_hot_path",
            "scenarios_robustness_sweep", "scenarios_drift_replay",
        }
        assert expected <= names

    def test_load_suites_idempotent(self):
        before = len(load_suites())
        assert len(load_suites()) == before


class TestMeasure:
    def test_rounds_and_warmup_counts(self):
        calls = []

        def fn():
            calls.append(1)
            return len(calls)

        stats, payload = measure(fn, rounds=3, warmup_rounds=2)
        assert len(calls) == 5
        assert payload == 5
        assert stats.rounds == 3
        assert len(stats.wall_s) == 3
        assert stats.min_s <= stats.mean_s <= stats.max_s
        assert stats.peak_rss_mb > 0

    def test_bad_protocol_rejected(self):
        with pytest.raises(Exception):
            measure(lambda: None, rounds=0)
        with pytest.raises(ValueError):
            measure(lambda: None, warmup_rounds=-1)


class TestArtifact:
    def test_run_write_load_round_trip(self, tmp_path):
        spec = make_registry().get("toy")
        artifact = run_benchmark(spec, tier="tiny", seed=3)
        assert artifact.schema == SCHEMA
        assert artifact.metrics == {"gated": 2.0, "loose": 123.0}
        assert artifact.throughput_per_s is not None
        assert artifact.environment["numpy"]

        path = artifact.write(tmp_path)
        assert path.name == "BENCH_toy.json"
        loaded = load_artifact(path)
        assert loaded.benchmark == "toy"
        assert loaded.tier == "tiny"
        assert loaded.seed == 3
        assert loaded.metrics == artifact.metrics
        assert loaded.timing["rounds"] == spec.rounds

    def test_schema_mismatch_rejected(self, tmp_path):
        spec = make_registry().get("toy")
        path = run_benchmark(spec, tier="tiny").write(tmp_path)
        data = json.loads(path.read_text())
        data["schema"] = "repro.bench/999"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match="schema"):
            load_artifact(path)

    @pytest.mark.parametrize(
        ("content", "match"),
        [
            (b"\xff{}", "not UTF-8"),
            (b"null", "expected a JSON object"),
            (b"[1, 2]", "expected a JSON object"),
        ],
        ids=["not_utf8", "null", "list"],
    )
    def test_unreadable_artifact_rejected(self, tmp_path, content, match):
        path = tmp_path / "BENCH_toy.json"
        path.write_bytes(content)
        with pytest.raises(ConfigurationError, match=match):
            load_artifact(path)

    def test_ill_typed_field_rejected(self, tmp_path):
        spec = make_registry().get("toy")
        path = run_benchmark(spec, tier="tiny").write(tmp_path)
        data = json.loads(path.read_text())
        data["timing"] = 5
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match="malformed record"):
            load_artifact(path)

    def test_missing_keys_and_bad_metrics_rejected(self):
        with pytest.raises(ConfigurationError, match="missing keys"):
            validate_artifact_dict({"schema": SCHEMA})
        spec = make_registry().get("toy")
        good = run_benchmark(spec, tier="tiny").to_dict()
        bad = dict(good, metrics={"x": "fast"})
        with pytest.raises(ConfigurationError, match="numeric"):
            validate_artifact_dict(bad)

    def test_non_finite_metric_rejected(self):
        artifact = BenchArtifact(
            benchmark="t", group="g", tier="tiny", seed=0,
            timing={}, metrics={"bad": float("nan")}, environment={},
        )
        with pytest.raises(ConfigurationError, match="non-finite"):
            artifact.to_dict()

    def test_check_flag_runs_shape_check(self):
        registry = Registry()

        @benchmark("fails", registry=registry)
        def fails(ctx):
            return BenchResult(metrics={}, payload=None)

        @fails.check
        def _check(res):
            raise AssertionError("shape violated")

        run_benchmark(registry.get("fails"), tier="tiny")  # checks off: fine
        with pytest.raises(AssertionError, match="shape violated"):
            run_benchmark(registry.get("fails"), tier="tiny", check=True)

    def test_failed_check_does_not_stop_the_run(
        self, tmp_path, monkeypatch, capsys
    ):
        """``run --check`` runs every benchmark, reports every failed
        check and exits 1; a failed benchmark writes no artifact."""
        import repro.bench.cli as cli_mod
        import repro.bench.runner as runner_mod

        registry = Registry()

        @benchmark("fails", rounds=1, warmup_rounds=0, registry=registry)
        def fails(ctx):
            return BenchResult(metrics={"m": 1.0})

        @fails.check
        def _check(res):
            raise AssertionError("shape violated")

        @benchmark("passes", rounds=1, warmup_rounds=0, registry=registry)
        def passes(ctx):
            return BenchResult(metrics={"m": 2.0})

        original = runner_mod.run_benchmarks
        monkeypatch.setattr(
            cli_mod,
            "run_benchmarks",
            lambda *a, **kw: original(*a, **dict(kw, registry=registry)),
        )
        code = cli_main(
            [
                "run", "--scale", "tiny", "--check", "--out", str(tmp_path),
                "--only", "fails", "passes",
            ]
        )
        assert code == 1
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_passes.json"]
        err = capsys.readouterr().err
        assert "FAIL fails: shape violated" in err

    @staticmethod
    def _mixed_registry() -> Registry:
        """``a_fails`` and ``c_fails`` fail their checks; ``b_passes``
        passes (registry order is by name within a group)."""
        registry = Registry()

        for name, limit in (("a_fails", 5.0), ("b_passes", 0.0), ("c_fails", 9.0)):

            @benchmark(name, rounds=1, warmup_rounds=0, registry=registry)
            def run(ctx):
                return BenchResult(metrics={"m": 1.0})

            def check(res, limit=limit):
                # A message-less failure, as a bare ``assert`` raises in a
                # suite module (pytest rewrites the ones in this file).
                if res.metrics["m"] <= limit:
                    raise AssertionError

            run.check(check)
        return registry

    def test_run_benchmarks_reports_every_failure(self, tmp_path):
        with pytest.raises(BenchCheckFailures) as caught:
            run_benchmarks(
                tier="tiny", out_dir=tmp_path, check=True,
                registry=self._mixed_registry(),
            )
        failures = caught.value
        # Callers that catch AssertionError (the pytest front ends) still do.
        assert isinstance(failures, AssertionError)
        assert [name for name, _ in failures.failures] == ["a_fails", "c_fails"]
        assert [a.benchmark for a in failures.artifacts] == ["b_passes"]
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_b_passes.json"]
        assert "a_fails" in str(failures) and "c_fails" in str(failures)

    def test_bare_assert_failure_names_its_line(self):
        with pytest.raises(BenchCheckFailures) as caught:
            run_benchmarks(
                ["a_fails"], tier="tiny", check=True,
                registry=self._mixed_registry(),
            )
        ((name, message),) = caught.value.failures
        assert name == "a_fails"
        assert message.startswith("test_bench.py:")
        assert message.endswith(": raise AssertionError")

    def test_unchecked_run_writes_every_artifact(self, tmp_path):
        artifacts = run_benchmarks(
            tier="tiny", out_dir=tmp_path, registry=self._mixed_registry()
        )
        names = ["a_fails", "b_passes", "c_fails"]
        assert [a.benchmark for a in artifacts] == names
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"BENCH_{n}.json" for n in names
        ]


class TestCompare:
    def _write_dirs(self, tmp_path, registry, *, perturb=None):
        base_dir = tmp_path / "base"
        run_dir = tmp_path / "run"
        run_benchmarks(tier="tiny", out_dir=base_dir, registry=registry)
        run_benchmarks(tier="tiny", out_dir=run_dir, registry=registry)
        if perturb:
            path = run_dir / "BENCH_toy.json"
            data = json.loads(path.read_text())
            data["metrics"].update(perturb)
            path.write_text(json.dumps(data))
        return run_dir, base_dir

    def test_identical_run_passes(self, tmp_path):
        registry = make_registry()
        run_dir, base_dir = self._write_dirs(tmp_path, registry)
        report = compare_dirs(run_dir, base_dir, registry=registry)
        assert report.passed
        assert report.exit_code == 0
        assert "PASS" in report.render()

    def test_perturbed_metric_fails(self, tmp_path):
        registry = make_registry()
        run_dir, base_dir = self._write_dirs(
            tmp_path, registry, perturb={"gated": 2.5}
        )
        report = compare_dirs(run_dir, base_dir, registry=registry)
        assert not report.passed
        assert report.exit_code == 1
        assert [d.metric for d in report.regressions] == ["gated"]
        assert "REGRESSION" in report.render()

    def test_informational_metric_never_fails(self, tmp_path):
        registry = make_registry()
        run_dir, base_dir = self._write_dirs(
            tmp_path, registry, perturb={"loose": 1e9}
        )
        report = compare_dirs(run_dir, base_dir, registry=registry)
        assert report.passed

    def test_missing_run_artifact_fails(self, tmp_path):
        registry = make_registry()
        run_dir, base_dir = self._write_dirs(tmp_path, registry)
        (run_dir / "BENCH_toy.json").unlink()
        report = compare_dirs(run_dir, base_dir, registry=registry)
        assert report.missing == ["toy"]
        assert report.exit_code == 1

    def test_vanished_metric_fails(self, tmp_path):
        registry = make_registry()
        run_dir, base_dir = self._write_dirs(tmp_path, registry)
        path = run_dir / "BENCH_toy.json"
        data = json.loads(path.read_text())
        del data["metrics"]["gated"]
        path.write_text(json.dumps(data))
        report = compare_dirs(run_dir, base_dir, registry=registry)
        assert not report.passed
        assert any("vanished" in e for e in report.errors)

    def test_unbaselined_run_artifact_fails(self, tmp_path):
        registry = make_registry()
        run_dir, base_dir = self._write_dirs(tmp_path, registry)
        extra = json.loads((run_dir / "BENCH_toy.json").read_text())
        extra["benchmark"] = "brand_new"
        (run_dir / "BENCH_brand_new.json").write_text(json.dumps(extra))
        report = compare_dirs(run_dir, base_dir, registry=registry)
        assert report.unbaselined == ["brand_new"]
        assert report.exit_code == 1
        assert "UNBASELINED" in report.render()

    def test_seed_mismatch_fails(self, tmp_path):
        registry = make_registry()
        run_dir, base_dir = self._write_dirs(tmp_path, registry)
        path = run_dir / "BENCH_toy.json"
        data = json.loads(path.read_text())
        data["seed"] = 99
        path.write_text(json.dumps(data))
        report = compare_dirs(run_dir, base_dir, registry=registry)
        assert not report.passed
        assert any("seed mismatch" in e for e in report.errors)

    def test_run_only_metric_fails(self, tmp_path):
        registry = make_registry()
        run_dir, base_dir = self._write_dirs(
            tmp_path, registry, perturb={"brand_new_metric": 7.0}
        )
        report = compare_dirs(run_dir, base_dir, registry=registry)
        assert not report.passed
        assert any("no baseline value" in e for e in report.errors)

    def test_tier_mismatch_fails(self, tmp_path):
        registry = make_registry()
        run_dir, base_dir = self._write_dirs(tmp_path, registry)
        path = run_dir / "BENCH_toy.json"
        data = json.loads(path.read_text())
        data["tier"] = "full"
        path.write_text(json.dumps(data))
        report = compare_dirs(run_dir, base_dir, registry=registry)
        assert not report.passed
        assert any("tier mismatch" in e for e in report.errors)

    def test_empty_baseline_dir_fails(self, tmp_path):
        registry = make_registry()
        report = compare_dirs(tmp_path, tmp_path, registry=registry)
        assert report.exit_code == 1


class TestScaleTierMechanism:
    def test_default_and_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert tier_from_env() == "small"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert tier_from_env() == "tiny"

    def test_invalid_tier_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "gigantic")
        with pytest.raises(ConfigurationError, match="REPRO_BENCH_SCALE"):
            tier_from_env()


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5_ops" in out
        assert "serving_throughput" in out

    def test_compare_exit_codes_from_cli(self, tmp_path, capsys):
        registry = make_registry()
        base_dir = tmp_path / "base"
        run_benchmarks(tier="tiny", out_dir=base_dir, registry=registry)
        code = cli_main(
            ["compare", "--run-dir", str(base_dir), "--baseline-dir", str(base_dir)]
        )
        assert code == 0
        path = base_dir / "BENCH_toy.json"
        data = json.loads(path.read_text())
        data["metrics"]["gated"] = 99.0
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "BENCH_toy.json").write_text(json.dumps(data))
        code = cli_main(
            ["compare", "--run-dir", str(run_dir), "--baseline-dir", str(base_dir)]
        )
        assert code == 1

    def test_update_baseline_inherits_existing_tier(self, tmp_path, monkeypatch):
        from repro.bench.cli import _resolve_tier

        registry = make_registry()
        base_dir = tmp_path / "baselines"
        run_benchmarks(tier="tiny", out_dir=base_dir, registry=registry)
        # Env says small, but the committed baselines are tiny: inherit tiny.
        monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
        assert _resolve_tier(None, base_dir) == "tiny"
        assert _resolve_tier("full", base_dir) == "full"  # explicit flag wins
        assert _resolve_tier(None, tmp_path / "empty") == "small"

    def test_update_baseline_prunes_stale_artifacts(self, tmp_path, capsys):
        from repro.bench.cli import cmd_run

        registry = make_registry()
        base_dir = tmp_path / "baselines"
        run_benchmarks(tier="tiny", out_dir=base_dir, registry=registry)
        stale = base_dir / "BENCH_removed_bench.json"
        stale.write_text((base_dir / "BENCH_toy.json").read_text())

        # A full update-baseline over the *global* registry would train
        # models; exercise the pruning logic through cmd_run's seam with
        # the toy registry by monkey-free direct call.
        import argparse

        import repro.bench.cli as cli_mod
        import repro.bench.runner as runner_mod

        original = runner_mod.run_benchmarks
        cli_mod.run_benchmarks = (
            lambda *a, **kw: original(*a, **dict(kw, registry=registry))
        )
        try:
            args = argparse.Namespace(
                scale="tiny", seed=0, only=None, rounds=None,
                warmup_rounds=None, check=False,
            )
            assert cmd_run(args, base_dir, baseline_dir=base_dir) == 0
        finally:
            cli_mod.run_benchmarks = original
        assert not stale.exists()
        assert (base_dir / "BENCH_toy.json").exists()

    def test_unknown_benchmark_is_config_error(self, capsys):
        code = cli_main(["run", "--only", "no_such_bench", "--scale", "tiny"])
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestCliErrorPaths:
    """The harness's failure modes: every bad input must map to a clear
    message and the right exit code (2 = usage/config, 1 = gate failure)."""

    def _baseline_dir(self, tmp_path):
        registry = make_registry()
        base_dir = tmp_path / "base"
        run_benchmarks(tier="tiny", out_dir=base_dir, registry=registry)
        return base_dir

    def test_unknown_spec_in_update_baseline(self, capsys):
        code = cli_main(
            ["update-baseline", "--only", "no_such_bench", "--scale", "tiny",
             "--baseline-dir", "/tmp/nonexistent-baselines"]
        )
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_compare_missing_baseline_dir_fails(self, tmp_path, capsys):
        run_dir = self._baseline_dir(tmp_path)
        code = cli_main(
            ["compare", "--run-dir", str(run_dir),
             "--baseline-dir", str(tmp_path / "never-written")]
        )
        assert code == 1
        assert "no baseline artifacts" in capsys.readouterr().out

    def test_compare_missing_run_artifact_fails(self, tmp_path, capsys):
        base_dir = self._baseline_dir(tmp_path)
        empty_run = tmp_path / "run"
        empty_run.mkdir()
        (empty_run / "BENCH_other.json").write_text(
            (base_dir / "BENCH_toy.json").read_text().replace('"toy"', '"other"')
        )
        code = cli_main(
            ["compare", "--run-dir", str(empty_run), "--baseline-dir", str(base_dir)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "MISSING" in out and "UNBASELINED" in out

    def test_corrupt_artifact_json_is_config_error(self, tmp_path, capsys):
        base_dir = self._baseline_dir(tmp_path)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "BENCH_toy.json").write_text("{not json")
        code = cli_main(
            ["compare", "--run-dir", str(run_dir), "--baseline-dir", str(base_dir)]
        )
        assert code == 2
        assert "cannot read artifact" in capsys.readouterr().err

    def test_truncated_artifact_dict_is_config_error(self, tmp_path):
        path = tmp_path / "BENCH_half.json"
        path.write_text(json.dumps({"schema": SCHEMA, "benchmark": "half"}))
        with pytest.raises(ConfigurationError, match="missing keys"):
            load_artifact(path)

    def test_tolerance_band_edge_passes_epsilon_beyond_fails(self, tmp_path):
        # Exactly-representable numbers so "on the edge" is exact in binary:
        # baseline 2.0, Tolerance(abs=0.5), run value 2.5.
        registry = Registry()

        @benchmark(
            "edge",
            rounds=1,
            warmup_rounds=0,
            tolerances={"gated": Tolerance(abs=0.5)},
            registry=registry,
        )
        def edge(ctx):
            return BenchResult(metrics={"gated": 2.0})

        base_dir = tmp_path / "base"
        run_dir = tmp_path / "run"
        run_benchmarks(tier="tiny", out_dir=base_dir, registry=registry)
        run_benchmarks(tier="tiny", out_dir=run_dir, registry=registry)
        path = run_dir / "BENCH_edge.json"
        data = json.loads(path.read_text())

        # |2.5 - 2.0| == 0.5: exactly on the band edge must pass...
        data["metrics"]["gated"] = 2.5
        path.write_text(json.dumps(data))
        report = compare_dirs(run_dir, base_dir, registry=registry)
        assert report.passed

        # ...while one representable step beyond it must fail.
        data["metrics"]["gated"] = np.nextafter(2.5, 10.0)
        path.write_text(json.dumps(data))
        report = compare_dirs(run_dir, base_dir, registry=registry)
        assert not report.passed
        assert [d.metric for d in report.regressions] == ["gated"]

    def test_mixed_tier_baselines_need_explicit_scale(self, tmp_path):
        from repro.bench.cli import _resolve_tier

        registry = make_registry()
        base_dir = tmp_path / "baselines"
        run_benchmarks(tier="tiny", out_dir=base_dir, registry=registry)
        other = json.loads((base_dir / "BENCH_toy.json").read_text())
        other["benchmark"] = "toy_small"
        other["tier"] = "small"
        (base_dir / "BENCH_toy_small.json").write_text(json.dumps(other))
        with pytest.raises(ConfigurationError, match="mix tiers"):
            _resolve_tier(None, base_dir)
