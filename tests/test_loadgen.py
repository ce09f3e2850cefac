"""Load generator: schedules, virtual-time SLO reports, shedding, config.

The contracts pinned here are the ones the gated benchmarks and docs
lean on: seeded schedules materialize identically, the simulated runner
is fully deterministic (same seed + schedule => the same SLOReport),
shed requests exit at stage 0 and are never dropped, the shed fraction
reconciles exactly between the report / the engine metrics / the span
trace, and deadline expiry marks answers without suppressing them.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    InputValidationError,
    SerializationError,
)
from repro.obs import Observer, fold_spans, read_spans
from repro.serving import (
    ArrivalSchedule,
    FaultPlan,
    FaultSpec,
    InferenceEngine,
    InferenceResponse,
    LoadRunner,
    MicroBatchPolicy,
    ServingConfig,
    ShedPolicy,
    SLOReport,
)
from repro.serving.batching import WALL_CLOCK
from repro.serving.schedule import Arrival

CAPACITY = 3e7
SLO = 0.25


def make_engine(trained, **overrides):
    return InferenceEngine.from_config(
        ServingConfig(model=trained.cdln, **overrides)
    )


class TestArrivalSchedule:
    def test_poisson_deterministic_and_rate(self):
        sched = ArrivalSchedule.poisson(rate_rps=300, duration_s=4, seed=11)
        a1, a2 = sched.materialize(), sched.materialize()
        assert a1 == a2
        # Poisson(rate*T) count: 1200 expected, 5 sigma ~ 173.
        assert 1000 < len(a1) < 1400
        assert all(0 <= a.t < 4 for a in a1)
        assert [a.t for a in a1] == sorted(a.t for a in a1)

    def test_different_seeds_differ(self):
        base = dict(rate_rps=100, duration_s=2)
        a = ArrivalSchedule.poisson(seed=1, **base).materialize()
        b = ArrivalSchedule.poisson(seed=2, **base).materialize()
        assert a != b

    def test_bursty_rate_shape(self):
        sched = ArrivalSchedule.bursty(
            rate_rps=100, burst_factor=4, burst_start_s=1, burst_duration_s=1,
            duration_s=3, seed=0,
        )
        assert sched.rate_at(0.5) == 100
        assert sched.rate_at(1.5) == 400
        assert sched.rate_at(2.5) == 100
        arrivals = sched.materialize()
        in_burst = sum(1 for a in arrivals if 1 <= a.t < 2)
        outside = len(arrivals) - in_burst
        # ~400 in the burst second vs ~200 across the two calm seconds.
        assert in_burst > outside

    def test_diurnal_rate_shape(self):
        sched = ArrivalSchedule.diurnal(
            rate_rps=50, peak_rate_rps=250, period_s=10, duration_s=10, seed=0
        )
        assert sched.rate_at(0.0) == pytest.approx(50)
        assert sched.rate_at(5.0) == pytest.approx(250)
        assert sched.peak_rate() == 250

    def test_scenario_and_priority_mix(self):
        sched = ArrivalSchedule.poisson(
            rate_rps=500, duration_s=2, seed=5,
            scenario_mix={"fog": 1.0, None: 1.0},
            priority_mix={0: 3.0, 1: 1.0},
            deadline_s=0.5,
        )
        arrivals = sched.materialize()
        fog = sum(1 for a in arrivals if a.scenario == "fog")
        high = sum(1 for a in arrivals if a.priority == 1)
        assert 0 < fog < len(arrivals)
        assert 0 < high < len(arrivals)
        assert abs(fog / len(arrivals) - 0.5) < 0.1
        assert all(a.deadline_s == 0.5 for a in arrivals)

    def test_jsonl_round_trip(self, tmp_path):
        sched = ArrivalSchedule.poisson(
            rate_rps=200, duration_s=1, seed=9, scenario_mix={"noise": 1.0}
        )
        path = sched.save_jsonl(tmp_path / "trace.jsonl")
        replay = ArrivalSchedule.from_jsonl(path)
        assert replay.kind == "replay"
        assert replay.materialize() == sched.materialize()

    def test_from_jsonl_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": "nope"}) + "\n")
        with pytest.raises(SerializationError):
            ArrivalSchedule.from_jsonl(path)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.poisson(rate_rps=0, duration_s=1)
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.poisson(rate_rps=10, duration_s=-1)
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.bursty(
                rate_rps=10, burst_factor=0.5, burst_start_s=0,
                burst_duration_s=1, duration_s=2,
            )
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.diurnal(
                rate_rps=100, peak_rate_rps=50, period_s=10, duration_s=10
            )
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.replay([])
        with pytest.raises(ConfigurationError):
            Arrival(t=-1.0)
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.poisson(
                rate_rps=10, duration_s=1, scenario_mix={"fog": -1.0}
            )


class TestShedPolicy:
    def test_needs_a_trigger(self):
        with pytest.raises(ConfigurationError):
            ShedPolicy()

    def test_depth_trigger(self):
        policy = ShedPolicy(max_queue_depth=10)
        assert not policy.should_shed(queue_depth=10)
        assert policy.should_shed(queue_depth=11)

    def test_predicted_wait_trigger(self):
        policy = ShedPolicy(max_predicted_wait_s=0.1)
        assert not policy.should_shed(queue_depth=5, predicted_wait_s=None)
        assert not policy.should_shed(queue_depth=5, predicted_wait_s=0.05)
        assert policy.should_shed(queue_depth=5, predicted_wait_s=0.2)


class TestSLOReport:
    @staticmethod
    def outcome(i, latency, *, shed=False, deadline_s=None, met=True):
        answer = InferenceResponse(
            request_id=i, label=0, exit_stage=0, exit_stage_name="O1",
            confidence=1.0, delta=0.5, ops=100.0, energy_pj=50.0,
            model_spec="m", batch_size=1, latency_s=latency, shed=shed,
            deadline_missed=not met,
        )
        return Arrival(t=float(i), deadline_s=deadline_s), answer

    def test_quantiles_are_observed_samples(self):
        outcomes = [self.outcome(i, (i + 1) / 100) for i in range(100)]
        report = SLOReport.from_outcomes(outcomes, slo_p99_s=1.0)
        # method="higher": always an observed sample, rounded up.
        assert report.latency_p50_s == 0.51
        assert report.latency_p99_s == 1.00
        assert report.latency_p999_s == 1.00
        assert report.slo_met
        assert report.throughput_at_slo_rps == report.achieved_rps > 0

    def test_violated_slo_zeroes_throughput(self):
        outcomes = [self.outcome(i, 2.0) for i in range(10)]
        report = SLOReport.from_outcomes(outcomes, slo_p99_s=1.0)
        assert not report.slo_met
        assert report.throughput_at_slo_rps == 0.0

    def test_goodput_and_shed_accounting(self):
        outcomes = [
            self.outcome(i, 0.1, shed=(i < 3), deadline_s=0.5, met=(i < 8))
            for i in range(10)
        ]
        report = SLOReport.from_outcomes(outcomes, slo_p99_s=1.0)
        assert report.shed_count == 3
        assert report.shed_fraction == pytest.approx(0.3)
        assert report.deadline_missed == 2
        assert report.goodput_fraction == pytest.approx(0.8)

    def test_dropped_is_scheduled_minus_answered(self):
        outcomes = [self.outcome(i, 0.1) for i in range(8)]
        report = SLOReport.from_outcomes(outcomes, slo_p99_s=1.0, requests=10)
        assert report.dropped == 2
        with pytest.raises(ConfigurationError):
            SLOReport.from_outcomes(outcomes, slo_p99_s=1.0, requests=5)

    def test_json_round_trip(self, tmp_path):
        outcomes = [self.outcome(i, 0.1) for i in range(5)]
        report = SLOReport.from_outcomes(
            outcomes, slo_p99_s=1.0, queue_depth_timeline=[(0.0, 3), (1.0, 5)]
        )
        path = report.save(tmp_path / "report.json")
        loaded = SLOReport.load(path)
        assert loaded == report
        assert loaded.max_queue_depth == 5
        with pytest.raises(SerializationError):
            SLOReport.from_json("{\"schema\": \"wrong\"}")

    def test_render_mentions_the_headline(self):
        outcomes = [self.outcome(i, 0.1) for i in range(5)]
        text = SLOReport.from_outcomes(outcomes, slo_p99_s=1.0).render()
        assert "throughput @ SLO" in text
        assert "goodput" in text


class TestLoadRunnerSimulate:
    @pytest.fixture(scope="class")
    def burst_schedule(self):
        return ArrivalSchedule.bursty(
            rate_rps=150, burst_factor=4, burst_start_s=1.0,
            burst_duration_s=1.0, duration_s=3, seed=3, deadline_s=SLO,
        )

    def test_determinism(self, trained_3c, tiny_test_set, burst_schedule):
        reports = []
        for _ in range(2):
            engine = make_engine(
                trained_3c, shed=ShedPolicy(max_queue_depth=32)
            )
            runner = LoadRunner(engine, burst_schedule, tiny_test_set.images)
            reports.append(
                runner.simulate(ops_per_second=CAPACITY, slo_p99_s=SLO)
            )
        assert reports[0] == reports[1]

    def test_rerun_on_one_engine_is_identical(
        self, trained_3c, tiny_test_set, burst_schedule
    ):
        # The predicted-wait trigger reads the service-time estimate; each
        # run starts it afresh on its own virtual clock, so the first batch
        # of every run (no estimate yet) is served in full.
        engine = make_engine(
            trained_3c, shed=ShedPolicy(max_predicted_wait_s=1e-9)
        )
        runner = LoadRunner(engine, burst_schedule, tiny_test_set.images)
        first = runner.simulate(ops_per_second=CAPACITY, slo_p99_s=SLO)
        second = runner.simulate(ops_per_second=CAPACITY, slo_p99_s=SLO)
        assert 0 < first.shed_count < first.requests
        assert first == second

    def test_metrics_time_the_run_on_the_virtual_clock(
        self, trained_3c, tiny_test_set
    ):
        # The engine's metrics read the dispatcher's clock, so after a
        # simulated run they time it in virtual seconds: from the first
        # batch's completion to the last one's, service time included.
        schedule = ArrivalSchedule.poisson(
            rate_rps=200.0, duration_s=1.0, seed=11, deadline_s=0.02
        )
        engine = make_engine(trained_3c, delta=0.6)
        runner = LoadRunner(engine, schedule, tiny_test_set.images)
        report = runner.simulate(ops_per_second=CAPACITY, slo_p99_s=SLO)
        snap = engine.metrics.snapshot()
        done = sorted(a.t + r.latency_s for a, r in runner.last_outcomes)
        assert snap.requests == report.answered
        assert snap.elapsed_s == pytest.approx(done[-1] - done[0], rel=1e-12)
        assert snap.elapsed_s > 0.9
        assert snap.throughput_rps == snap.requests / snap.elapsed_s

    def test_metrics_spans_and_report_read_one_latency(
        self, trained_3c, tiny_test_set, burst_schedule, tmp_path
    ):
        # The engine charges each batch's service time on the virtual
        # clock before it stamps the answers, so the metrics, the spans
        # and the report fold the same latencies and deadline verdicts.
        answers = []
        with Observer.to_directory(tmp_path) as obs:
            engine = make_engine(trained_3c, observer=obs)
            record_batch = engine.metrics.record_batch

            def spy(batch, now, **kwargs):
                answers.extend(batch)
                record_batch(batch, now, **kwargs)

            engine.metrics.record_batch = spy
            runner = LoadRunner(engine, burst_schedule, tiny_test_set.images)
            report = runner.simulate(ops_per_second=CAPACITY, slo_p99_s=SLO)
        assert 0 < report.deadline_missed < report.answered
        snap = engine.metrics.snapshot()
        for quantile in ("p50", "p95", "p99", "p999"):
            field = f"latency_{quantile}_s"
            assert getattr(snap, field) == getattr(report, field)
        outcomes = {r.request_id: r for _, r in runner.last_outcomes}
        spans = read_spans(tmp_path / "trace.jsonl")
        assert len(spans) == len(answers) == len(outcomes)
        for span in spans:
            assert span["latency_s"] == outcomes[span["request_id"]].latency_s
        # The report folds the very answers the metrics recorded.
        for answer in answers:
            assert outcomes[answer.request_id] is answer

    def test_shed_requests_exit_stage0_none_dropped(
        self, trained_3c, tiny_test_set, burst_schedule, tmp_path
    ):
        with Observer.to_directory(tmp_path, meta={"test": "shed"}) as obs:
            engine = make_engine(
                trained_3c,
                shed=ShedPolicy(max_queue_depth=32),
                observer=obs,
            )
            runner = LoadRunner(engine, burst_schedule, tiny_test_set.images)
            report = runner.simulate(ops_per_second=CAPACITY, slo_p99_s=SLO)
        assert report.dropped == 0
        assert report.shed_count > 0
        # Every shed outcome exits at stage 0 (spans agree below).
        snap = engine.metrics.snapshot()
        assert snap.shed_requests == report.shed_count
        assert snap.requests == report.answered
        # Exact reconciliation against the trace.
        spans = read_spans(tmp_path / "trace.jsonl")
        trace = fold_spans(spans)
        assert trace.spans == report.answered
        assert trace.shed_requests == report.shed_count
        assert all(
            s["exit_stage"] == 0 for s in spans if s.get("shed")
        )

    def test_shedding_tames_the_tail(
        self, trained_3c, tiny_test_set, burst_schedule
    ):
        unprotected = make_engine(trained_3c)
        no_shed = LoadRunner(
            unprotected, burst_schedule, tiny_test_set.images
        ).simulate(ops_per_second=CAPACITY, slo_p99_s=SLO)
        protected = make_engine(
            trained_3c, shed=ShedPolicy(max_queue_depth=32)
        )
        with_shed = LoadRunner(
            protected, burst_schedule, tiny_test_set.images
        ).simulate(ops_per_second=CAPACITY, slo_p99_s=SLO)
        assert not no_shed.slo_met
        assert with_shed.slo_met
        assert with_shed.latency_p99_s < no_shed.latency_p99_s
        assert with_shed.dropped == no_shed.dropped == 0

    def test_deadline_expiry_marks_but_delivers(
        self, trained_3c, tiny_test_set
    ):
        # A deadline far tighter than the service time: everything is
        # still answered, everything is marked missed.
        sched = ArrivalSchedule.poisson(
            rate_rps=200, duration_s=1, seed=4, deadline_s=1e-6
        )
        engine = make_engine(trained_3c)
        report = LoadRunner(engine, sched, tiny_test_set.images).simulate(
            ops_per_second=CAPACITY, slo_p99_s=SLO
        )
        assert report.dropped == 0
        assert report.deadline_missed == report.answered
        assert report.goodput_rps == 0.0

    def test_priority_boards_first_under_backlog(
        self, trained_3c, tiny_test_set
    ):
        # All arrivals land at t=0 with a tiny batch size: the high
        # priority request must board the first dispatched batch despite
        # arriving last in FIFO order.
        arrivals = [Arrival(t=0.0) for _ in range(8)]
        arrivals.append(Arrival(t=0.0, priority=5))
        sched = ArrivalSchedule.replay(arrivals)
        engine = make_engine(
            trained_3c, policy=MicroBatchPolicy(max_batch_size=4)
        )
        runner = LoadRunner(engine, sched, tiny_test_set.images)
        report = runner.simulate(ops_per_second=CAPACITY, slo_p99_s=SLO)
        assert report.answered == 9
        high = [r for a, r in runner.last_outcomes if a.priority == 5]
        assert len(high) == 1
        fastest = min(r.latency_s for _, r in runner.last_outcomes)
        assert high[0].latency_s == fastest

    def test_scenario_pools_route_payloads(self, trained_3c, tiny_test_set):
        sched = ArrivalSchedule.poisson(
            rate_rps=100, duration_s=1, seed=6, scenario_mix={"dark": 1.0}
        )
        dark = np.clip(tiny_test_set.images * 0.2, 0.0, 1.0)
        engine = make_engine(trained_3c)
        runner = LoadRunner(
            engine, sched, tiny_test_set.images,
            scenario_pools={"dark": dark},
        )
        report = runner.simulate(ops_per_second=CAPACITY, slo_p99_s=SLO)
        assert report.answered == report.requests
        assert all(a.scenario == "dark" for a, _ in runner.last_outcomes)

    def test_intake_error_leaves_the_engine_idle(
        self, trained_3c, tiny_test_set
    ):
        # Without a resilience policy a corrupt payload raises from
        # submit(), mid-run, with earlier arrivals still queued: none of
        # them (stamped in virtual time) may stay behind in the engine.
        sched = ArrivalSchedule.replay([Arrival(t=0.0) for _ in range(8)])
        engine = make_engine(
            trained_3c, policy=MicroBatchPolicy(max_batch_size=4)
        )
        runner = LoadRunner(
            engine, sched, tiny_test_set.images,
            fault_plan=FaultPlan(
                (FaultSpec("corrupt_input", rate=1.0, first=5, last=5),)
            ),
        )
        with pytest.raises(InputValidationError):
            runner.simulate(ops_per_second=CAPACITY, slo_p99_s=SLO)
        assert engine.queue_depth() == 0
        assert engine.dispatcher.clock is WALL_CLOCK
        answer = engine.classify(tiny_test_set.images[0])
        assert 0.0 <= answer.latency_s < 5.0

    def test_refuses_an_engine_with_queued_work(
        self, trained_3c, tiny_test_set
    ):
        sched = ArrivalSchedule.poisson(rate_rps=10, duration_s=1, seed=0)
        engine = make_engine(trained_3c)
        queued = engine.submit(tiny_test_set.images[0])
        runner = LoadRunner(engine, sched, tiny_test_set.images)
        with pytest.raises(ConfigurationError, match="idle engine"):
            runner.simulate(ops_per_second=CAPACITY, slo_p99_s=SLO)
        # The refused run touched nothing: the request is still served
        # on the wall clock.
        assert engine.flush() == 1
        assert 0.0 <= queued.result(timeout=0).latency_s < 5.0

    def test_rejects_bad_inputs(self, trained_3c, tiny_test_set):
        sched = ArrivalSchedule.poisson(rate_rps=10, duration_s=1, seed=0)
        engine = make_engine(trained_3c)
        with pytest.raises(ConfigurationError):
            LoadRunner(engine, sched, tiny_test_set.images[:0])
        runner = LoadRunner(engine, sched, tiny_test_set.images)
        with pytest.raises(ConfigurationError):
            runner.simulate(ops_per_second=0, slo_p99_s=SLO)
        with pytest.raises(ConfigurationError):
            runner.simulate(ops_per_second=CAPACITY, slo_p99_s=0)


class TestLoadRunnerRealTime:
    def test_wall_clock_run_answers_everything(
        self, trained_3c, tiny_test_set
    ):
        sched = ArrivalSchedule.poisson(
            rate_rps=400, duration_s=0.5, seed=8, deadline_s=5.0
        )
        engine = make_engine(trained_3c)
        runner = LoadRunner(engine, sched, tiny_test_set.images)
        report = runner.run(slo_p99_s=5.0, result_timeout_s=30.0)
        assert report.dropped == 0
        assert report.answered == report.requests
        assert report.goodput_fraction == 1.0
        assert report.latency_p99_s < 5.0


class TestLoadgenCLI:
    def test_plan_subcommand(self, capsys):
        from repro.serving.loadgen import main

        assert main([
            "plan", "--schedule", "poisson", "--rate", "50",
            "--duration", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "poisson" in out
        assert "materialized arrivals" in out

    def test_plan_rejects_incomplete_diurnal(self, capsys):
        from repro.serving.loadgen import main

        assert main(["plan", "--schedule", "diurnal", "--rate", "50"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_subcommand_reports_slo_and_goodput(self, capsys, tmp_path):
        from repro.serving.loadgen import main
        from repro.serving.slo import SLOReport

        out_json = tmp_path / "slo.json"
        assert main([
            "run", "--schedule", "poisson", "--rate", "80",
            "--duration", "1", "--deadline", "0.5", "--slo-p99", "0.5",
            "--shed-depth", "64", "--json", str(out_json),
        ]) == 0
        out = capsys.readouterr().out
        assert "throughput @ SLO" in out
        assert "goodput" in out
        report = SLOReport.load(out_json)
        assert report.dropped == 0
        assert report.requests == report.answered


class TestServingConfig:
    def test_from_config_and_validation(self, trained_3c):
        cfg = ServingConfig(model=trained_3c.cdln, delta=0.6)
        engine = InferenceEngine.from_config(cfg)
        assert engine.delta == 0.6
        assert engine.config.model is trained_3c.cdln

    def test_model_xor_registry(self, trained_3c):
        with pytest.raises(ConfigurationError):
            ServingConfig().validate()
        with pytest.raises(ConfigurationError):
            from repro.serving import ModelRegistry

            registry = ModelRegistry()
            registry.register("m", trained_3c)
            ServingConfig(model=trained_3c.cdln, registry=registry).validate()

    def test_type_checks(self, trained_3c):
        with pytest.raises(ConfigurationError):
            ServingConfig(model=trained_3c.cdln, policy=object()).validate()
        with pytest.raises(ConfigurationError):
            ServingConfig(model=trained_3c.cdln, shed=object()).validate()
        with pytest.raises(ConfigurationError):
            ServingConfig(model=trained_3c.cdln, delta=1.5).validate()

    def test_adaptive_needs_soft_controller(self, trained_3c):
        with pytest.raises(ConfigurationError) as err:
            ServingConfig(model=trained_3c.cdln, adaptive=object()).validate()
        assert "target_mean_ops" in str(err.value)

    def test_config_is_frozen_but_updatable(self, trained_3c):
        cfg = ServingConfig(model=trained_3c.cdln, delta=0.5)
        with pytest.raises(FrozenInstanceError):
            cfg.delta = 0.9
        updated = cfg.with_updates(delta=0.9)
        assert updated.delta == 0.9 and cfg.delta == 0.5

    def test_bare_model_is_silent_sugar(self, trained_3c):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine = InferenceEngine(trained_3c.cdln)
        assert engine.config.model is trained_3c.cdln

    def test_config_plus_knobs_rejected(self, trained_3c):
        cfg = ServingConfig(model=trained_3c.cdln)
        with pytest.raises(TypeError):  # per-knob keywords are gone
            InferenceEngine(config=cfg, delta=0.5)
        with pytest.raises(ConfigurationError):
            InferenceEngine(trained_3c.cdln, config=cfg)


class TestPublicSurface:
    def test_serving_all_is_pinned(self):
        import repro.serving as serving

        expected = {
            "AdaptiveDeltaPolicy", "Arrival", "ArrivalSchedule",
            "AsyncEngine", "CalibrationPoint",
            "CascadeResult", "CascadeStageRecord", "DeltaCalibration",
            "DeltaController", "DriftDetector", "DriftEvent",
            "FabricConfig", "FaultInjector", "FaultPlan", "FaultSpec",
            "FleetSnapshot", "HealthStatus",
            "InferenceEngine", "InferenceResponse", "InjectedFault",
            "LoadRunner", "MetricsSnapshot", "MicroBatchPolicy",
            "ModelEntry", "ModelRegistry", "OperatingPoint",
            "OperatingTable", "RegimeEntry", "RegimeSignature",
            "RequestFailed", "ResiliencePolicy",
            "RetargetEvent", "STAGE0_QUANTILE_GRID", "SLOReport",
            "ServingConfig", "ServingFabric", "ServingMetrics",
            "SharedParams", "ShedPolicy", "Ticket",
            "execute_cascade", "fold_exit_fractions",
            "population_stability_index", "robust_slope",
            "signature_distance",
        }
        assert set(serving.__all__) == expected
        assert set(serving.__all__) <= set(dir(serving))
        # Every export resolves.
        for name in serving.__all__:
            assert getattr(serving, name) is not None

    def test_unknown_attribute_raises(self):
        import repro.serving as serving

        with pytest.raises(AttributeError):
            serving.NotAThing

    def test_removed_aliases_stay_removed(self):
        import repro
        import repro.serving as serving

        for name in (
            "MicroBatcher", "AsyncInferenceEngine", "LearningDeltaPolicy",
            "MiniCalibrator", "MiniCalibration", "simulate_exit_stages",
            "RequestOutcome",
        ):
            assert name not in dir(serving)
            with pytest.raises(AttributeError):
                getattr(serving, name)
        assert not hasattr(repro, "AsyncInferenceEngine")
