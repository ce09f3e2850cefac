"""Fault injection + resilience layer: plans, isolation, supervision.

Covers the chaos PR end to end:

* ``FaultPlan`` / ``FaultSpec`` -- validation, seeded determinism, JSONL
  round-trip, windows, transient semantics;
* the synchronous engine's failure ladder -- poison-batch bisection,
  bounded retries, degraded engage/release, NaN intake validation,
  ``Ticket.cancel`` purging, ``health()``;
* the async facade -- the stranded-ticket wedge the supervisor fixes
  (pinned pre-fix), supervised restarts, restart-budget exhaustion,
  ``stop(drain=True)`` timeout, start/stop idempotence;
* the accounting -- SLO report failed/degraded/availability fields,
  metrics counters, and :func:`repro.obs.reconcile_errors` agreeing
  exactly on a simulated chaos run.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    InputValidationError,
    RequestCancelled,
    SerializationError,
)
from repro.obs import Observer, read_spans, reconcile_errors
from repro.serving import (
    ArrivalSchedule,
    AsyncEngine,
    InferenceEngine,
    LoadRunner,
    MicroBatchPolicy,
    RequestFailed,
    ResiliencePolicy,
    ServingConfig,
    SLOReport,
)
from repro.serving.engine import Ticket
from repro.serving.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    merge_plans,
)
from repro.serving.slo import RequestOutcome

DELTA = 0.6


def _engine(trained, **cfg_kwargs) -> InferenceEngine:
    cfg_kwargs.setdefault("policy", MicroBatchPolicy(max_batch_size=8))
    return InferenceEngine.from_config(
        ServingConfig(model=trained.cdln, delta=DELTA, **cfg_kwargs)
    )


@pytest.fixture()
def images(trained_3c):
    shape = trained_3c.cdln.baseline.input_shape
    rng = np.random.default_rng(0)
    return rng.standard_normal((16, *shape)).astype(np.float64)


# -- fault plans ---------------------------------------------------------------
class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="nope", rate=0.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="request_error", rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="latency_spike", rate=0.5)  # needs magnitude
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="raise_in_batch", rate=0.5, transient=True)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="request_error", rate=0.5, fires=0)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="request_error", rate=0.5, first=4, last=2)

    def test_decide_is_pure_and_seeded(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="request_error", rate=0.3),), seed=11
        )
        first = [plan.decide(0, i) for i in range(200)]
        again = [plan.decide(0, i) for i in range(200)]
        assert first == again
        assert any(first) and not all(first)
        other = plan.with_seed(12)
        assert [other.decide(0, i) for i in range(200)] != first

    def test_rate_extremes_and_window(self):
        always = FaultPlan(
            specs=(
                FaultSpec(kind="raise_in_batch", rate=1.0, first=3, last=5),
            )
        )
        assert not always.decide(0, 2)
        assert all(always.decide(0, i) for i in (3, 4, 5))
        assert not always.decide(0, 6)
        never = FaultPlan(specs=(FaultSpec(kind="request_error", rate=0.0),))
        assert not any(never.decide(0, i) for i in range(50))

    def test_jsonl_round_trip(self, tmp_path):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="raise_in_batch", rate=1.0, first=6, last=30),
                FaultSpec(
                    kind="request_error", rate=0.01, transient=True, fires=2
                ),
                FaultSpec(kind="latency_spike", rate=0.05, magnitude_s=0.002),
            ),
            seed=42,
        )
        path = plan.save_jsonl(tmp_path / "plan.jsonl")
        assert FaultPlan.from_jsonl(path) == plan

    def test_from_jsonl_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": "nope", "seed": 0}) + "\n")
        with pytest.raises(SerializationError):
            FaultPlan.from_jsonl(path)
        path.write_text("")
        with pytest.raises(SerializationError):
            FaultPlan.from_jsonl(path)

    def test_merge_plans_and_describe(self):
        a = FaultPlan(specs=(FaultSpec(kind="request_error", rate=0.1),))
        b = FaultPlan(
            specs=(FaultSpec(kind="latency_spike", rate=0.2, magnitude_s=0.01),),
            seed=5,
        )
        merged = merge_plans([a, b], seed=9)
        assert len(merged.specs) == 2 and merged.seed == 9
        text = merged.describe()
        assert "request_error" in text and "latency_spike" in text


class TestFaultInjector:
    def test_transient_stops_after_fires(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="request_error", rate=1.0, transient=True, fires=2
                ),
            )
        )
        injector = FaultInjector(plan)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.on_dispatch(batch_index=0, request_ids=[7])
        # Third attempt: the transient budget is spent; the request serves.
        assert injector.on_dispatch(batch_index=0, request_ids=[7]) == 0.0
        injector.reset()
        with pytest.raises(InjectedFault):
            injector.on_dispatch(batch_index=0, request_ids=[7])

    def test_raise_in_batch_suppressed_when_protected(self):
        plan = FaultPlan(specs=(FaultSpec(kind="raise_in_batch", rate=1.0),))
        injector = FaultInjector(plan)
        with pytest.raises(InjectedFault):
            injector.on_dispatch(batch_index=0, request_ids=[0])
        assert (
            injector.on_dispatch(
                batch_index=0, request_ids=[0], protected=True
            )
            == 0.0
        )

    def test_delay_kinds_accumulate(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="latency_spike", rate=1.0, magnitude_s=0.01),
                FaultSpec(kind="worker_stall", rate=1.0, magnitude_s=0.1),
            )
        )
        delay = FaultInjector(plan).on_dispatch(batch_index=0, request_ids=[0])
        assert delay == pytest.approx(0.11)

    def test_corrupt_image_poisons_deterministically(self, images):
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt_input", rate=1.0, first=1, last=1),)
        )
        injector = FaultInjector(plan)
        untargeted = images[0]
        assert injector.corrupt_image(0, untargeted) is untargeted
        poisoned = injector.corrupt_image(1, images[1])
        assert not np.isfinite(poisoned).all()
        # The caller's pool is never mutated.
        assert np.isfinite(images[1]).all()


# -- synchronous engine ladder -------------------------------------------------
class TestIsolationAndRetries:
    def test_poison_request_is_quarantined_alone(self, trained_3c, images):
        # Exactly request id 3 is poisoned, persistently.
        plan = FaultPlan(
            specs=(FaultSpec(kind="request_error", rate=1.0, first=3, last=3),)
        )
        engine = _engine(
            trained_3c,
            resilience=ResiliencePolicy(max_retries=1, degraded_after=0),
            faults=plan,
        )
        tickets = [engine.submit(images[i]) for i in range(8)]
        engine.flush()
        answers = [t.result(timeout=0) for t in tickets]
        assert [a.failed for a in answers] == [False] * 3 + [True] + [False] * 4
        failure = answers[3]
        assert isinstance(failure, RequestFailed)
        assert failure.error == "injected_fault"
        assert failure.retries == 1
        snap = engine.metrics.snapshot()
        assert dict(snap.failed_by_cause) == {"injected_fault": 1}
        assert snap.failed_requests == 1
        assert snap.retries >= 1

    def test_transient_fault_saved_by_retry(self, trained_3c, images):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="request_error", rate=1.0, transient=True, fires=1,
                    first=2, last=2,
                ),
            )
        )
        # Singleton batches so the save comes from _retry_single (a larger
        # batch's bisection would re-dispatch -- and thereby absorb -- the
        # transient before the retry ladder ever sees it).
        engine = _engine(
            trained_3c,
            policy=MicroBatchPolicy(max_batch_size=1),
            resilience=ResiliencePolicy(max_retries=1, degraded_after=0),
            faults=plan,
        )
        answers = engine.classify_many(images[:8])
        assert all(not a.failed for a in answers)
        snap = engine.metrics.snapshot()
        assert snap.failed_requests == 0
        assert snap.retries >= 1

    def test_degraded_engages_and_releases(self, trained_3c, images):
        # Batch 0 raises; with zero retries one failure trips the episode.
        plan = FaultPlan(
            specs=(FaultSpec(kind="raise_in_batch", rate=1.0, first=0, last=0),)
        )
        engine = _engine(
            trained_3c,
            policy=MicroBatchPolicy(max_batch_size=1),
            resilience=ResiliencePolicy(
                # The window counts dispatches from engagement, and the
                # engaging (failed) dispatch is the first: 3 leaves two
                # degraded-served requests before the probe.
                max_retries=0, degraded_after=1, degraded_window=3
            ),
            faults=plan,
        )
        failed = engine.classify(images[0])
        assert failed.failed and failed.error == "injected_fault"
        health = engine.health()
        assert health.degraded and not health.ready and health.live
        # The next two dispatches serve from the degraded stage-0 path.
        for i in (1, 2):
            answer = engine.classify(images[i])
            assert not answer.failed
            assert answer.degraded and answer.exit_stage == 0
        # Episode over: full service resumes (the fault window has passed).
        answer = engine.classify(images[3])
        assert not answer.degraded
        assert engine.health().ready
        snap = engine.metrics.snapshot()
        assert snap.degraded_requests == 2

    def test_unprotected_engine_still_propagates(self, trained_3c, images):
        plan = FaultPlan(specs=(FaultSpec(kind="raise_in_batch", rate=1.0),))
        engine = _engine(trained_3c, faults=plan)
        with pytest.raises(InjectedFault):
            engine.classify(images[0])


class TestInputValidation:
    def test_nan_rejected_at_intake(self, trained_3c, images):
        engine = _engine(trained_3c)
        bad = images[0].copy()
        bad.reshape(-1)[0] = np.inf
        with pytest.raises(InputValidationError):
            engine.submit(bad)

    def test_resilient_engine_fails_the_ticket_instead(self, trained_3c, images):
        engine = _engine(trained_3c, resilience=ResiliencePolicy())
        bad = images[0].copy()
        bad.reshape(-1)[0] = np.nan
        ticket = engine.submit(bad)
        failure = ticket.result(timeout=0)
        assert failure.failed and failure.error == "invalid_input"
        assert dict(engine.metrics.snapshot().failed_by_cause) == {
            "invalid_input": 1
        }

    def test_validation_is_skippable(self, trained_3c, images):
        engine = _engine(trained_3c, validate_inputs=False)
        bad = images[0].copy()
        bad.reshape(-1)[0] = np.nan
        response = engine.classify(bad)
        assert not response.failed  # trusted intake: garbage in, label out


class TestTicketCancel:
    def test_cancelled_ticket_is_purged_not_served(self, trained_3c, images):
        engine = _engine(trained_3c)
        keep = engine.submit(images[0])
        abandon = engine.submit(images[1])
        assert abandon.cancel() is True
        assert abandon.cancelled
        served = engine.flush()
        assert served == 1
        assert not keep.result(timeout=0).failed
        with pytest.raises(RequestCancelled):
            abandon.result(timeout=0)
        assert engine.pending_count() == 0

    def test_cancel_after_resolution_loses(self, trained_3c, images):
        engine = _engine(trained_3c)
        response = engine.classify(images[0])
        assert not response.failed
        ticket = engine.submit(images[1])
        engine.flush()
        assert ticket.cancel() is False
        assert not ticket.result(timeout=0).failed

    def test_all_cancelled_batch_drains_to_nothing(self, trained_3c, images):
        engine = _engine(trained_3c)
        tickets = [engine.submit(images[i]) for i in range(3)]
        for ticket in tickets:
            ticket.cancel()
        assert engine.flush() == 0
        assert engine.pending_count() == 0

    def test_all_cancelled_backlog_keeps_async_worker_serving(
        self, trained_3c, images
    ):
        engine = _engine(
            trained_3c, policy=MicroBatchPolicy(max_batch_size=8, max_wait_s=0.05)
        )
        with AsyncEngine(engine) as server:
            for ticket in [server.submit(images[i]) for i in range(3)]:
                ticket.cancel()
            time.sleep(0.1)  # their window closes; the chunk purges to nothing
            assert server.running
            assert not server.submit(images[3]).result(timeout=5.0).failed

    def test_cancel_resolves_result_waiters(self):
        ticket = Ticket(0)
        ticket.cancel()
        with pytest.raises(RequestCancelled):
            ticket.result(timeout=0)


# -- async facade: supervision -------------------------------------------------
def _crashy_plan() -> FaultPlan:
    return FaultPlan(specs=(FaultSpec(kind="raise_in_batch", rate=1.0),))


class TestAsyncSupervision:
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_unsupervised_worker_strands_tickets(self, trained_3c, images):
        """The pre-resilience wedge, pinned: crash kills the worker and
        the ticket never resolves."""
        engine = _engine(trained_3c, faults=_crashy_plan())
        server = AsyncEngine(engine).start()
        try:
            ticket = server.submit(images[0])
            with pytest.raises(TimeoutError):
                ticket.result(timeout=1.0)
            server._thread.join(timeout=5.0)
            assert not server.running  # the worker is simply dead
            assert not server.health().live
        finally:
            server.stop(drain=False)

    def test_supervised_restart_fails_inflight_and_recovers(
        self, trained_3c, images
    ):
        plan = FaultPlan(
            specs=(FaultSpec(kind="raise_in_batch", rate=1.0, first=0, last=0),)
        )
        engine = _engine(
            trained_3c,
            resilience=ResiliencePolicy(
                isolate=False, degraded_after=0, max_restarts=3,
                backoff_base_s=0.001, backoff_max_s=0.002,
            ),
            faults=plan,
        )
        with AsyncEngine(engine) as server:
            crashed = server.submit(images[0])
            failure = crashed.result(timeout=5.0)
            assert failure.failed and failure.error == "worker_crash"
            # The restarted worker serves the next request (batch ids have
            # moved past the fault window).
            answer = server.submit(images[1]).result(timeout=5.0)
            assert not answer.failed
            assert server.worker_restarts == 1
            health = server.health()
            assert health.live and health.ready
            assert health.restart_budget_remaining == 2

    def test_restart_budget_exhaustion_fails_backlog(self, trained_3c, images):
        engine = _engine(
            trained_3c,
            policy=MicroBatchPolicy(max_batch_size=1, max_wait_s=0.0),
            resilience=ResiliencePolicy(
                isolate=False, degraded_after=0, max_restarts=1,
                backoff_base_s=0.001, backoff_max_s=0.002,
            ),
            faults=_crashy_plan(),
        )
        server = AsyncEngine(engine).start()
        try:
            tickets = [server.submit(images[i]) for i in range(6)]
            answers = [t.result(timeout=10.0) for t in tickets]
            assert all(a.failed for a in answers)
            causes = {a.error for a in answers}
            assert causes == {"worker_crash", "restart_budget"}
            server._thread.join(timeout=5.0)
            health = server.health()
            assert not health.live and not health.ready
            assert health.restart_budget_remaining == 0
        finally:
            server.stop(drain=False)

    def test_stop_drain_timeout_then_clean_stop(self, trained_3c, images):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="worker_stall", rate=1.0, magnitude_s=0.4,
                          first=0, last=0),
            )
        )
        engine = _engine(trained_3c, faults=plan)
        server = AsyncEngine(engine).start()
        ticket = server.submit(images[0])
        # The worker is mid-stall: a short drain deadline must time out
        # loudly, leave the worker running, and allow a retried stop.
        with pytest.raises(TimeoutError):
            server.stop(drain=True, timeout=0.05)
        assert server.running
        server.stop(drain=True, timeout=10.0)
        assert not server.running
        assert not ticket.result(timeout=0).failed

    def test_double_start_rejected_and_stop_idempotent(self, trained_3c):
        engine = _engine(trained_3c)
        server = AsyncEngine(engine)
        server.stop()  # never started: a no-op, not an error
        server.start()
        with pytest.raises(ConfigurationError):
            server.start()
        server.stop()
        server.stop()  # second stop: also a no-op
        assert not server.running
        server.start()  # restartable after a clean stop
        server.stop()


# -- accounting: report, metrics, trace ---------------------------------------
def _outcome(request_id, *, failed=False, error=None, degraded=False,
             latency_s=0.01, arrival_s=0.0):
    return RequestOutcome(
        request_id=request_id,
        arrival_s=arrival_s,
        queue_wait_s=0.0,
        latency_s=latency_s,
        exit_stage=-1 if failed else 0,
        ops=0.0 if failed else 100.0,
        energy_pj=0.0,
        shed=False,
        deadline_s=None,
        deadline_met=not failed,
        failed=failed,
        error=error,
        degraded=degraded,
    )


class TestSLOReportFailures:
    def test_failed_and_degraded_accounting(self):
        outcomes = (
            [_outcome(i) for i in range(6)]
            + [_outcome(6, degraded=True), _outcome(7, degraded=True)]
            + [
                _outcome(8, failed=True, error="injected_fault"),
                _outcome(9, failed=True, error="invalid_input"),
            ]
        )
        report = SLOReport.from_outcomes(
            outcomes, slo_p99_s=0.1, requests=12, offered_span_s=1.0
        )
        assert report.answered == 8
        assert report.failed_count == 2
        assert report.failed_fraction == pytest.approx(2 / 12)
        assert report.degraded_count == 2
        assert report.degraded_fraction == pytest.approx(2 / 8)
        assert report.dropped == 2  # 12 scheduled - 8 answered - 2 failed
        # Availability: answered within the SLO bound over *submitted*.
        assert report.availability == pytest.approx(8 / 12)
        rendered = report.render()
        assert "failed" in rendered and "availability" in rendered

    def test_failed_excluded_from_latency_stats(self):
        outcomes = [
            _outcome(0, latency_s=0.01),
            _outcome(1, latency_s=0.03),
            _outcome(2, failed=True, error="deadline", latency_s=99.0),
        ]
        report = SLOReport.from_outcomes(outcomes, slo_p99_s=0.1)
        assert report.latency_p99_s <= 0.03
        assert report.slo_met

    def test_all_failed_is_an_error(self):
        outcomes = [_outcome(0, failed=True, error="compute_error")]
        with pytest.raises(ConfigurationError):
            SLOReport.from_outcomes(outcomes, slo_p99_s=0.1)

    def test_pre_chaos_json_still_loads(self):
        report = SLOReport.from_outcomes(
            [_outcome(i) for i in range(4)], slo_p99_s=0.1
        )
        payload = json.loads(report.to_json())
        for key in (
            "failed_count", "failed_fraction", "degraded_count",
            "degraded_fraction", "availability",
        ):
            del payload[key]
        loaded = SLOReport.from_json(json.dumps(payload))
        assert loaded.failed_count == 0
        assert loaded.availability == 1.0


class TestReconcileErrors:
    def test_reconcile_errors_from_spans(self):
        spans = [
            {"error": None, "degraded": False},
            {"error": None, "degraded": True},
            {"error": "injected_fault", "degraded": False},
            {"error": "injected_fault"},
            {"error": "invalid_input"},
            {},  # pre-resilience span: neither key
        ]
        failed, degraded, count = reconcile_errors(spans)
        assert failed == {"injected_fault": 2, "invalid_input": 1}
        assert degraded == 1
        assert count == 6


class TestChaosSimulation:
    @staticmethod
    def chaos_plan():
        return FaultPlan(
            specs=(
                FaultSpec(kind="raise_in_batch", rate=1.0, first=4, last=12),
                FaultSpec(
                    kind="request_error", rate=0.02, transient=True, fires=1,
                    first=30,
                ),
                FaultSpec(kind="request_error", rate=1.0, first=50, last=50),
                FaultSpec(kind="corrupt_input", rate=1.0, first=60, last=60),
                FaultSpec(kind="latency_spike", rate=0.1, magnitude_s=0.002),
            ),
            seed=42,
        )

    def _run(self, trained, test_images, plan, observer=None):
        engine = InferenceEngine.from_config(
            ServingConfig(
                model=trained.cdln,
                delta=DELTA,
                policy=MicroBatchPolicy(max_batch_size=8, max_wait_s=0.05),
                resilience=ResiliencePolicy(
                    max_retries=1, degraded_after=2, degraded_window=4
                ),
                faults=plan,
                observer=observer,
            )
        )
        schedule = ArrivalSchedule.poisson(
            rate_rps=120.0, duration_s=1.5, seed=3, deadline_s=0.25
        )
        runner = LoadRunner(engine, schedule, test_images)
        report = runner.simulate(ops_per_second=3e8, slo_p99_s=0.25)
        return engine, report

    def test_three_ledger_reconciliation(
        self, trained_3c, tiny_test_set, tmp_path
    ):
        with Observer.to_directory(tmp_path, meta={"test": "chaos"}) as obs:
            engine, report = self._run(
                trained_3c, tiny_test_set.images, self.chaos_plan(), obs
            )
            obs.flush()
            spans = read_spans(tmp_path / "trace.jsonl")
        snap = engine.metrics.snapshot()
        failed_by_cause, degraded, count = reconcile_errors(spans)
        assert report.dropped == 0
        assert report.failed_count > 0 and report.degraded_count > 0
        assert count == report.answered + report.failed_count
        assert sum(failed_by_cause.values()) == report.failed_count
        assert dict(snap.failed_by_cause) == failed_by_cause
        assert snap.degraded_requests == report.degraded_count == degraded
        assert snap.failed_requests == report.failed_count
        # The targeted faults landed as planned.
        assert failed_by_cause.get("invalid_input") == 1
        assert failed_by_cause.get("injected_fault", 0) >= 1
        assert snap.retries > 0

    def test_chaos_simulation_is_deterministic(
        self, trained_3c, tiny_test_set
    ):
        chaos_plan = self.chaos_plan()
        _, first = self._run(trained_3c, tiny_test_set.images, chaos_plan)
        _, second = self._run(trained_3c, tiny_test_set.images, chaos_plan)
        assert first == second

    def test_unprotected_run_wedges(self, trained_3c, tiny_test_set):
        engine = InferenceEngine.from_config(
            ServingConfig(
                model=trained_3c.cdln,
                delta=DELTA,
                policy=MicroBatchPolicy(max_batch_size=8, max_wait_s=0.05),
                faults=self.chaos_plan(),
            )
        )
        schedule = ArrivalSchedule.poisson(
            rate_rps=120.0, duration_s=1.5, seed=3
        )
        runner = LoadRunner(engine, schedule, tiny_test_set.images)
        report = runner.simulate(ops_per_second=3e8, slo_p99_s=0.25)
        assert report.dropped > 0
        assert report.availability < 0.5

    def test_fault_plan_via_runner_param(self, trained_3c, tiny_test_set):
        """LoadRunner(fault_plan=...) installs the injector on the engine."""
        plan = FaultPlan(
            specs=(FaultSpec(kind="request_error", rate=1.0, first=2, last=2),)
        )
        engine = InferenceEngine.from_config(
            ServingConfig(
                model=trained_3c.cdln,
                delta=DELTA,
                policy=MicroBatchPolicy(max_batch_size=4, max_wait_s=0.05),
                resilience=ResiliencePolicy(max_retries=0, degraded_after=0),
            )
        )
        schedule = ArrivalSchedule.poisson(
            rate_rps=100.0, duration_s=0.5, seed=3
        )
        runner = LoadRunner(
            engine, schedule, tiny_test_set.images, fault_plan=plan
        )
        assert engine.faults is not None
        report = runner.simulate(ops_per_second=3e8, slo_p99_s=0.25)
        assert report.failed_count == 1


class TestResiliencePolicyValidation:
    def test_knob_validation(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(backoff_max_s=0.01, backoff_base_s=0.05)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(degraded_window=0)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(isolate=False)  # degraded needs isolation
        ResiliencePolicy(isolate=False, degraded_after=0)  # explicit: fine

    def test_backoff_curve(self):
        policy = ResiliencePolicy(
            backoff_base_s=0.1, backoff_max_s=0.5, backoff_jitter=0.0
        )
        waits = [policy.backoff_s(n, 0.0) for n in (1, 2, 3, 4, 5)]
        assert waits == [0.1, 0.2, 0.4, 0.5, 0.5]
        jittered = policy.backoff_s(1, 1.0)
        assert jittered == pytest.approx(0.1)  # jitter=0 ignores u
        spread = ResiliencePolicy(
            backoff_base_s=0.1, backoff_max_s=0.5, backoff_jitter=0.5
        )
        assert spread.backoff_s(1, 1.0) == pytest.approx(0.15)

    def test_config_type_checks(self, trained_3c):
        with pytest.raises(ConfigurationError):
            ServingConfig(
                model=trained_3c.cdln, resilience="nope"
            ).validate()
        with pytest.raises(ConfigurationError):
            ServingConfig(model=trained_3c.cdln, faults="nope").validate()

    def test_health_dict_round_trip(self, trained_3c):
        engine = _engine(trained_3c)
        health = engine.health()
        payload = health.as_dict()
        assert payload["live"] is True and payload["ready"] is True
        assert payload["queue_depth"] == 0
