"""Multi-replica serving fabric: shared parameters, fleet control, chaos.

The process-spawning tests keep fleets tiny (1-2 replicas, a few dozen
requests) -- a replica boots in a couple of seconds and the point is the
cross-process *contracts* (exact ledgers, no stranded tickets, span
coverage), not throughput.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError, ShapeError
from repro.obs import Observer, parse_prometheus, read_spans
from repro.scenarios import Scenario
from repro.serving import (
    AdaptiveDeltaPolicy,
    ArrivalSchedule,
    DeltaController,
    FaultPlan,
    FaultSpec,
    LoadRunner,
    MicroBatchPolicy,
    ModelRegistry,
    OperatingTable,
    RegimeSignature,
    ResiliencePolicy,
    ServingConfig,
    InferenceEngine,
)
from repro.serving.batching import Batch
from repro.serving.engine import InferenceResponse, RequestFailed
from repro.serving.fabric import FabricConfig, ServingFabric, SharedParams

DELTA = 0.6
FAST = MicroBatchPolicy(max_batch_size=4, max_wait_s=0.005)


def _fabric_config(trained, *, replicas=2, resilience=..., **kw) -> FabricConfig:
    if resilience is ...:
        resilience = ResiliencePolicy(max_retries=1)
    fabric_kw = {
        k: kw.pop(k)
        for k in (
            "capacity_ops_per_s", "obs_dir", "drain_timeout_s",
        )
        if k in kw
    }
    kw.setdefault("policy", FAST)
    kw.setdefault("delta", DELTA)
    return FabricConfig(
        config=ServingConfig(model=trained.cdln, resilience=resilience, **kw),
        replicas=replicas,
        **fabric_kw,
    )


@pytest.fixture(scope="module")
def fleet(trained_3c):
    """One 2-replica fleet shared by the happy-path tests."""
    fabric = ServingFabric(_fabric_config(trained_3c)).start()
    yield fabric
    fabric.stop()


@pytest.fixture()
def images(trained_3c):
    shape = trained_3c.cdln.baseline.input_shape
    return np.random.default_rng(0).standard_normal((16, *shape))


def test_importing_the_fabric_leaves_scipy_unloaded():
    # Every spawned replica imports repro.serving.fabric, and none of them
    # synthesizes or corrupts an image, so none should load scipy.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, repro, repro.serving.fabric; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.strip() == "False"


def test_synthesis_and_training_leave_scipy_unloaded():
    # The benchmark's set-up: digits, the contrast corruption and a
    # trained cascade.  None of it needs scipy, so none of it may load it.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys\n"
        "from repro.data import corrupt_dataset, make_dataset_pair\n"
        "from repro.experiments.common import Scale, get_trained\n"
        "_train, test = make_dataset_pair(400, 200)\n"
        "corrupt_dataset(test, 'contrast', 0.7)\n"
        "get_trained('mnist_3c', Scale.tiny())\n"
        "print('scipy' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout.strip() == "False"


class TestSharedParams:
    def test_rehydrated_model_serves_identically(self, trained_3c, images):
        params = SharedParams(trained_3c.cdln)
        try:
            clone = SharedParams.rehydrate(params.name)

            def serve(model):
                engine = InferenceEngine.from_config(
                    ServingConfig(model=model, policy=FAST, delta=DELTA)
                )
                tickets = [engine.submit(img) for img in images[:8]]
                engine.flush()
                return [t.result(timeout=1.0) for t in tickets]

            for a, b in zip(serve(trained_3c.cdln), serve(clone)):
                assert a.exit_stage == b.exit_stage
                assert a.confidence == pytest.approx(b.confidence)
                assert a.ops == pytest.approx(b.ops)
        finally:
            params.dispose()

    def test_trained_model_shares_its_parameters_only(self, trained_3c):
        # Training keeps no activations in the model, so the shared segment
        # holds the parameters and the classifiers, plus pickle metadata:
        # not the last batch, and not the gradient buffers.
        cdln = trained_3c.cdln
        layers = cdln.baseline.layers
        assert not any(layer._cache for layer in layers)
        model_bytes = sum(
            array.nbytes for layer in layers for array in layer.params.values()
        ) + sum(
            stage.classifier.weights.nbytes + stage.classifier.bias.nbytes
            for stage in cdln.linear_stages
        )
        params = SharedParams(cdln)
        try:
            assert model_bytes < params.size < model_bytes + 8 * 1024
        finally:
            params.dispose()

    def test_gradient_buffers_stay_out_of_the_segment(self, trained_3c, images):
        # A replica never reads Layer.grads: the segment hoists the layers'
        # parameters and each classifier's weights, bias and 16-byte
        # generator state, and the rehydrated model predicts bit for bit.
        cdln = trained_3c.cdln
        layers = cdln.baseline.layers
        assert any(layer.grads for layer in layers)
        params = SharedParams(cdln)
        try:
            clone = SharedParams.rehydrate(params.name)
            assert params.num_arrays == 11 == (
                sum(len(layer.params) for layer in layers)
                + 3 * len(cdln.linear_stages)
            )
            assert not any(layer.grads for layer in clone.baseline.layers)
            got = clone.predict(images, delta=DELTA)
            want = cdln.predict(images, delta=DELTA)
            for field in ("labels", "exit_stages", "confidences"):
                np.testing.assert_array_equal(
                    getattr(got, field), getattr(want, field)
                )
        finally:
            params.dispose()

    def test_views_are_readonly_and_exact(self):
        payload = {
            "w": np.arange(12, dtype=np.float64).reshape(3, 4),
            "nested": [np.ones(5, dtype=np.float32), "tag"],
            "n": 7,
        }
        params = SharedParams(payload)
        try:
            assert params.num_arrays == 2
            clone = SharedParams.rehydrate(params.name)
            np.testing.assert_array_equal(clone["w"], payload["w"])
            np.testing.assert_array_equal(clone["nested"][0], payload["nested"][0])
            assert clone["nested"][1] == "tag" and clone["n"] == 7
            assert not clone["w"].flags.writeable
            with pytest.raises(ValueError):
                clone["w"][0, 0] = 99.0
        finally:
            params.dispose()

    def test_object_dtype_arrays_stay_inline(self):
        payload = {"objs": np.array([{"a": 1}, None], dtype=object)}
        params = SharedParams(payload)
        try:
            assert params.num_arrays == 0
            clone = SharedParams.rehydrate(params.name)
            assert clone["objs"][0] == {"a": 1}
        finally:
            params.dispose()

    def test_dispose_is_idempotent(self):
        params = SharedParams({"w": np.zeros(4)})
        params.dispose()
        params.dispose()


class TestFabricConfigValidation:
    def test_knob_bounds(self, trained_3c):
        cfg = ServingConfig(model=trained_3c.cdln, delta=DELTA)
        with pytest.raises(ConfigurationError, match="replicas"):
            FabricConfig(config=cfg, replicas=0).validate()
        with pytest.raises(ConfigurationError, match="capacity_ops_per_s"):
            FabricConfig(config=cfg, capacity_ops_per_s=0.0).validate()

    def test_registry_configs_rejected(self, trained_3c):
        registry = ModelRegistry()
        registry.register("m", trained_3c.cdln)
        cfg = ServingConfig(registry=registry, model_spec="m", delta=DELTA)
        with pytest.raises(ConfigurationError, match="shared memory"):
            FabricConfig(config=cfg).validate()

    def test_uncalibrated_soft_controller_rejected(self, trained_3c):
        cfg = ServingConfig(
            model=trained_3c.cdln,
            controller=DeltaController(target_mean_ops=1e5),
        )
        with pytest.raises(ConfigurationError, match="calibrate"):
            ServingFabric(FabricConfig(config=cfg))


class TestFleetServing:
    def test_serves_with_exact_ledger(self, fleet, images):
        before = fleet.fleet_snapshot()
        tickets = [
            fleet.submit(images[i % len(images)], priority=i % 3)
            for i in range(24)
        ]
        results = [t.result(timeout=30.0) for t in tickets]
        assert all(not r.failed for r in results)
        assert {r.request_id for r in results} == {
            t.request_id for t in tickets
        }
        snap = fleet.fleet_snapshot()
        assert snap.requests - before.requests == 24
        assert snap.failed_requests == before.failed_requests
        assert sum(n for _, n in snap.requests_by_replica) == snap.requests
        assert fleet.queue_depth() == 0

    def test_latency_covers_fleet_queue_wait(self, fleet, images):
        ticket = fleet.submit(images[0])
        result = ticket.result(timeout=30.0)
        assert result.latency_s > 0
        assert result.queue_wait_s >= 0
        assert result.latency_s >= result.queue_wait_s

    def test_health_surface(self, fleet):
        health = fleet.health()
        assert health.live and health.ready and not health.degraded
        assert health.worker_restarts == 0
        assert health.restart_budget_remaining == 2 * 5
        assert fleet.live_replicas == 2
        assert fleet.running

    def test_nan_image_fails_ticket_at_intake(self, fleet, images):
        bad = images[0].copy()
        bad.flat[0] = np.nan
        ticket = fleet.submit(bad)
        result = ticket.result(timeout=1.0)
        assert result.failed and result.error == "invalid_input"
        snap = fleet.fleet_snapshot()
        assert ("invalid_input", 1) in snap.failed_by_cause

    def test_wrong_shape_always_raises(self, fleet):
        with pytest.raises(ShapeError):
            fleet.submit(np.zeros((3, 3)))

    def test_bad_deadline_rejected(self, fleet, images):
        with pytest.raises(ConfigurationError, match="deadline_s"):
            fleet.submit(images[0], deadline_s=0.0)

    def test_double_start_rejected(self, fleet):
        with pytest.raises(ConfigurationError, match="already started"):
            fleet.start()

    def test_priority_boards_ahead_of_backlog(self, trained_3c, images):
        # One throttled replica => strictly serialized batches: the bulk
        # backlog queues up, then the late high-priority request must
        # board the next dispatched batch ahead of the remaining bulk.
        config = _fabric_config(
            trained_3c, replicas=1, capacity_ops_per_s=2e7
        )
        with ServingFabric(config) as fabric:
            bulk = [fabric.submit(images[i % 16]) for i in range(12)]
            while fabric.queue_depth() < 6:  # backlog exists
                time.sleep(0.001)
            urgent = fabric.submit(images[0], priority=10)
            done_at = {}
            for name, ticket in [("urgent", urgent)] + [
                (i, t) for i, t in enumerate(bulk)
            ]:
                ticket.result(timeout=60.0)
                done_at[name] = time.perf_counter()
            assert done_at["urgent"] < done_at[len(bulk) - 1]

    def test_queue_depth_counts_waiting_and_inflight(
        self, trained_3c, images
    ):
        config = _fabric_config(
            trained_3c, replicas=1, capacity_ops_per_s=2e7
        )
        with ServingFabric(config) as fabric:
            tickets = [fabric.submit(images[i % 16]) for i in range(10)]
            deep = max(
                fabric.queue_depth() for _ in range(200) if not time.sleep(0.002)
            )
            assert deep > 0
            for ticket in tickets:
                ticket.result(timeout=60.0)
            assert fabric.queue_depth() == 0

    def test_stop_drains_a_partial_window(self, trained_3c, images):
        # The window would hold these three for a minute; stop() sets the
        # dispatcher draining, so they leave at once and are answered.
        config = _fabric_config(
            trained_3c,
            replicas=1,
            policy=MicroBatchPolicy(max_batch_size=64, max_wait_s=60.0),
        )
        fabric = ServingFabric(config).start()
        tickets = [fabric.submit(images[i]) for i in range(3)]
        time.sleep(0.05)
        assert fabric.queue_depth() == 3
        start = time.perf_counter()
        fabric.stop()
        assert time.perf_counter() - start < 30.0
        assert all(not t.result(timeout=0).failed for t in tickets)

    def test_submit_after_stop_raises(self, trained_3c, images):
        fabric = ServingFabric(_fabric_config(trained_3c, replicas=1)).start()
        fabric.stop()
        with pytest.raises(ConfigurationError, match="not running"):
            fabric.submit(images[0])
        fabric.stop()  # idempotent


class TestReplicaCrash:
    def test_kill_fails_inflight_restarts_and_reconciles(
        self, trained_3c, images, tmp_path
    ):
        config = _fabric_config(
            trained_3c,
            replicas=2,
            obs_dir=tmp_path,
            resilience=ResiliencePolicy(max_retries=1, max_restarts=5),
        )
        with ServingFabric(config) as fabric:
            tickets = []
            for i in range(80):
                tickets.append(fabric.submit(images[i % 16]))
                if i == 30:
                    assert fabric.kill_replica(0)
                time.sleep(0.002)
            results = [t.result(timeout=60.0) for t in tickets]
            ok = [r for r in results if not r.failed]
            failed = [r for r in results if r.failed]
            # The kill loses at most the one in-flight batch; everything
            # else reroutes to the survivor or the restarted replica.
            assert {r.error for r in failed} <= {"worker_crash"}
            assert len(failed) <= FAST.max_batch_size
            snap = fabric.fleet_snapshot()
            assert snap.requests == len(ok)
            assert snap.failed_requests == len(failed)
            assert snap.restarts == 1
            assert fabric.health().worker_restarts == 1
            deadline = time.time() + 15.0
            while fabric.live_replicas < 2 and time.time() < deadline:
                time.sleep(0.02)
            assert fabric.live_replicas == 2
            after = [fabric.submit(images[i % 16]) for i in range(8)]
            assert all(
                not t.result(timeout=30.0).failed for t in after
            )
        # Span coverage: every request carries at least one span -- acked
        # batches flushed worker-side, crash casualties got parent spans.
        spans = []
        for path in tmp_path.rglob("trace.jsonl"):
            spans += [
                json.loads(line)
                for line in path.read_text().splitlines()
                if line.strip()
            ]
        spans = [s for s in spans if s.get("kind") == "span"]
        seen = {s["request_id"] for s in spans}
        assert seen == {t.request_id for t in tickets + after}
        crash_spans = [s for s in spans if s.get("error") == "worker_crash"]
        assert len(crash_spans) == len(failed)
        # Replica/session batch-id namespacing keeps ids collision-free.
        assert len({(s["batch_id"], s["request_id"]) for s in spans}) == len(
            spans
        )

    def test_restart_budget_exhaustion_fails_backlog_and_fast(
        self, trained_3c, images
    ):
        config = _fabric_config(
            trained_3c,
            replicas=1,
            capacity_ops_per_s=2e7,
            resilience=ResiliencePolicy(max_retries=1, max_restarts=0),
        )
        with ServingFabric(config) as fabric:
            tickets = [fabric.submit(images[i % 16]) for i in range(12)]
            fabric.kill_replica(0)
            results = [t.result(timeout=30.0) for t in tickets]
            failed = [r for r in results if r.failed]
            assert failed, "the kill must fail at least the in-flight batch"
            assert {r.error for r in failed} <= {
                "worker_crash", "restart_budget",
            }
            deadline = time.time() + 10.0
            while fabric.live_replicas and time.time() < deadline:
                time.sleep(0.02)
            health = fabric.health()
            assert not health.live and health.degraded
            assert health.restart_budget_remaining == 0
            late = fabric.submit(images[0])
            late_result = late.result(timeout=1.0)
            assert late_result.failed
            assert late_result.error == "restart_budget"
            snap = fabric.fleet_snapshot()
            assert snap.requests + snap.failed_requests == 13

    def test_stop_after_a_replica_died_does_not_wait_for_its_ack(
        self, trained_3c, images
    ):
        # A dead replica never acks ``stop``; stop() must not sit out a
        # timeout for it, and must still collect every live replica's ack.
        config = _fabric_config(
            trained_3c,
            replicas=2,
            resilience=ResiliencePolicy(max_retries=1, max_restarts=0),
        )
        fabric = ServingFabric(config).start()
        try:
            assert not fabric.submit(images[0]).result(timeout=30.0).failed
            assert fabric.kill_replica(0)
            deadline = time.time() + 10.0
            while fabric.live_replicas > 1 and time.time() < deadline:
                time.sleep(0.02)
            assert fabric.live_replicas == 1
            alive = [r for r in fabric._replicas if r.process.is_alive()]
            assert [r.id for r in alive] == [1]
        finally:
            started = time.perf_counter()
            fabric.stop()
            elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"stop() took {elapsed:.1f}s"
        assert all(r.stopped.is_set() for r in alive)
        assert not any(r.collector.is_alive() for r in fabric._replicas)

    def test_acked_answer_is_not_a_casualty(self, trained_3c, images):
        """A replica that dies right after acking: the ack is an answer,
        because the session's collector reads it before it runs the death
        path."""
        config = _fabric_config(
            trained_3c,
            replicas=1,
            resilience=ResiliencePolicy(max_retries=1, max_restarts=5),
        )
        with ServingFabric(config) as fabric:
            handle = fabric._handle_result

            def die_then_handle(rep, msg):
                fabric._handle_result = handle
                assert fabric.kill_replica(rep.id)
                time.sleep(0.3)
                handle(rep, msg)

            fabric._handle_result = die_then_handle
            answer = fabric.submit(images[0]).result(timeout=30.0)
            assert not answer.failed
            snap = fabric.fleet_snapshot()
            assert (snap.requests, snap.failed_requests) == (1, 0)

    def test_death_mid_drain_fails_its_batch_at_once(self, trained_3c, images):
        """stop() does not sit out the drain timeout for a replica that dies
        while draining: its batch fails as a crash, with the death."""
        stall = FaultPlan(
            specs=(FaultSpec(kind="worker_stall", rate=1.0, magnitude_s=1.0),)
        )
        config = _fabric_config(
            trained_3c, replicas=1, faults=stall, drain_timeout_s=6.0
        )
        fabric = ServingFabric(config).start()
        ticket = fabric.submit(images[0])
        deadline = time.time() + 30.0
        while (
            fabric._dispatcher.queue_depth() != 1 or len(fabric._dispatcher)
        ) and time.time() < deadline:
            time.sleep(0.01)  # until the batch is in flight
        killer = threading.Timer(0.2, fabric.kill_replica, args=(0,))
        killer.start()
        started = time.perf_counter()
        fabric.stop()
        elapsed = time.perf_counter() - started
        killer.join(timeout=5.0)
        assert elapsed < 3.0, f"stop() took {elapsed:.1f}s"
        answer = ticket.result(timeout=0)
        assert answer.failed and answer.error == "worker_crash"
        assert "replica 0 died" in answer.message

    def test_restart_count_at_budget_exhaustion(self, trained_3c, images):
        """The death that spends the budget is not a restart: every count
        reads ``max_restarts``."""
        observer = Observer()
        config = _fabric_config(
            trained_3c,
            replicas=1,
            observer=observer,
            resilience=ResiliencePolicy(max_retries=1, max_restarts=1),
        )
        with ServingFabric(config) as fabric:
            assert fabric.kill_replica(0)
            deadline = time.time() + 10.0
            while fabric.worker_restarts < 1 and time.time() < deadline:
                time.sleep(0.02)
            # The restarted replica answers: the restart was performed.
            assert not fabric.submit(images[0]).result(timeout=60.0).failed
            assert fabric.kill_replica(0)
            deadline = time.time() + 10.0
            while fabric.health().live and time.time() < deadline:
                time.sleep(0.02)
            health = fabric.health()
            assert not health.live and health.restart_budget_remaining == 0
            assert fabric.worker_restarts == 1
            assert health.worker_restarts == 1
            assert fabric.fleet_snapshot().restarts == 1
            counter = observer.metrics.counter("replica_restarts_total")
            assert counter.value() == 1.0

    def test_death_during_start_fails_start_and_never_restarts(
        self, trained_3c, monkeypatch
    ):
        fabric = ServingFabric(_fabric_config(trained_3c, replicas=1))
        make_spec = fabric._make_spec
        monkeypatch.setattr(
            fabric, "_make_spec",
            lambda rep: replace(make_spec(rep), shm_name="repro-no-segment"),
        )
        with pytest.raises(ConfigurationError, match="died during startup"):
            fabric.start()
        assert fabric.worker_restarts == 0
        assert fabric._replicas[0].state == "dead"

    def test_unsupervised_fleet_raises_on_submit_when_dead(
        self, trained_3c, images
    ):
        config = _fabric_config(trained_3c, replicas=1, resilience=None)
        with ServingFabric(config) as fabric:
            first = fabric.submit(images[0])
            assert not first.result(timeout=30.0).failed
            fabric.kill_replica(0)
            deadline = time.time() + 10.0
            while fabric.live_replicas and time.time() < deadline:
                time.sleep(0.02)
            with pytest.raises(RuntimeError, match="dead"):
                fabric.submit(images[0])


class TestFleetControl:
    @pytest.fixture(scope="class")
    def table(self, trained_3c_all_taps, tiny_test_set):
        scenarios = [
            Scenario(name="clean"),
            Scenario(name="noise", corruptions=(("gaussian_noise", 1.0),)),
        ]
        return OperatingTable.build(
            trained_3c_all_taps.cdln,
            tiny_test_set,
            scenarios,
            reference_delta=DELTA,
        )

    def _controlled_fabric(
        self, trained, table, *, observer=None, **kw
    ) -> ServingFabric:
        entry = table.entry(table.reference_regime)
        target = entry.point_for_delta(DELTA).mean_ops
        return ServingFabric(
            FabricConfig(
                config=ServingConfig(
                    model=trained.cdln,
                    policy=FAST,
                    controller=DeltaController(
                        target_mean_ops=target, delta=DELTA
                    ),
                    adaptive=AdaptiveDeltaPolicy(table),
                    resilience=ResiliencePolicy(max_retries=1),
                    observer=observer,
                ),
                **kw,
            )
        )

    def test_prime_calibrates_fleet_controller(
        self, trained_3c_all_taps, table
    ):
        fabric = self._controlled_fabric(trained_3c_all_taps, table)
        assert not fabric.controller.needs_calibration
        assert fabric.delta == pytest.approx(fabric.controller.delta)
        assert fabric.adaptive.detector is not None

    def test_merged_drift_retargets_fleet(self, trained_3c_all_taps, table):
        fabric = self._controlled_fabric(trained_3c_all_taps, table)
        detector = fabric.adaptive.detector
        shifted = table.entry("noise").signature_at(
            fabric.controller.delta, max_stage=None
        )
        if shifted.count <= 0:
            shifted = RegimeSignature(
                shifted.exit_fractions, shifted.stage0_quantiles, count=256
            )
        # Split the shifted fleet view unevenly across the two replicas;
        # the count-weighted merge must reconstruct it exactly.
        parts = [
            RegimeSignature(
                shifted.exit_fractions, shifted.stage0_quantiles, count=300
            ),
            RegimeSignature(
                shifted.exit_fractions, shifted.stage0_quantiles, count=20
            ),
        ]
        merged = RegimeSignature.merge(parts)
        np.testing.assert_allclose(
            merged.exit_fractions, shifted.exit_fractions
        )
        for rep, part in zip(fabric._replicas, parts):
            rep.state = "live"
            rep.last_signature = part
        fired = False
        for _ in range(detector.min_observations + detector.patience + 2):
            with fabric._cond:
                fabric._feed_drift_locked()
            if fabric.adaptive.events:
                fired = True
                break
        assert fired, "merged shifted signatures must trigger a retarget"
        assert fabric.adaptive.current_regime == "noise"
        event = fabric.adaptive.events[-1]
        assert event.regime == "noise"
        assert fabric.delta == pytest.approx(fabric.controller.delta)

    @staticmethod
    def _window(table, regime, delta, count) -> RegimeSignature:
        signature = table.entry(regime).signature_at(delta, max_stage=None)
        return RegimeSignature(
            signature.exit_fractions, signature.stage0_quantiles, count=count
        )

    @staticmethod
    def _feed(fabric, signatures, states=None, rounds=8) -> None:
        """Install one window per replica and run the drift feed."""
        states = states or ["live"] * len(signatures)
        for rep, signature, state in zip(fabric._replicas, signatures, states):
            rep.state = state
            rep.last_signature = signature
        for _ in range(rounds):
            with fabric._cond:
                fabric._feed_drift_locked()

    def test_clean_fleet_window_holds_delta(self, trained_3c_all_taps, table):
        fabric = self._controlled_fabric(trained_3c_all_taps, table)
        primed = fabric.controller.delta
        clean = self._window(table, "clean", primed, 128)
        self._feed(fabric, [clean, clean])
        assert fabric.adaptive.detector.observations == 8
        assert fabric.adaptive.events == []
        assert fabric.controller.delta == primed

    def test_replicas_without_a_window_feed_nothing(
        self, trained_3c_all_taps, table
    ):
        fabric = self._controlled_fabric(trained_3c_all_taps, table)
        self._feed(fabric, [None, None])
        assert fabric.adaptive.detector.observations == 0

    def test_dead_replica_window_is_left_out(self, trained_3c_all_taps, table):
        """A dead replica's last window must not sway the fleet view: its
        shifted traffic stops counting, and counts again once it is live."""
        fabric = self._controlled_fabric(trained_3c_all_taps, table)
        delta = fabric.controller.delta
        noise = self._window(table, "noise", delta, 4096)
        clean = self._window(table, "clean", delta, 16)
        self._feed(fabric, [noise, clean], states=["dead", "live"])
        assert fabric.adaptive.events == []
        self._feed(fabric, [noise, clean], states=["live", "live"])
        assert [e.regime for e in fabric.adaptive.events] == ["noise"]

    def test_fleet_retarget_event_and_delta_gauge(
        self, trained_3c_all_taps, table
    ):
        observer = Observer()
        fabric = self._controlled_fabric(
            trained_3c_all_taps, table, observer=observer
        )
        primed = fabric.controller.delta
        noise = self._window(table, "noise", primed, 256)
        self._feed(fabric, [noise, noise])
        (retarget,) = fabric.adaptive.events
        (emitted,) = [
            e for e in observer.events.tail() if e["kind"] == "fleet_retarget"
        ]
        assert {k: emitted[k] for k in (
            "regime", "score", "distance", "delta", "trigger"
        )} == {
            "regime": retarget.regime, "score": retarget.score,
            "distance": retarget.distance, "delta": retarget.delta,
            "trigger": retarget.trigger,
        }
        assert retarget.delta != primed
        gauges = parse_prometheus(observer.render_prometheus())
        assert gauges[("delta", ())] == retarget.delta

    def test_fleet_and_engine_retarget_alike(
        self, trained_3c_all_taps, table
    ):
        """Differential: the merged fleet window and the same window handed
        to an in-process engine's policy land on the same regime and δ."""
        fabric = self._controlled_fabric(trained_3c_all_taps, table)
        target = fabric.controller.target_mean_ops
        engine = InferenceEngine.from_config(
            ServingConfig(
                model=trained_3c_all_taps.cdln,
                controller=DeltaController(target_mean_ops=target, delta=DELTA),
                adaptive=AdaptiveDeltaPolicy(table),
            )
        )
        delta = fabric.controller.delta
        assert engine.controller.delta == delta
        parts = [
            self._window(table, "noise", delta, 300),
            self._window(table, "noise", delta, 20),
        ]
        merged = RegimeSignature.merge(parts)
        self._feed(fabric, parts)
        in_process = []
        for _ in range(8):
            event = engine.adaptive.after_window(engine, merged)
            if event is not None:
                in_process.append(event)
        assert fabric.adaptive.events == in_process
        assert [e.regime for e in in_process] == ["noise"]
        assert fabric.controller.delta == engine.controller.delta

    def test_fleet_without_adaptive_policy_never_feeds(
        self, trained_3c_all_taps, table
    ):
        fabric = ServingFabric(_fabric_config(trained_3c_all_taps))
        assert fabric.adaptive is None
        noise = self._window(table, "noise", DELTA, 256)
        self._feed(fabric, [noise, noise])
        assert fabric.delta == DELTA

    def test_fleet_delta_control_end_to_end(
        self, trained_3c_all_taps, table, images
    ):
        shape = trained_3c_all_taps.cdln.baseline.input_shape
        pool = np.random.default_rng(3).standard_normal((16, *shape))
        fabric = self._controlled_fabric(
            trained_3c_all_taps, table, replicas=2
        )
        with fabric:
            tickets = [fabric.submit(pool[i % 16]) for i in range(24)]
            results = [t.result(timeout=30.0) for t in tickets]
            assert all(not r.failed for r in results)
            # The fleet controller folded each acked batch's measured cost
            # into its feedback EWMA: at least one batch, at most one per
            # request.  The final ratio itself is no evidence: a retarget
            # onto a different regime legitimately resets it, and where the
            # 24 requests' batches fall decides whether one came last.
            assert 1 <= fabric.controller.feedback_folds <= len(results)
            assert 0.0 <= fabric.delta <= 1.0


class TestReplicaIndependence:
    """Per-replica seed derivation: N independent streams, reproducibly."""

    def test_fault_plan_streams_are_disjoint_and_stable(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="request_error", rate=0.5),), seed=7
        )
        seeds = {plan.for_replica(i).seed for i in range(8)}
        assert len(seeds) == 8 and plan.seed not in seeds
        assert plan.for_replica(3) == plan.for_replica(3)
        with pytest.raises(ConfigurationError):
            plan.for_replica(-1)

    def test_arrival_schedules_decorrelate(self):
        schedule = ArrivalSchedule.poisson(
            rate_rps=200.0, duration_s=0.5, seed=11
        )
        a = [x.t for x in schedule.for_replica(0).materialize()]
        b = [x.t for x in schedule.for_replica(1).materialize()]
        assert a != b
        again = [x.t for x in schedule.for_replica(0).materialize()]
        assert a == again
        with pytest.raises(ConfigurationError, match="replay"):
            ArrivalSchedule.replay(
                arrivals=schedule.materialize()
            ).for_replica(0)


class TestLoadRunnerIntegration:
    def test_open_loop_report_reconciles_with_fleet(
        self, trained_3c, images
    ):
        fabric = ServingFabric(
            _fabric_config(trained_3c, replicas=2)
        ).start()
        try:
            schedule = ArrivalSchedule.poisson(
                rate_rps=150.0, duration_s=0.6, seed=5, deadline_s=1.0
            )
            runner = LoadRunner(fabric, schedule, images)
            report = runner.run(slo_p99_s=1.0, server=fabric)
            assert report.dropped == 0
            snap = fabric.fleet_snapshot()
            assert report.answered == snap.requests
            assert report.failed_count == snap.failed_requests
            assert report.requests == snap.requests + snap.failed_requests
        finally:
            fabric.stop()


class TestFailureSpan:
    def test_fabric_and_engine_write_the_same_failure_span(
        self, trained_3c, tmp_path
    ):
        """Both front ends record a rejected request through one
        ``span_of``: the records differ only in ids, timing and the
        model's registry name."""
        shape = trained_3c.cdln.baseline.input_shape
        bad = np.full(shape, np.nan)
        spans = {}
        for name in ("engine", "fabric"):
            with Observer.to_directory(tmp_path / name) as observer:
                config = ServingConfig(
                    model=trained_3c.cdln,
                    delta=DELTA,
                    policy=FAST,
                    resilience=ResiliencePolicy(max_retries=1),
                    observer=observer,
                )
                if name == "engine":
                    ticket = InferenceEngine.from_config(config).submit(bad)
                else:
                    # Intake runs in the dispatcher process: no replica
                    # needs to boot for a payload it rejects.
                    fabric = ServingFabric(FabricConfig(config=config))
                    ticket = fabric._dispatcher.submit(bad)
                answer = ticket.result(timeout=5.0)
                assert answer.failed and answer.error == "invalid_input"
            (spans[name],) = read_spans(tmp_path / name / "trace.jsonl")
        varying = ("request_id", "batch_id", "latency_s", "queue_wait_s")
        for span in spans.values():
            assert span["queue_wait_s"] == span["latency_s"] >= 0.0
            for key in (*varying, "model_spec"):
                del span[key]
        assert spans["engine"] == spans["fabric"]
        assert spans["fabric"]["error"] == "invalid_input"
        assert spans["fabric"]["exit_stage"] == -1

    def test_replica_failure_spans_take_ids_of_their_own(
        self, trained_3c, images, tmp_path
    ):
        """A replica's failure spans count down from minus its batch-id
        base: they take no batch id, which fault plans key on, and share
        no id with a batch or with each other."""
        config = _fabric_config(
            trained_3c,
            replicas=1,
            obs_dir=tmp_path,
            resilience=ResiliencePolicy(max_retries=0, degraded_after=0),
            faults=FaultPlan(specs=(FaultSpec(kind="request_error", rate=0.5),)),
        )
        with ServingFabric(config) as fabric:
            tickets = [fabric.submit(images[i % 16]) for i in range(24)]
            answers = [t.result(timeout=60.0) for t in tickets]
        spans = read_spans(tmp_path / "replica-0" / "session-0" / "trace.jsonl")
        failed = [s["batch_id"] for s in spans if s.get("error") is not None]
        served = {s["batch_id"] for s in spans if s.get("error") is None}
        assert len(failed) == sum(a.failed for a in answers) > 0
        assert served and min(served) >= 10**9
        assert len(set(failed)) == len(failed)
        assert max(failed) == -(10**9) - 1


class TestFleetMetrics:
    def test_snapshot_folds_the_answers_the_parent_delivers(
        self, trained_3c, images
    ):
        """A replica's answers fold into ``fabric.metrics``: a failure in
        a shed batch counts as failed, not shed, in the snapshot and in
        the ``fleet_shed_total`` counter alike."""
        observer = Observer()
        fabric = ServingFabric(
            _fabric_config(trained_3c, replicas=1, observer=observer)
        )
        tickets = [fabric._dispatcher.submit(images[i]) for i in range(2)]
        items = fabric._dispatcher.pop().items
        rep = fabric._replicas[0]
        rep.inflight = Batch(items, 2, True, items[0].enqueued_at)
        rep.batch_id = 0
        served = InferenceResponse(
            request_id=tickets[0].request_id, label=3, exit_stage=0,
            exit_stage_name="O1", confidence=0.9, delta=DELTA, ops=10.0,
            energy_pj=1.0, model_spec="fleet", batch_size=2, latency_s=0.0,
            shed=True,
        )
        failed = RequestFailed(
            request_id=tickets[1].request_id, error="injected_fault",
            message="poison",
        )
        fabric._handle_result(
            rep,
            ("result", 0, 0, [(served.request_id, served),
                              (failed.request_id, failed)], 10.0, None),
        )
        assert tickets[0].result(timeout=0).shed
        assert tickets[1].result(timeout=0).failed
        snap = fabric.fleet_snapshot()
        assert snap.requests == 1 and snap.requests_by_replica == ((0, 1),)
        assert snap.shed_requests == 1
        assert snap.failed_by_cause == (("injected_fault", 1),)
        assert fabric.metrics.snapshot().mean_ops == 10.0
        shed_total = observer.metrics.counter(
            "fleet_shed_total", labels=("replica",)
        )
        assert shed_total.value(replica=0) == 1.0
