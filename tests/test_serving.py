"""Tests for the serving subsystem: the shared cascade executor, the
micro-batched engine (sync + async facade), the model registry, the
budget-aware delta controller, and the serving metrics.

The two load-bearing properties:

* **Parity** -- the engine's answers (labels, exit stages, confidences)
  exactly match offline ``CDLN.predict`` for any interleaving of request
  arrivals, because both run the one shared executor.
* **Hard budget** -- with a hard ops budget installed, no response's cost
  ever exceeds it, for any delta and any workload (the budget becomes a
  structural depth cap, not a statistical target).
"""

import sys
import threading
import time
from time import perf_counter

import numpy as np
import pytest

from repro.cdl.score_cache import exit_stages_from_scores
from repro.errors import ConfigurationError, NotFittedError, ShapeError
from repro.serving.batching import (
    Dispatcher,
    MicroBatcher,
    MicroBatchPolicy,
    Ticket,
    VirtualClock,
    _Pending,
    collect_from_queue,
)
from repro.serving.cascade import execute_cascade
from repro.serving.config import ServingConfig
from repro.serving.controller import DeltaController, ShedPolicy
import repro.serving.engine as serving_engine
from repro.serving.engine import AsyncEngine, InferenceEngine, InferenceResponse
from repro.serving.metrics import ServingMetrics
from repro.serving.registry import ModelRegistry


# -- shared executor -----------------------------------------------------------


class TestExecuteCascade:
    def test_matches_predict(self, trained_3c, tiny_test_set):
        images = tiny_test_set.images[:60]
        offline = trained_3c.cdln.predict(images, delta=0.6)
        result = execute_cascade(trained_3c.cdln, images, 0.6)
        np.testing.assert_array_equal(result.labels, offline.labels)
        np.testing.assert_array_equal(result.exit_stages, offline.exit_stages)
        np.testing.assert_array_equal(result.confidences, offline.confidences)

    def test_records_cover_executed_stages(self, trained_3c, tiny_test_set):
        images = tiny_test_set.images[:20]
        result = execute_cascade(trained_3c.cdln, images, 0.6, record_stages=True)
        assert result.stage_records is not None
        # The active set shrinks monotonically and matches the exits.
        previous = np.arange(len(images))
        for record in result.stage_records:
            assert np.isin(record.active_indices, previous).all()
            assert record.scores.shape[0] == record.active_indices.shape[0]
            exited_here = record.active_indices[record.terminated]
            np.testing.assert_array_equal(
                np.sort(exited_here),
                np.sort(np.nonzero(result.exit_stages == record.stage_index)[0]),
            )
            previous = record.active_indices[~record.terminated]

    def test_max_stage_caps_depth(self, trained_3c, tiny_test_set):
        images = tiny_test_set.images[:50]
        result = execute_cascade(trained_3c.cdln, images, 0.995, max_stage=0)
        assert (result.exit_stages == 0).all()
        assert (result.labels >= 0).all()

    def test_max_stage_out_of_range(self, trained_3c, tiny_test_set):
        with pytest.raises(ConfigurationError):
            execute_cascade(
                trained_3c.cdln,
                tiny_test_set.images[:2],
                0.6,
                max_stage=len(trained_3c.cdln.stages),
            )


# -- engine parity -------------------------------------------------------------


class TestEngineParity:
    def test_any_interleaving_matches_offline(self, trained_3c, tiny_test_set):
        """Requests arriving in arbitrary waves, served in arbitrary
        micro-batch sizes, must answer exactly like one offline predict."""
        images = tiny_test_set.images[:90]
        offline = trained_3c.cdln.predict(images, delta=0.6)
        rng = np.random.default_rng(3)
        engine = InferenceEngine.from_config(
            ServingConfig(
                model=trained_3c.cdln,
                delta=0.6,
                policy=MicroBatchPolicy(max_batch_size=int(rng.integers(2, 17))),
            )
        )
        tickets = []
        cursor = 0
        while cursor < len(images):
            wave = int(rng.integers(1, 12))
            for image in images[cursor : cursor + wave]:
                tickets.append(engine.submit(image))
            if rng.random() < 0.5:  # sometimes flush mid-stream
                engine.flush()
            cursor += wave
        engine.flush()
        responses = [t.result(timeout=0) for t in tickets]
        assert [r.label for r in responses] == offline.labels.tolist()
        assert [r.exit_stage for r in responses] == offline.exit_stages.tolist()
        # Micro-batches slice the workload differently from the offline
        # pass; BLAS may round float32 scores differently per composition.
        float64 = trained_3c.baseline.dtype == np.float64
        np.testing.assert_allclose(
            [r.confidence for r in responses],
            offline.confidences,
            rtol=1e-9 if float64 else 1e-5,
            atol=0 if float64 else 1e-6,
        )

    def test_response_costs_come_from_cost_table(self, trained_3c, tiny_test_set):
        engine = InferenceEngine.from_config(
            ServingConfig(model=trained_3c.cdln, delta=0.6)
        )
        table = trained_3c.cdln.path_cost_table()
        totals = table.exit_totals()
        for response in engine.classify_many(tiny_test_set.images[:30]):
            assert response.ops == totals[response.exit_stage]
            assert response.energy_pj > 0
            assert response.exit_stage_name == table.stage_names[response.exit_stage]

    def test_classify_single(self, trained_3c, tiny_test_set):
        engine = InferenceEngine.from_config(
            ServingConfig(model=trained_3c.cdln, delta=0.6)
        )
        response = engine.classify(tiny_test_set.images[0])
        trace_label = trained_3c.cdln.predict(
            tiny_test_set.images[:1], delta=0.6
        ).labels[0]
        assert response.label == trace_label
        assert response.batch_size == 1
        assert response.latency_s >= 0

    def test_submit_rejects_bad_shape(self, trained_3c):
        engine = InferenceEngine(model=trained_3c.cdln)
        with pytest.raises(ShapeError):
            engine.submit(np.zeros((2, 1, 28, 28)))

    def test_needs_model_or_registry(self, trained_3c):
        with pytest.raises(ConfigurationError):
            InferenceEngine()
        with pytest.raises(ConfigurationError):
            InferenceEngine(
                config=ServingConfig(
                    model=trained_3c.cdln, registry=ModelRegistry()
                )
            )

    def test_metrics_accumulate(self, trained_3c, tiny_test_set):
        engine = InferenceEngine.from_config(
            ServingConfig(
                model=trained_3c.cdln,
                delta=0.6,
                policy=MicroBatchPolicy(max_batch_size=8),
            )
        )
        engine.classify_many(tiny_test_set.images[:20])
        snap = engine.metrics.snapshot()
        assert snap.requests == 20
        assert snap.batches == 3  # 8 + 8 + 4
        assert snap.exit_stage_counts.sum() == 20
        assert snap.mean_ops > 0
        assert snap.latency_p95_s >= snap.latency_p50_s >= 0
        assert "Serving metrics" in snap.render()

    def test_queue_depth_counts_waiting_plus_inflight(
        self, trained_3c, tiny_test_set
    ):
        """The unified depth meaning: a batch being served still occupies
        the queue (waiting + in-flight), on every facade."""
        engine = InferenceEngine.from_config(
            ServingConfig(
                model=trained_3c.cdln,
                delta=0.6,
                policy=MicroBatchPolicy(max_batch_size=4),
            )
        )
        for image in tiny_test_set.images[:6]:
            engine.submit(image)
        assert engine.queue_depth() == engine.pending_count() == 6
        observed = []
        inner = engine._process_batch

        def spy(batch, **kwargs):
            observed.append(engine.queue_depth())
            return inner(batch, **kwargs)

        engine._process_batch = spy
        engine.flush()
        # First batch: 4 in flight + 2 waiting; second: 2 in flight.
        assert observed == [6, 2]
        assert engine.queue_depth() == 0


class TestAsyncFacade:
    def test_async_matches_offline(self, trained_3c, tiny_test_set):
        images = tiny_test_set.images[:40]
        offline = trained_3c.cdln.predict(images, delta=0.6)
        engine = InferenceEngine.from_config(
            ServingConfig(
                model=trained_3c.cdln,
                delta=0.6,
                policy=MicroBatchPolicy(max_batch_size=16, max_wait_s=0.001),
            )
        )
        with AsyncEngine(engine) as server:
            tickets = [server.submit(image) for image in images]
            responses = [t.result(timeout=30.0) for t in tickets]
        assert [r.label for r in responses] == offline.labels.tolist()
        assert [r.exit_stage for r in responses] == offline.exit_stages.tolist()

    def test_submit_before_start_raises(self, trained_3c, tiny_test_set):
        server = AsyncEngine(InferenceEngine(model=trained_3c.cdln))
        with pytest.raises(ConfigurationError):
            server.submit(tiny_test_set.images[0])

    def test_concurrent_submitters(self, trained_3c, tiny_test_set):
        images = tiny_test_set.images[:32]
        offline = trained_3c.cdln.predict(images, delta=0.6)
        engine = InferenceEngine.from_config(
            ServingConfig(model=trained_3c.cdln, delta=0.6)
        )
        results = {}

        def client(start: int, stop: int, server) -> None:
            tickets = [(i, server.submit(images[i])) for i in range(start, stop)]
            for i, ticket in tickets:
                results[i] = ticket.result(timeout=30.0)

        with AsyncEngine(engine) as server:
            threads = [
                threading.Thread(target=client, args=(i * 8, (i + 1) * 8, server))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert sorted(results) == list(range(32))
        for i in range(32):
            assert results[i].label == offline.labels[i]

    def test_many_submitters_under_fast_switching(self, trained_3c, tiny_test_set):
        # More submitter threads than cores, switching every microsecond:
        # a lost update in the dispatcher's queue or in-flight count would
        # strand a ticket or leave a phantom depth behind.
        images = tiny_test_set.images[:64]
        offline = trained_3c.cdln.predict(images, delta=0.6)
        engine = InferenceEngine.from_config(
            ServingConfig(
                model=trained_3c.cdln,
                delta=0.6,
                policy=MicroBatchPolicy(max_batch_size=8, max_wait_s=0.001),
            )
        )
        results = {}

        def client(first: int, server) -> None:
            tickets = [
                (i, server.submit(images[i], priority=i % 3))
                for i in range(first, 64, 8)
            ]
            for i, ticket in tickets:
                results[i] = ticket.result(timeout=30.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with AsyncEngine(engine) as server:
                threads = [
                    threading.Thread(target=client, args=(first, server))
                    for first in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(results) == list(range(64))
        assert [results[i].label for i in range(64)] == offline.labels.tolist()
        assert engine.queue_depth() == 0
        assert engine.metrics.snapshot().requests == 64

    def test_priority_boards_ahead_of_backlog(self, trained_3c, tiny_test_set):
        # Every dispatch takes 50 ms, so the bulk backlog queues up; the
        # late high-priority request must ride the next dispatched batch.
        engine = InferenceEngine.from_config(
            ServingConfig(
                model=trained_3c.cdln,
                delta=0.6,
                policy=MicroBatchPolicy(max_batch_size=4, max_wait_s=0.001),
            )
        )
        batches = []
        inner = engine._process_batch

        def slow(batch, **kwargs):
            batches.append([p.ticket.request_id for p in batch])
            time.sleep(0.05)
            return inner(batch, **kwargs)

        engine._process_batch = slow
        images = tiny_test_set.images
        with AsyncEngine(engine) as server:
            bulk = [server.submit(images[i]) for i in range(12)]
            while not batches:  # the first batch is being served
                time.sleep(0.001)
            urgent = server.submit(images[12], priority=10)
            for ticket in [*bulk, urgent]:
                ticket.result(timeout=30.0)
        assert len(batches) == 4
        assert urgent.request_id in batches[1]

    def test_profiler_hooks_wrap_one_call_per_batch(
        self, trained_3c, tiny_test_set, monkeypatch
    ):
        """perfbench wraps these two module attributes on a running worker
        and waits 100 ms for it to re-enter the wrapped collection."""
        engine = InferenceEngine.from_config(
            ServingConfig(
                model=trained_3c.cdln,
                delta=0.6,
                policy=MicroBatchPolicy(max_batch_size=4, max_wait_s=5.0),
            )
        )
        collected, idle_polls, cascades = [], [], []
        collect = serving_engine.collect_from_queue
        cascade = serving_engine.execute_cascade

        def traced_collect(*args, **kwargs):
            start = perf_counter()
            batch = collect(*args, **kwargs)
            if batch:
                collected.append(len(batch))
            else:
                idle_polls.append(perf_counter() - start)
            return batch

        def traced_cascade(cdln, images, *args, **kwargs):
            cascades.append(len(images))
            return cascade(cdln, images, *args, **kwargs)

        with AsyncEngine(engine) as server:
            monkeypatch.setattr(serving_engine, "collect_from_queue", traced_collect)
            monkeypatch.setattr(serving_engine, "execute_cascade", traced_cascade)
            time.sleep(0.1)
            for start in (0, 4, 8):
                tickets = [
                    server.submit(image)
                    for image in tiny_test_set.images[start:start + 4]
                ]
                for ticket in tickets:
                    ticket.result(timeout=30.0)
            time.sleep(0.12)
        assert collected == [4, 4, 4]
        assert cascades == [4, 4, 4]
        # Idle polls return falsy within the 50 ms poll (plus scheduling
        # slack that stays under perfbench's 100 ms wait).
        assert idle_polls
        assert max(idle_polls) < 0.09

    def test_stop_is_idempotent_and_restartable(self, trained_3c, tiny_test_set):
        engine = InferenceEngine.from_config(
            ServingConfig(model=trained_3c.cdln, delta=0.6)
        )
        server = AsyncEngine(engine)
        server.stop()  # not running: no-op
        server.start()
        first = server.submit(tiny_test_set.images[0]).result(timeout=30.0)
        server.stop()
        assert not server.running
        server.start()
        second = server.submit(tiny_test_set.images[0]).result(timeout=30.0)
        server.stop()
        assert first.label == second.label


# -- delta controller ----------------------------------------------------------


class TestDeltaController:
    def test_needs_some_budget(self):
        with pytest.raises(ConfigurationError):
            DeltaController()

    def test_hard_budget_never_violated(self, trained_3c, tiny_test_set):
        """Property: for any delta and any affordable hard budget, every
        response's cost stays within the budget."""
        cdln = trained_3c.cdln
        totals = cdln.path_cost_table().exit_totals()
        rng = np.random.default_rng(11)
        images = tiny_test_set.images
        for _ in range(6):
            budget = float(rng.uniform(totals[0], totals[-1] * 1.1))
            delta = float(rng.uniform(0.05, 0.95))
            controller = DeltaController(hard_ops_budget=budget, delta=delta)
            engine = InferenceEngine.from_config(
                ServingConfig(model=cdln, controller=controller)
            )
            picks = rng.choice(len(images), size=60, replace=False)
            for response in engine.classify_many(images[picks]):
                assert response.ops <= budget

    def test_unaffordable_hard_budget_raises(self, trained_3c, tiny_test_set):
        totals = trained_3c.cdln.path_cost_table().exit_totals()
        controller = DeltaController(hard_ops_budget=totals[0] * 0.5)
        engine = InferenceEngine.from_config(
            ServingConfig(model=trained_3c.cdln, controller=controller)
        )
        with pytest.raises(ConfigurationError):
            engine.classify(tiny_test_set.images[0])

    def test_simulation_matches_executor(self, trained_3c, tiny_test_set):
        """The calibration simulation must reproduce real exits exactly."""
        cdln = trained_3c.cdln
        images = tiny_test_set.images[:80]
        features = cdln.extract_features(images)
        stage_scores = [
            stage.classifier.confidence_scores(features[stage.attach_index])
            for stage in cdln.linear_stages
        ]
        for delta in (0.3, 0.6, 0.9):
            simulated = exit_stages_from_scores(
                stage_scores,
                cdln.activation_module,
                delta,
                len(cdln.stages),
                num_inputs=len(images),
            )
            real = cdln.predict(images, delta=delta).exit_stages
            np.testing.assert_array_equal(simulated, real)

    def test_soft_target_tracks_budget_on_calibration_workload(
        self, trained_3c, tiny_test_set
    ):
        """Serving the calibration workload itself must land exactly on the
        grid point closest to the target (the simulation is exact)."""
        cdln = trained_3c.cdln
        baseline = float(cdln.path_cost_table().baseline_cost.total)
        target = 0.8 * baseline
        controller = DeltaController(target_mean_ops=target, feedback_smoothing=0.0)
        engine = InferenceEngine.from_config(
                ServingConfig(model=cdln, controller=controller)
            )
        engine.calibrate(tiny_test_set.images)
        calibration = controller.calibration
        assert calibration is not None
        chosen = calibration.point_for_delta(controller.delta)
        best_gap = min(abs(p.mean_ops - target) for p in calibration.points)
        assert abs(chosen.mean_ops - target) == pytest.approx(best_gap)
        responses = engine.classify_many(tiny_test_set.images)
        measured = float(np.mean([r.ops for r in responses]))
        assert measured == pytest.approx(chosen.mean_ops)

    def test_lazy_calibration_on_first_batch(self, trained_3c, tiny_test_set):
        baseline = float(trained_3c.cdln.path_cost_table().baseline_cost.total)
        controller = DeltaController(target_mean_ops=0.8 * baseline)
        engine = InferenceEngine.from_config(
            ServingConfig(model=trained_3c.cdln, controller=controller)
        )
        assert controller.needs_calibration
        # A degenerate first batch must not pin the calibration curve.
        engine.classify(tiny_test_set.images[0])
        assert controller.needs_calibration
        engine.classify_many(tiny_test_set.images[:64])
        assert not controller.needs_calibration

    def test_feedback_moves_operating_point(self, trained_3c, tiny_test_set):
        """When observed costs exceed predictions, the controller must
        lower its effective target."""
        baseline = float(trained_3c.cdln.path_cost_table().baseline_cost.total)
        controller = DeltaController(
            target_mean_ops=0.8 * baseline, feedback_smoothing=1.0
        )
        controller.calibrate(trained_3c.cdln, tiny_test_set.images)
        predicted = controller.calibration.point_for_delta(controller.delta).mean_ops
        controller.observe(predicted * 2.0, batch_size=32)
        repicked = controller.calibration.point_for_delta(controller.delta).mean_ops
        assert repicked <= predicted


# -- registry ------------------------------------------------------------------


class TestModelRegistry:
    def test_register_and_autoversion(self, trained_3c):
        registry = ModelRegistry()
        first = registry.register("mnist", trained_3c)  # TrainedCdl accepted
        second = registry.register("mnist", trained_3c.cdln)
        assert (first.version, second.version) == (1, 2)
        assert registry.get("mnist").version == 2  # latest wins
        assert registry.get("mnist", 1) is first
        assert registry.resolve("mnist:1") is first
        assert registry.versions("mnist") == (1, 2)
        assert registry.names() == ("mnist",)

    def test_warm_artifacts(self, trained_3c):
        registry = ModelRegistry()
        entry = registry.register("m", trained_3c.cdln, warm=False)
        assert not entry.is_warm
        table = trained_3c.cdln.path_cost_table()
        np.testing.assert_allclose(entry.exit_ops, table.exit_totals())
        assert entry.is_warm
        assert (entry.exit_energies_pj > 0).all()
        entry.cool()
        assert not entry.is_warm

    def test_evict(self, trained_3c):
        registry = ModelRegistry()
        registry.register("m", trained_3c.cdln)
        registry.register("m", trained_3c.cdln)
        assert registry.evict("m", 1) == 1
        assert registry.versions("m") == (2,)
        assert registry.evict("m") == 1
        with pytest.raises(ConfigurationError):
            registry.evict("m")

    def test_unknown_lookups_raise(self, trained_3c):
        registry = ModelRegistry()
        with pytest.raises(ConfigurationError):
            registry.get("ghost")
        registry.register("m", trained_3c.cdln)
        with pytest.raises(ConfigurationError):
            registry.get("m", 9)
        with pytest.raises(ConfigurationError):
            registry.resolve("m:one")

    def test_rejects_unfitted_and_bad_names(self, trained_3c):
        from repro.cdl.architectures import mnist_3c
        from repro.cdl.network import CDLN

        registry = ModelRegistry()
        net, spec = mnist_3c(rng=0)
        with pytest.raises(NotFittedError):
            registry.register("raw", CDLN(net, spec.attach_indices))
        with pytest.raises(ConfigurationError):
            registry.register("a:b", trained_3c.cdln)
        registry.register("ok", trained_3c.cdln, version=3)
        with pytest.raises(ConfigurationError):
            registry.register("ok", trained_3c.cdln, version=3)

    def test_engine_hot_swap(self, trained_3c, trained_2c, tiny_test_set):
        registry = ModelRegistry()
        registry.register("threec", trained_3c)
        registry.register("twoc", trained_2c)
        engine = InferenceEngine.from_config(
            ServingConfig(registry=registry, model_spec="threec", delta=0.6)
        )
        engine.classify(tiny_test_set.images[0])
        engine.use_model("twoc")
        response = engine.classify(tiny_test_set.images[1])
        assert response.model_spec == "twoc:1"


# -- batching ------------------------------------------------------------------

SHAPE = (1, 2, 2)


def _dispatcher(policy, clock=None, **kwargs) -> Dispatcher:
    dispatcher = Dispatcher(policy, input_shape=SHAPE, fail=None, **kwargs)
    if clock is not None:
        dispatcher.set_clock(clock)
    return dispatcher


def _ids(batch) -> list[int]:
    return [p.ticket.request_id for p in batch.items]



class TestBatching:
    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            MicroBatchPolicy(max_batch_size=0)
        with pytest.raises(ConfigurationError):
            MicroBatchPolicy(max_wait_s=-1.0)

    def test_batcher_chunks_fifo(self):
        batcher = MicroBatcher(MicroBatchPolicy(max_batch_size=3))
        for i in range(8):
            batcher.add(i)
        assert len(batcher) == 8
        assert batcher.next_batch() == [0, 1, 2]
        assert batcher.drain() == [[3, 4, 5], [6, 7]]
        assert batcher.next_batch() == []

    def test_answer_stamps(self):
        # The engine, the failure path and the fabric's re-stamp on the
        # parent's clock all take an answer's stamps from here.
        pending = _Pending(
            image=None, ticket=Ticket(0), enqueued_at=1.0, deadline_s=0.5
        )
        assert pending.stamps(1.5, 1.25) == {
            "latency_s": 0.5, "queue_wait_s": 0.25, "deadline_missed": False,
        }
        assert pending.stamps(1.75, 1.25)["deadline_missed"]
        assert pending.stamps(1.75) == {"latency_s": 0.75}
        no_deadline = _Pending(image=None, ticket=Ticket(1), enqueued_at=0.0)
        assert not no_deadline.stamps(99.0, 98.0)["deadline_missed"]

    def test_collect_from_queue_fills_or_times_out(self):
        dispatcher = _dispatcher(MicroBatchPolicy(max_batch_size=4, max_wait_s=0.01))
        for _ in range(6):
            dispatcher.submit(np.zeros(SHAPE))
        batch = collect_from_queue(dispatcher)
        assert _ids(batch) == [0, 1, 2, 3]
        assert batch.queue_depth == 6
        assert dispatcher.queue_depth() == 6  # 2 waiting + 4 in flight
        dispatcher.done(batch)
        start = perf_counter()
        batch = collect_from_queue(dispatcher)  # partial: waits its window
        assert _ids(batch) == [4, 5]
        assert perf_counter() - start < 1.0
        dispatcher.done(batch)
        assert dispatcher.queue_depth() == 0
        assert collect_from_queue(dispatcher, poll_s=0.01) is None

    def test_collect_from_queue_waits_for_an_idle_executor(self):
        dispatcher = _dispatcher(MicroBatchPolicy(max_batch_size=1))
        dispatcher.submit(np.zeros(SHAPE))

        def busy():  # no executor is idle
            return None

        assert collect_from_queue(dispatcher, idle_since=busy, poll_s=0.01) is None
        dispatcher.draining = True  # draining skips the window, not the executor
        assert collect_from_queue(dispatcher, idle_since=busy, poll_s=0.01) is None
        assert len(dispatcher) == 1
        assert _ids(collect_from_queue(dispatcher, idle_since=lambda: 0.0)) == [0]

    def test_collect_from_queue_drains_without_window(self):
        dispatcher = _dispatcher(MicroBatchPolicy(max_batch_size=4, max_wait_s=60.0))
        dispatcher.submit(np.zeros(SHAPE))
        dispatcher.draining = True
        start = perf_counter()
        assert _ids(collect_from_queue(dispatcher)) == [0]
        assert perf_counter() - start < 1.0
        drained = collect_from_queue(dispatcher)
        assert drained is not None and not drained


class TestDispatcherWindow:
    """The one window rule, on a virtual clock."""

    def test_window_opens_at_later_of_arrival_and_idle(self):
        clock = VirtualClock(1.0)
        dispatcher = _dispatcher(
            MicroBatchPolicy(max_batch_size=4, max_wait_s=0.5), clock=clock
        )
        assert dispatcher.leave_at(idle_since=0.0) is None
        dispatcher.submit(np.zeros(SHAPE))
        assert dispatcher.leave_at(idle_since=0.0) == 1.5
        assert dispatcher.leave_at(idle_since=2.0) == 2.5

    def test_full_batch_leaves_once_executor_is_idle(self):
        clock = VirtualClock(1.0)
        dispatcher = _dispatcher(
            MicroBatchPolicy(max_batch_size=2, max_wait_s=0.5), clock=clock
        )
        dispatcher.submit(np.zeros(SHAPE))
        clock.t = 1.2
        dispatcher.submit(np.zeros(SHAPE))
        assert dispatcher.leave_at(idle_since=0.0) == 1.2
        assert dispatcher.leave_at(idle_since=3.0) == 3.0

    def test_ties_board_unless_the_batch_filled_in_its_window(self):
        clock = VirtualClock(1.0)
        dispatcher = _dispatcher(
            MicroBatchPolicy(max_batch_size=2, max_wait_s=0.5), clock=clock
        )
        dispatcher.submit(np.zeros(SHAPE))
        dispatcher.submit(np.zeros(SHAPE))
        # Filled at the instant its window opened: a tied arrival boards.
        assert dispatcher.leaves_before(1.0, idle_since=0.0) is None
        assert dispatcher.leaves_before(1.1, idle_since=0.0) == 1.0
        dispatcher.done(dispatcher.pop())
        dispatcher.submit(np.zeros(SHAPE))
        clock.t = 1.25
        dispatcher.submit(np.zeros(SHAPE))
        # Filled at 1.25 inside a window opened at 1.0: it leaves first.
        assert dispatcher.leaves_before(1.25, idle_since=0.0) == 1.25
        # A window that closes at t still takes an arrival at t.
        dispatcher.done(dispatcher.pop())
        dispatcher.submit(np.zeros(SHAPE))
        assert dispatcher.leaves_before(1.75, idle_since=0.0) is None
        assert dispatcher.leaves_before(2.0, idle_since=0.0) == 1.75

    def test_priority_boards_first_and_depth_counts_in_flight(self):
        dispatcher = _dispatcher(MicroBatchPolicy(max_batch_size=2))
        for priority in (0, 0, 0, 7):
            dispatcher.submit(np.zeros(SHAPE), priority=priority)
        first = dispatcher.pop()
        assert _ids(first) == [3, 0]
        assert first.queue_depth == 4
        second = dispatcher.pop()
        assert _ids(second) == [1, 2]
        assert second.queue_depth == 4  # 2 waiting + 2 still in flight

    def test_shed_decision_uses_depth_and_service_ewma(self):
        dispatcher = _dispatcher(
            MicroBatchPolicy(max_batch_size=2),
            shed=ShedPolicy(max_predicted_wait_s=0.05),
        )
        for _ in range(4):
            dispatcher.submit(np.zeros(SHAPE))
        batch = dispatcher.pop()
        assert not batch.shed  # no service estimate yet
        dispatcher.done(batch, service_s=0.1)  # 0.05 s per request
        assert dispatcher.pop().shed  # 2 waiting x 0.05 s > 0.05 s


# -- metrics -------------------------------------------------------------------


def _answers(latencies_s, exit_stages, ops, energies_pj):
    """One served batch's answers with the given per-request measurements."""
    return [
        InferenceResponse(
            request_id=i,
            label=0,
            exit_stage=int(stage),
            exit_stage_name="",
            confidence=1.0,
            delta=0.5,
            ops=float(cost),
            energy_pj=float(energy),
            model_spec="m",
            batch_size=len(latencies_s),
            latency_s=float(latency),
        )
        for i, (latency, stage, cost, energy) in enumerate(
            zip(latencies_s, exit_stages, ops, energies_pj)
        )
    ]


class TestServingMetrics:
    def test_empty_snapshot(self):
        metrics = ServingMetrics(("O1", "FC"))
        snap = metrics.snapshot()
        assert snap.requests == 0
        assert snap.throughput_rps == 0.0
        assert snap.latency_p95_s == 0.0

    def test_record_and_reset(self):
        metrics = ServingMetrics(("O1", "FC"))
        metrics.record_batch(
            _answers(
                latencies_s=np.array([0.001, 0.002, 0.003]),
                exit_stages=np.array([0, 0, 1]),
                ops=np.array([10.0, 10.0, 30.0]),
                energies_pj=np.array([1.0, 1.0, 3.0]),
            ),
            0.0,
        )
        snap = metrics.snapshot()
        assert snap.requests == 3
        assert snap.exit_stage_counts.tolist() == [2, 1]
        assert snap.mean_ops == pytest.approx(50.0 / 3)
        assert snap.total_energy_pj == pytest.approx(5.0)
        assert snap.latency_p50_s == pytest.approx(0.002)
        metrics.reset()
        assert metrics.snapshot().requests == 0

    def test_rejects_empty_stage_names(self):
        with pytest.raises(ConfigurationError):
            ServingMetrics(())

    def test_small_window_p99_equals_max(self):
        # With method="higher" the quantile is always an observed sample;
        # for n < 100 both tail quantiles collapse to the window max, so a
        # tiny bench run reports a deterministic (not interpolated) tail.
        metrics = ServingMetrics(("O1", "FC"))
        latencies = np.linspace(0.001, 0.05, 37)
        metrics.record_batch(
            _answers(
                latencies_s=latencies,
                exit_stages=np.zeros(37, dtype=np.int64),
                ops=np.full(37, 10.0),
                energies_pj=np.full(37, 1.0),
            ),
            0.0,
        )
        snap = metrics.snapshot()
        assert snap.latency_p99_s == snap.latency_p999_s == latencies.max()
        assert snap.latency_p95_s <= snap.latency_p99_s

    def test_large_window_p99_is_observed_sample(self):
        metrics = ServingMetrics(("O1", "FC"))
        latencies = np.arange(1, 1001, dtype=np.float64) / 1e3
        metrics.record_batch(
            _answers(
                latencies_s=latencies,
                exit_stages=np.zeros(1000, dtype=np.int64),
                ops=np.full(1000, 10.0),
                energies_pj=np.full(1000, 1.0),
            ),
            0.0,
        )
        snap = metrics.snapshot()
        assert snap.latency_p99_s in latencies
        assert snap.latency_p99_s < snap.latency_p999_s <= latencies.max()

    def test_empty_window_tail_quantiles_zero(self):
        snap = ServingMetrics(("O1", "FC")).snapshot()
        assert snap.latency_p99_s == 0.0
        assert snap.latency_p999_s == 0.0
        assert snap.max_queue_depth == 0

    def test_max_queue_depth_high_water_mark(self):
        metrics = ServingMetrics(("O1", "FC"))
        for depth in (3, 9, 4, None):
            metrics.record_batch(
                _answers(
                    latencies_s=np.array([0.001]),
                    exit_stages=np.array([0]),
                    ops=np.array([10.0]),
                    energies_pj=np.array([1.0]),
                ),
                0.0,
                queue_depth=depth,
            )
        snap = metrics.snapshot()
        assert snap.max_queue_depth == 9
        assert "max queue depth" in snap.render()
        metrics.reset()
        assert metrics.snapshot().max_queue_depth == 0


# -- degenerate inputs ---------------------------------------------------------


class TestDegenerateInputs:
    """Empty batches, single samples and all-exit-at-stage-0 workloads must
    produce well-formed results, not incidental numpy behavior."""

    def test_classify_many_empty_array(self, trained_3c):
        engine = InferenceEngine.from_config(
            ServingConfig(model=trained_3c.cdln, delta=0.6)
        )
        assert engine.classify_many(np.empty((0, 1, 28, 28))) == []
        assert engine.metrics.snapshot().requests == 0

    def test_flush_with_nothing_pending(self, trained_3c):
        engine = InferenceEngine.from_config(
            ServingConfig(model=trained_3c.cdln, delta=0.6)
        )
        assert engine.flush() == 0

    def test_process_batch_empty_is_noop(self, trained_3c):
        controller = DeltaController(target_mean_ops=1.0, delta=0.6)
        engine = InferenceEngine.from_config(
            ServingConfig(model=trained_3c.cdln, controller=controller)
        )
        engine._process_batch([])  # no np.stack crash, no NaN observation
        assert engine.metrics.snapshot().batches == 0

    def test_single_sample_round_trip(self, trained_3c, tiny_test_set):
        engine = InferenceEngine.from_config(
            ServingConfig(model=trained_3c.cdln, delta=0.6)
        )
        response = engine.classify(tiny_test_set.images[0])
        offline = trained_3c.cdln.predict(tiny_test_set.images[:1], delta=0.6)
        assert response.batch_size == 1
        assert response.label == int(offline.labels[0])
        assert response.exit_stage == int(offline.exit_stages[0])

    def test_all_exit_at_stage_zero_under_tight_cap(self, trained_3c, tiny_test_set):
        totals = trained_3c.cdln.path_cost_table().exit_totals()
        budget = float(totals[0]) * 1.01  # only the first exit is affordable
        controller = DeltaController(hard_ops_budget=budget, delta=0.6)
        engine = InferenceEngine.from_config(
            ServingConfig(model=trained_3c.cdln, controller=controller)
        )
        responses = engine.classify_many(tiny_test_set.images[:32])
        assert all(r.exit_stage == 0 for r in responses)
        assert all(r.ops <= budget for r in responses)
        snap = engine.metrics.snapshot()
        assert snap.exit_stage_counts[0] == 32
        assert snap.exit_stage_counts[1:].sum() == 0

    def test_empty_predict_is_well_formed(self, trained_3c):
        result = trained_3c.cdln.predict(np.empty((0, 1, 28, 28)), delta=0.6)
        assert result.labels.shape == (0,)
        assert result.exit_stages.shape == (0,)
        assert result.confidences.shape == (0,)

    def test_score_cache_empty_build_and_replay(self, trained_3c):
        from repro.cdl.score_cache import StageScoreCache

        cache = StageScoreCache.build(trained_3c.cdln, np.empty((0, 1, 28, 28)))
        assert cache.num_inputs == 0
        assert cache.cached_stage_names == tuple(
            s.name for s in trained_3c.cdln.linear_stages
        )
        result = cache.replay(0.6)
        assert result.labels.shape == (0,)
        assert result.exit_stages.shape == (0,)
        assert cache.exit_stages(0.6).shape == (0,)
        # Depth caps and stage subsets stay valid on the empty cache.
        assert cache.exit_stages(0.6, max_stage=0).shape == (0,)

    def test_score_cache_single_sample_matches_predict(self, trained_3c, tiny_test_set):
        from repro.cdl.score_cache import StageScoreCache

        image = tiny_test_set.images[:1]
        cache = StageScoreCache.build(trained_3c.cdln, image)
        replayed = cache.replay(0.6)
        offline = trained_3c.cdln.predict(image, delta=0.6)
        np.testing.assert_array_equal(replayed.labels, offline.labels)
        np.testing.assert_array_equal(replayed.exit_stages, offline.exit_stages)
        np.testing.assert_array_equal(replayed.confidences, offline.confidences)
