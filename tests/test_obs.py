"""Tests for the observability stack (``repro.obs``).

The three contracts this file pins down:

* **No-op identity** -- the default :data:`NULL_OBSERVER` is a single
  process-wide instance whose every method is a genuine no-op, so an
  uninstrumented engine carries zero telemetry state.
* **Exposition round-trip** -- ``render_prometheus()`` output parses back
  via :func:`parse_prometheus` into exactly the values the registry holds
  (counters, gauges, and cumulative histogram series).
* **Exact reconciliation** -- per-span OPS summed the way
  :class:`ServingMetrics` sums them reproduce ``MetricsSnapshot.mean_ops``
  bit for bit (``==``, never ``approx``).
"""

import json
import os
import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError, SerializationError
from repro.obs import (
    DEFAULT_BUCKETS,
    EVENTS_SCHEMA,
    METRICS_SCHEMA,
    NULL_OBSERVER,
    SPAN_REQUIRED_KEYS,
    TRACE_SCHEMA,
    EventLog,
    MetricsRegistry,
    Observer,
    TraceRecorder,
    iter_records,
    parse_prometheus,
    fold_spans,
    read_header,
    read_spans,
    span_of,
    validate_span,
)
from repro.obs import cli
from repro.serving.config import ServingConfig
from repro.serving.controller import DeltaController
from repro.serving.engine import InferenceEngine, RequestFailed
from repro.serving.batching import MicroBatchPolicy
from repro.serving.resilience import ResiliencePolicy


def _example_span(request_id=0, batch_id=0, ops=10.0, exit_stage=0):
    return {
        "kind": "span",
        "request_id": request_id,
        "batch_id": batch_id,
        "model_spec": "default:1",
        "queue_wait_s": 0.0001,
        "latency_s": 0.002,
        "exit_stage": exit_stage,
        "exit_stage_name": "O1" if exit_stage == 0 else "FC",
        "confidence": 0.9,
        "delta": 0.6,
        "max_stage": None,
        "batch_size": 4,
        "ops": ops,
        "energy_pj": ops * 0.1,
        "stages": [
            {"stage": 0, "name": "O1", "active": 4, "wall_s": 0.001, "ops": 10.0},
        ],
    }


# -- metrics registry ----------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "Requests.", labels=("exit_stage",))
        c.inc(exit_stage=0)
        c.inc(2.0, exit_stage=0)
        c.inc(exit_stage=1)
        assert c.value(exit_stage=0) == 3.0
        assert c.value(exit_stage=1) == 1.0
        assert c.value(exit_stage=5) == 0.0  # never-incremented series

    def test_counter_rejects_decrease(self):
        c = MetricsRegistry().counter("n_total")
        with pytest.raises(ConfigurationError):
            c.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("queue_depth")
        g.set(7.0)
        g.dec(3.0)
        g.inc()
        assert g.value() == 5.0

    def test_histogram_bucketing(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.05, 0.5, 5.0):
            h.observe(v)
        cumulative, total, count = h.snapshot()
        assert cumulative == [1, 3, 4, 5]  # includes the +Inf tail
        assert total == pytest.approx(5.605)
        assert count == 5

    def test_histogram_observe_many_matches_observe(self):
        reg = MetricsRegistry()
        one = reg.histogram("a", buckets=(0.01, 0.1))
        many = reg.histogram("b", buckets=(0.01, 0.1))
        values = [0.001, 0.02, 0.2, 0.05]
        for v in values:
            one.observe(v)
        many.observe_many(np.array(values))
        assert one.snapshot() == many.snapshot()

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().histogram("h", buckets=(0.1, 0.1))
        with pytest.raises(ConfigurationError):
            MetricsRegistry().histogram("h2", buckets=())

    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total") is reg.counter("x_total")
        assert len(reg) == 1
        assert "x_total" in reg

    def test_kind_mismatch_is_loud(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ConfigurationError):
            reg.gauge("x_total")

    def test_label_set_mismatch_is_loud(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labels=("a",))
        with pytest.raises(ConfigurationError):
            reg.counter("x_total", labels=("b",))

    def test_bucket_mismatch_is_loud(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(0.1, 1.0))
        with pytest.raises(ConfigurationError):
            reg.histogram("h", buckets=(0.5, 1.0))

    def test_wrong_labels_at_write_time(self):
        c = MetricsRegistry().counter("x_total", labels=("stage",))
        with pytest.raises(ConfigurationError):
            c.inc(wrong=1)
        with pytest.raises(ConfigurationError):
            c.inc()  # missing the declared label

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("1bad")
        with pytest.raises(ConfigurationError):
            reg.counter("ok_total", labels=("bad-label",))


class TestPrometheusExposition:
    def test_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "Requests.", labels=("stage",)).inc(
            3.0, stage="O1"
        )
        reg.gauge("drift_score", "Score.").set(0.25)
        h = reg.histogram("lat_seconds", "Latency.", buckets=(0.01, 0.1))
        h.observe(0.005)
        h.observe(0.05)
        h.observe(5.0)
        parsed = parse_prometheus(reg.render_prometheus())
        assert parsed[("req_total", (("stage", "O1"),))] == 3.0
        assert parsed[("drift_score", ())] == 0.25
        assert parsed[("lat_seconds_bucket", (("le", "0.01"),))] == 1.0
        assert parsed[("lat_seconds_bucket", (("le", "0.1"),))] == 2.0
        assert parsed[("lat_seconds_bucket", (("le", "+Inf"),))] == 3.0
        assert parsed[("lat_seconds_count", ())] == 3.0
        assert parsed[("lat_seconds_sum", ())] == pytest.approx(5.055)

    def test_label_value_escaping_round_trips(self):
        reg = MetricsRegistry()
        nasty = 'a"b\\c\nd'
        reg.counter("x_total", labels=("k",)).inc(k=nasty)
        parsed = parse_prometheus(reg.render_prometheus())
        assert parsed[("x_total", (("k", nasty),))] == 1.0

    def test_exposition_has_type_headers(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "help text").inc()
        text = reg.render_prometheus()
        assert "# HELP c_total help text" in text
        assert "# TYPE c_total counter" in text

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ConfigurationError):
            parse_prometheus("this is not exposition format")

    def test_json_exporter_schema(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.5)
        payload = json.loads(reg.render_json())
        assert payload["schema"] == METRICS_SCHEMA
        [family] = payload["metrics"]
        assert family["name"] == "g"
        assert family["kind"] == "gauge"
        assert family["samples"] == [{"labels": {}, "value": 1.5}]

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        MetricsRegistry().histogram("h")  # constructs without raising


# -- trace recorder ------------------------------------------------------------


class TestTraceRecorder:
    def test_header_first_then_spans(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path, meta={"run": "t"}) as rec:
            rec.record(_example_span())
        header = read_header(path)
        assert header["schema"] == TRACE_SCHEMA
        assert header["run"] == "t"
        spans = read_spans(path)
        assert len(spans) == 1
        assert validate_span(spans[0]) is spans[0]

    def test_thread_safety(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = TraceRecorder(path)
        threads = 8
        per_thread = 50

        def work(tid):
            for i in range(per_thread):
                rec.record(_example_span(request_id=tid * per_thread + i))

        pool = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        rec.close()
        assert rec.records_written == threads * per_thread
        spans = read_spans(path)  # every line parses -- no interleaving
        assert len(spans) == threads * per_thread
        assert {s["request_id"] for s in spans} == set(
            range(threads * per_thread)
        )

    def test_closed_recorder_raises(self, tmp_path):
        rec = TraceRecorder(tmp_path / "t.jsonl")
        rec.close()
        assert rec.closed
        with pytest.raises(SerializationError):
            rec.record(_example_span())

    def test_iter_records_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        with TraceRecorder(path) as rec:
            rec.record(_example_span())
        with path.open("a") as f:
            f.write("{not json\n")
        with pytest.raises(SerializationError, match=":3"):
            list(iter_records(path))

    def test_iter_records_rejects_missing_header(self, tmp_path):
        path = tmp_path / "nohdr.jsonl"
        path.write_text(json.dumps(_example_span()) + "\n")
        with pytest.raises(SerializationError, match="header"):
            list(iter_records(path))

    def test_iter_records_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "wrong.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "schema": "repro.trace/v999"}) + "\n"
        )
        with pytest.raises(SerializationError, match="v999"):
            list(iter_records(path))

    def test_read_header_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SerializationError, match="empty"):
            read_header(path)

    @pytest.mark.parametrize(
        "text",
        ["", "\n \n", "\n" + json.dumps(_example_span()) + "\n"],
        ids=["empty", "blank", "blank-then-span"],
    )
    def test_every_reader_requires_the_header(self, tmp_path, text):
        # A recorder writes its header on open, so a file without one,
        # even an empty one, is not a trace.
        path = tmp_path / "headless.jsonl"
        path.write_text(text)
        for read in (read_header, read_spans):
            with pytest.raises(SerializationError):
                read(path)

    def test_header_is_the_first_non_blank_record(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceRecorder(path) as rec:
            rec.record(_example_span())
        path.write_text("\n" + path.read_text())
        assert read_header(path)["kind"] == "header"
        assert [s["request_id"] for s in read_spans(path)] == [
            _example_span()["request_id"]
        ]

    def test_validate_span_missing_keys(self):
        span = _example_span()
        del span["ops"], span["batch_id"]
        with pytest.raises(ConfigurationError, match="batch_id"):
            validate_span(span)

    def test_fold_spans_batch_grouping(self):
        spans = [
            _example_span(request_id=i, batch_id=i // 2, ops=float(i + 1))
            for i in range(5)
        ]
        fold = fold_spans(spans)
        assert fold.requests == fold.spans == 5
        assert fold.total_ops == 15.0
        assert fold.mean_ops == 3.0


class TestFailureSpan:
    """``span_of`` a ``RequestFailed``: the one record a failed request
    writes."""

    @staticmethod
    def _failed(request_id=7, batch_id=3, cause="injected_fault") -> dict:
        failure = RequestFailed(
            request_id=request_id, error=cause, message="", latency_s=0.25
        )
        return span_of(failure, batch_id=batch_id, model_spec="default:1")

    def test_carries_every_required_key(self):
        span = self._failed()
        assert validate_span(span) is span
        assert SPAN_REQUIRED_KEYS <= set(span)

    def test_no_stage_ran(self):
        span = self._failed()
        assert span["exit_stage"] == -1 and span["exit_stage_name"] == ""
        assert span["stages"] == []
        assert span["ops"] == 0.0 and span["energy_pj"] == 0.0
        # No stage ran, so the whole latency was spent waiting.
        assert span["queue_wait_s"] == span["latency_s"] == 0.25
        assert span["batch_size"] == 1
        assert span["shed"] is False and span["degraded"] is False
        assert span["error"] == "injected_fault"

    def test_reconciles_by_cause_at_zero_cost(self):
        causes = ["injected_fault", "invalid_input", "injected_fault"]
        spans = [
            self._failed(request_id=i, batch_id=i, cause=cause)
            for i, cause in enumerate(causes)
        ]
        spans.append(_example_span(request_id=3, batch_id=3, ops=10.0))
        fold = fold_spans(spans)
        assert fold.failed_by_cause == (
            ("injected_fault", 2), ("invalid_input", 1),
        )
        assert fold.failed_requests == 3
        assert fold.degraded_requests == 0 and fold.spans == 4
        assert (fold.total_ops, fold.requests) == (10.0, 1)

    def test_round_trips_through_a_trace_file(self, tmp_path):
        span = self._failed()
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as rec:
            rec.record(span)
        assert read_spans(path) == [span]


# -- event log -----------------------------------------------------------------


class TestEventLog:
    def test_ring_capacity(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit("tick", i=i)
        assert len(log) == 3
        assert log.emitted == 5
        assert [e["i"] for e in log.tail()] == [2, 3, 4]
        assert [e["i"] for e in log.tail(2)] == [3, 4]
        assert log.kinds() == ("tick",)

    def test_event_shape(self):
        log = EventLog()
        event = log.emit("drift_detected", score=0.4)
        assert event["kind"] == "drift_detected"
        assert event["score"] == 0.4
        assert event["time_unix"] > 0

    def test_file_mirror_keeps_everything(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, capacity=2)
        for i in range(4):
            log.emit("tick", i=i)
        log.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        assert lines[0]["schema"] == EVENTS_SCHEMA
        assert [rec["i"] for rec in lines[1:]] == [0, 1, 2, 3]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            EventLog(capacity=0)


# -- observer ------------------------------------------------------------------


class TestNullObserver:
    def test_identity_singleton(self):
        assert Observer.disabled() is NULL_OBSERVER
        assert Observer.disabled() is Observer.disabled()

    def test_disabled_flag_and_sinks(self):
        assert NULL_OBSERVER.enabled is False
        assert NULL_OBSERVER.trace is None
        assert NULL_OBSERVER.metrics is None
        assert NULL_OBSERVER.events is None

    def test_all_methods_are_noops(self):
        NULL_OBSERVER.span({"kind": "span"})
        NULL_OBSERVER.event("anything", detail=1)
        NULL_OBSERVER.inc("x_total", 2.0)
        NULL_OBSERVER.set_gauge("g", 1.0)
        NULL_OBSERVER.observe_hist("h", [0.1, 0.2])
        NULL_OBSERVER.flush()
        NULL_OBSERVER.close()
        assert NULL_OBSERVER.render_prometheus() == ""
        payload = json.loads(NULL_OBSERVER.render_json())
        assert payload == {"schema": METRICS_SCHEMA, "metrics": []}

    def test_enabled_observer_is_enabled(self):
        obs = Observer()
        assert obs.enabled is True
        assert obs.trace is None  # metrics/events live, tracing off
        obs.event("warm")
        assert obs.events.kinds() == ("warm",)
        assert obs.metrics.counter(
            "events_total", labels=("kind",)
        ).value(kind="warm") == 1.0


class TestObserver:
    def test_to_directory_layout(self, tmp_path):
        with Observer.to_directory(tmp_path, meta={"run": "x"}) as obs:
            obs.span(_example_span())
            obs.event("model_warm", model="default")
        assert read_header(tmp_path / "trace.jsonl")["run"] == "x"
        assert len(read_spans(tmp_path / "trace.jsonl")) == 1
        events = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        assert events[0]["schema"] == EVENTS_SCHEMA
        assert events[1]["kind"] == "model_warm"

    def test_convenience_writers(self):
        obs = Observer()
        obs.inc("req_total", 3.0, stage="O1")
        obs.set_gauge("depth", 4.0)
        obs.observe_hist("lat", [0.01, 0.02])
        parsed = parse_prometheus(obs.render_prometheus())
        assert parsed[("req_total", (("stage", "O1"),))] == 3.0
        assert parsed[("depth", ())] == 4.0
        assert parsed[("lat_count", ())] == 2.0

    def test_write_exporters(self, tmp_path):
        obs = Observer()
        obs.set_gauge("g", 1.0)
        prom = obs.write_prometheus(tmp_path / "scrape.prom")
        assert "g 1.0" in prom.read_text()
        js = obs.write_metrics_json(tmp_path / "metrics.json")
        assert json.loads(js.read_text())["schema"] == METRICS_SCHEMA


# -- engine integration --------------------------------------------------------


class TestEngineIntegration:
    @pytest.fixture()
    def traced(self, tmp_path, trained_3c, tiny_test_set):
        with Observer.to_directory(tmp_path, meta={"test": "integration"}) as obs:
            engine = InferenceEngine.from_config(
                ServingConfig(
                    model=trained_3c.cdln,
                    delta=0.6,
                    policy=MicroBatchPolicy(max_batch_size=32),
                    observer=obs,
                )
            )
            images = tiny_test_set.images[:96]
            responses = engine.classify_many(images)
            obs.flush()
            yield engine, obs, responses, tmp_path

    def test_one_span_per_request(self, traced):
        engine, _obs, responses, tmp = traced
        spans = read_spans(tmp / "trace.jsonl")
        assert len(spans) == len(responses)
        for span in spans:
            validate_span(span)
        # Spans carry the same exit stages the responses reported.
        by_id = {s["request_id"]: s for s in spans}
        assert len(by_id) == len(spans)

    def test_reconciliation_is_bit_exact(self, traced):
        engine, _obs, _responses, tmp = traced
        fold = fold_spans(read_spans(tmp / "trace.jsonl"))
        snap = engine.metrics.snapshot()
        assert fold.spans == fold.requests == snap.requests
        assert fold.mean_ops == snap.mean_ops  # ==, not approx

    def test_lifecycle_events_recorded(self, traced):
        _engine, obs, _responses, _tmp = traced
        assert "model_registered" in obs.events.kinds()
        assert "model_warm" in obs.events.kinds()

    def test_requests_total_matches_exit_counts(self, traced):
        engine, obs, _responses, _tmp = traced
        snap = engine.metrics.snapshot()
        counter = obs.metrics.counter("requests_total", labels=("exit_stage",))
        for stage, name in enumerate(snap.stage_names):
            assert counter.value(exit_stage=name) == float(
                snap.exit_stage_counts[stage]
            )

    def test_queue_depth_gauge_set(self, traced):
        _engine, obs, _responses, _tmp = traced
        assert obs.metrics.gauge("queue_depth").value() >= 0.0

    def test_hard_cap_trip_event(self, tmp_path, trained_3c, tiny_test_set):
        table = trained_3c.cdln.path_cost_table()
        # A budget below the final stage's cost forces early exits.
        budget = float(table.exit_totals()[-1]) - 1.0
        with Observer.to_directory(tmp_path) as obs:
            engine = InferenceEngine.from_config(
                ServingConfig(
                    model=trained_3c.cdln,
                    controller=DeltaController(hard_ops_budget=budget, delta=0.99),
                    observer=obs,
                )
            )
            engine.classify_many(tiny_test_set.images[:64])
        trips = [e for e in obs.events.tail() if e["kind"] == "hard_cap_trip"]
        assert trips, "a sub-final hard budget must force at least one exit"
        assert all(e["forced"] > 0 for e in trips)

    def test_rejected_request_writes_a_failure_span(self, tmp_path, trained_3c):
        shape = trained_3c.cdln.baseline.input_shape
        with Observer.to_directory(tmp_path) as obs:
            engine = InferenceEngine.from_config(
                ServingConfig(
                    model=trained_3c.cdln,
                    delta=0.6,
                    resilience=ResiliencePolicy(),
                    observer=obs,
                )
            )
            ticket = engine.submit(np.full(shape, np.nan))
            assert ticket.result(timeout=1.0).error == "invalid_input"
        (span,) = read_spans(tmp_path / "trace.jsonl")
        assert span["exit_stage"] == -1 and span["error"] == "invalid_input"
        assert span == span_of(
            ticket.result(timeout=0),
            batch_id=span["batch_id"],
            model_spec=engine.entry.spec,
        )

    def test_default_engine_has_null_observer(self, trained_3c):
        engine = InferenceEngine.from_config(
            ServingConfig(model=trained_3c.cdln, delta=0.6)
        )
        assert engine.observer is NULL_OBSERVER
        assert engine.entry.observer is NULL_OBSERVER


# -- CLI -----------------------------------------------------------------------


class TestCli:
    @pytest.fixture()
    def trace_file(self, tmp_path, trained_3c, tiny_test_set):
        with Observer.to_directory(tmp_path) as obs:
            engine = InferenceEngine.from_config(
                ServingConfig(
                    model=trained_3c.cdln,
                    delta=0.6,
                    policy=MicroBatchPolicy(max_batch_size=32),
                    observer=obs,
                )
            )
            engine.classify_many(tiny_test_set.images[:64])
        return tmp_path / "trace.jsonl", engine

    def test_summary_tables(self, trace_file, capsys):
        path, _engine = trace_file
        assert cli.main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Exit flow" in out
        assert "Trace totals" in out
        assert "Per-stage latency breakdown" in out

    def test_summary_json_reconciles(self, trace_file, capsys):
        path, engine = trace_file
        assert cli.main(["summary", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        snap = engine.metrics.snapshot()
        assert summary["requests"] == snap.requests
        assert summary["totals"]["mean_ops"] == snap.mean_ops

    def test_summary_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        TraceRecorder(path).close()
        assert cli.main(["summary", str(path)]) == 0
        assert "no spans" in capsys.readouterr().out

    def test_tail_respects_n_and_kind(self, trace_file, capsys):
        path, _engine = trace_file
        assert cli.main(["tail", str(path), "-n", "5", "--kind", "span"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["kind"] == "span" for line in lines)

    def test_tail_reads_event_files_too(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("model_warm", model="default")
        log.emit("drift_detected", score=0.4)
        log.close()
        assert cli.main(
            ["tail", str(path), "--kind", "drift_detected"]
        ) == 0
        [line] = capsys.readouterr().out.strip().splitlines()
        assert json.loads(line)["score"] == 0.4

    def test_filter_by_exit_stage(self, trace_file, capsys):
        path, engine = trace_file
        stage_name = engine.metrics.snapshot().stage_names[0]
        assert cli.main(
            ["filter", str(path), "--exit-stage", stage_name, "--limit", "3"]
        ) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert 0 < len(lines) <= 3
        assert all(
            json.loads(line)["exit_stage_name"] == stage_name for line in lines
        )
        assert "matched" in captured.err

    def test_missing_file_is_exit_code_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert cli.main(["summary", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_trace_is_exit_code_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "span"}\n')
        assert cli.main(["summary", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestForkSafety:
    """After-fork lock reinitialization (``repro.obs.forksafe``).

    ``fork()`` clones a held ``threading.Lock`` in the locked state with
    no thread left to release it; without the hook, the child's first
    ``record()`` / ``inc()`` deadlocks.
    """

    def test_instances_register_on_construction(self, tmp_path):
        from repro.obs import forksafe

        recorder = TraceRecorder(tmp_path / "t.jsonl")
        registry = MetricsRegistry()
        assert recorder in forksafe._instances
        assert registry in forksafe._instances
        recorder.close()

    def test_reinit_replaces_held_locks(self, tmp_path):
        from repro.obs import forksafe

        recorder = TraceRecorder(tmp_path / "t.jsonl")
        registry = MetricsRegistry()
        counter = registry.counter("n_total")
        # Simulate forking while another thread holds both locks.
        recorder._lock.acquire()
        registry._lock.acquire()
        forksafe._reinit_all()
        assert recorder._lock.acquire(blocking=False)
        recorder._lock.release()
        assert registry._lock.acquire(blocking=False)
        registry._lock.release()
        # Families share the registry lock; the fresh one must be rebound
        # into existing families or they stay deadlocked on the stale clone.
        assert counter._lock is registry._lock
        recorder.record({"kind": "span"})  # usable after reinit
        counter.inc()
        recorder.close()

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="platform has no fork()"
    )
    def test_forked_child_does_not_deadlock(self, tmp_path):
        import signal

        registry = MetricsRegistry()
        counter = registry.counter("forked_total")
        registry._lock.acquire()  # the poisoned-at-fork condition
        try:
            pid = os.fork()
        except OSError:
            registry._lock.release()
            pytest.skip("fork not permitted in this environment")
        if pid == 0:  # child
            status = 1
            try:
                signal.alarm(10)  # deadlock => killed by SIGALRM, not hung
                counter.inc()  # would deadlock without the at-fork hook
                status = 0
            finally:
                os._exit(status)
        registry._lock.release()
        _, wait_status = os.waitpid(pid, 0)
        assert os.WIFEXITED(wait_status), "child was killed, not exited"
        assert os.WEXITSTATUS(wait_status) == 0
