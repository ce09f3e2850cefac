"""Seeded ``LoadRunner.simulate()`` runs whose outputs are frozen as JSON.

Each case builds an engine, a schedule and (for the chaos pair) a fault
plan, replays it in virtual time and records:

* one row of :data:`FIELDS` per resolved request, read off its
  ``(arrival, answer)`` pair and keyed by arrival index;
* the full :class:`~repro.serving.slo.SLOReport`.

Any case runs with or without an observer (``run_case(..., traced=)``),
and tracing must not change its outcomes.  The traced cases
(:data:`TRACED`) also record the engine's telemetry in a
``<name>.telemetry.json`` beside the outcomes:

* the span count and a sha256 of the spans' canonical JSON (sorted keys,
  without ``confidence`` and ``stages[].wall_s``, which BLAS and the wall
  clock move from machine to machine);
* the observer's Prometheus exposition text, one line per entry;
* every :class:`~repro.serving.metrics.MetricsSnapshot` field except the
  wall-clock ``elapsed_s`` and ``throughput_rps``.

``tests/test_simulate_fixtures.py`` compares fresh runs against the files
under ``tests/fixtures/simulate/<dtype>/`` with :func:`differences`.
Regenerate them with::

    PYTHONPATH=src python tests/simulate_cases.py
    REPRO_COMPUTE_DTYPE=float32 PYTHONPATH=src python tests/simulate_cases.py

which rewrites only the files a fresh run no longer matches.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.bench.suites.chaos import _chaos_plan
from repro.nn.compute import active_policy
from repro.obs import Observer, read_spans
from repro.serving import (
    ArrivalSchedule,
    InferenceEngine,
    LoadRunner,
    MicroBatchPolicy,
    ResiliencePolicy,
    ServingConfig,
    ShedPolicy,
)
from repro.serving.schedule import Arrival

FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "simulate"
DELTA = 0.6
SLO_P99_S = 0.25
#: Modeled capacity, scalar OPS/s: ~150 req/s of the tiny cascade.
CAPACITY = 3e7
#: Span keys left out of the span digest: BLAS moves the confidence bits.
UNSTABLE_SPAN_KEYS = ("confidence",)
#: Snapshot fields left out of the frozen metrics: wall-clock timing.
UNFROZEN_SNAPSHOT_FIELDS = ("elapsed_s", "throughput_rps")


class Run(NamedTuple):
    """One case's outputs; ``telemetry`` is ``None`` for untraced cases."""

    arrivals: list
    outcomes: tuple
    report: object
    telemetry: dict | None = None


def fixture_dir() -> Path:
    return FIXTURE_ROOT / np.dtype(active_policy().dtype).name


def _engine(trained, **overrides) -> InferenceEngine:
    return InferenceEngine.from_config(
        ServingConfig(model=trained.cdln, delta=DELTA, **overrides)
    )


def _bursty(**extra) -> ArrivalSchedule:
    return ArrivalSchedule.bursty(
        rate_rps=150.0,
        burst_factor=4.0,
        burst_start_s=0.5,
        burst_duration_s=0.5,
        duration_s=1.5,
        seed=3,
        deadline_s=SLO_P99_S,
        **extra,
    )


def _ties() -> ArrivalSchedule:
    # Forty requests at t=0, two priority classes and mixed deadlines,
    # then a second tied group while the first is still being served.
    arrivals = [
        Arrival(
            t=0.0,
            priority=5 if i % 7 == 3 else 0,
            deadline_s=0.05 if i % 2 else None,
        )
        for i in range(40)
    ] + [Arrival(t=0.01, priority=i % 3) for i in range(12)]
    return ArrivalSchedule.replay(arrivals)


def _run(engine, schedule, images, *, fault_plan=None) -> Run:
    runner = LoadRunner(engine, schedule, images, fault_plan=fault_plan)
    report = runner.simulate(ops_per_second=CAPACITY, slo_p99_s=SLO_P99_S)
    return Run(schedule.materialize(), runner.last_outcomes, report)


def _traced(trained, schedule, images, **overrides) -> Run:
    """``_run`` with an observer on, plus the telemetry it recorded."""
    with tempfile.TemporaryDirectory() as tmp:
        with Observer.to_directory(Path(tmp)) as observer:
            engine = _engine(trained, observer=observer, **overrides)
            run = _run(engine, schedule, images)
            observer.flush()
            spans = read_spans(Path(tmp) / "trace.jsonl")
            return run._replace(
                telemetry=telemetry(spans, observer, engine.metrics.snapshot())
            )


def span_digest(spans: list[dict]) -> str:
    """sha256 of the spans' canonical JSON, machine-dependent keys removed."""
    stable = [
        {
            **{k: v for k, v in span.items() if k not in UNSTABLE_SPAN_KEYS},
            "stages": [
                {k: v for k, v in stage.items() if k != "wall_s"}
                for stage in span["stages"]
            ],
        }
        for span in spans
    ]
    canonical = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def telemetry(spans: list[dict], observer, snapshot) -> dict:
    """The JSON-ready record of one traced run's spans, exposition text
    and metrics snapshot (what a ``.telemetry.json`` file holds)."""
    metrics = {
        field.name: getattr(snapshot, field.name)
        for field in fields(snapshot)
        if field.name not in UNFROZEN_SNAPSHOT_FIELDS
    }
    metrics["exit_stage_counts"] = metrics["exit_stage_counts"].tolist()
    return json.loads(
        json.dumps(
            {
                "span_count": len(spans),
                "span_sha256": span_digest(spans),
                "metrics": metrics,
                "prometheus": observer.render_prometheus().splitlines(),
            }
        )
    )


def _chaos(*, resilient: bool) -> tuple[ArrivalSchedule, dict]:
    # The chaos_resilience bench's engine and plan, on a shorter schedule.
    schedule = ArrivalSchedule.poisson(
        rate_rps=150.0, duration_s=4.0, seed=3, deadline_s=SLO_P99_S
    )
    overrides = {
        "policy": MicroBatchPolicy(max_batch_size=8, max_wait_s=0.05),
        "faults": _chaos_plan(),
    }
    if resilient:
        overrides["resilience"] = ResiliencePolicy(
            max_retries=1, degraded_after=2, degraded_window=8
        )
    return schedule, overrides


def _case(name: str) -> tuple[ArrivalSchedule, dict]:
    """The schedule and engine overrides of one named case."""
    if name == "poisson_default":
        schedule = ArrivalSchedule.poisson(
            rate_rps=200.0, duration_s=1.0, seed=11, deadline_s=0.02
        )
        return schedule, {}
    if name == "bursty_shed_depth":
        return _bursty(), {
            "policy": MicroBatchPolicy(max_batch_size=8, max_wait_s=0.005),
            "shed": ShedPolicy(max_queue_depth=12),
        }
    if name == "bursty_shed_wait":
        return _bursty(), {
            "policy": MicroBatchPolicy(max_batch_size=8, max_wait_s=0.005),
            "shed": ShedPolicy(max_predicted_wait_s=0.02),
        }
    if name == "priority_deadlines":
        schedule = _bursty(priority_mix={0: 0.6, 1: 0.25, 9: 0.15})
        return schedule, {
            "policy": MicroBatchPolicy(max_batch_size=6, max_wait_s=0.004)
        }
    if name == "replay_ties":
        return _ties(), {
            "policy": MicroBatchPolicy(max_batch_size=8, max_wait_s=0.002)
        }
    if name == "chaos_resilient":
        return _chaos(resilient=True)
    if name == "chaos_unprotected":
        return _chaos(resilient=False)
    raise KeyError(name)


def run_case(name: str, trained, images, *, traced: bool | None = None) -> Run:
    """The :class:`Run` of one named case, traced as :data:`TRACED` says
    unless ``traced`` is given."""
    schedule, overrides = _case(name)
    if traced is None:
        traced = name in TRACED
    if traced:
        return _traced(trained, schedule, images, **overrides)
    return _run(_engine(trained, **overrides), schedule, images)


CASES = (
    "poisson_default",
    "bursty_shed_depth",
    "bursty_shed_wait",
    "priority_deadlines",
    "replay_ties",
    "chaos_resilient",
    "chaos_unprotected",
)

#: Cases run with an observer, whose telemetry is frozen too.
TRACED = ("bursty_shed_depth", "chaos_resilient")


#: Row fields in the order a fixture row stores them: the arrival's time,
#: deadline, scenario and priority, and the answer's stamps, cost and flags.
FIELDS = (
    "arrival_s", "queue_wait_s", "latency_s", "exit_stage", "ops",
    "energy_pj", "shed", "deadline_s", "deadline_met", "scenario",
    "priority", "failed", "error", "degraded",
)


def outcome_row(arrival, answer) -> list:
    """One resolved request's ``(arrival, answer)`` pair as a row of
    :data:`FIELDS`; a failed answer never meets its deadline."""
    return [
        arrival.t, answer.queue_wait_s, answer.latency_s, answer.exit_stage,
        answer.ops, answer.energy_pj, answer.shed, arrival.deadline_s,
        not answer.failed and not answer.deadline_missed, arrival.scenario,
        arrival.priority, answer.failed, answer.error, answer.degraded,
    ]


def outcomes_by_arrival(arrivals, outcomes) -> dict[str, list]:
    """Every ``(arrival, answer)`` pair as a row of :data:`FIELDS`, keyed
    by arrival index.

    Request ids follow boarding order within one ``(time, priority)``
    group of arrivals, so the ``k``-th id of a group answers the group's
    ``k``-th arrival.  ``request_id`` itself is dropped.
    """
    groups: dict[tuple[float, int], list[int]] = {}
    for index, arrival in enumerate(arrivals):
        groups.setdefault((arrival.t, arrival.priority), []).append(index)
    keyed = {}
    for arrival, answer in sorted(outcomes, key=lambda o: o[1].request_id):
        index = groups[(arrival.t, arrival.priority)].pop(0)
        keyed[str(index)] = outcome_row(arrival, answer)
    return dict(sorted(keyed.items(), key=lambda item: int(item[0])))


def snapshot(run: Run) -> dict:
    """The JSON-ready record of one run (what a fixture file holds)."""
    return json.loads(
        json.dumps(
            {
                "fields": list(FIELDS),
                "outcomes": outcomes_by_arrival(run.arrivals, run.outcomes),
                "report": json.loads(run.report.to_json()),
            }
        )
    )


def differences(fresh: dict, frozen: dict) -> list[str]:
    """The keys of a case's record, or of its telemetry, where a fresh run
    differs from the frozen one (``report.<field>`` for the report); empty
    when every value is equal."""
    keys = sorted(set(fresh) | set(frozen))
    differ = [
        key for key in keys
        if key != "report" and fresh.get(key) != frozen.get(key)
    ]
    if "report" in keys:
        new, old = fresh.get("report", {}), frozen.get("report", {})
        differ += [
            f"report.{field}"
            for field in sorted(set(new) | set(old))
            if new.get(field) != old.get(field)
        ]
    return differ


def _write_if_changed(path: Path, fresh: dict, text: str) -> None:
    """Rewrite ``path`` only when ``fresh`` fails the fixture test's
    comparison against it."""
    if path.exists() and not differences(fresh, json.loads(path.read_text())):
        print(f"kept {path}")
        return
    path.write_text(text)
    print(f"wrote {path}")


def dumps(frozen: dict) -> str:
    """One line per outcome and per depth sample: small, line-diffable."""
    report = dict(frozen["report"])
    timeline = report.pop("queue_depth_timeline")
    head = json.dumps(report, indent=1, sort_keys=True)[:-2]
    rows = ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(row)}"
        for key, row in frozen["outcomes"].items()
    )
    samples = ",\n".join(f"   {json.dumps(sample)}" for sample in timeline)
    return (
        f'{{\n "fields": {json.dumps(frozen["fields"])},\n'
        f' "outcomes": {{\n{rows}\n }},\n'
        f' "report": {head.replace(chr(10), chr(10) + " ")},\n'
        f'  "queue_depth_timeline": [\n{samples}\n  ]\n }}\n}}\n'
    )


def main() -> None:
    from repro.experiments.common import Scale, get_datasets, get_trained

    _train, test = get_datasets(Scale.tiny(), seed=7)
    trained = get_trained("mnist_3c", Scale.tiny(), seed=7)
    images = test.images
    out = fixture_dir()
    out.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        run = run_case(name, trained, images)
        fresh = snapshot(run)
        _write_if_changed(out / f"{name}.json", fresh, dumps(fresh))
        if run.telemetry is not None:
            _write_if_changed(
                out / f"{name}.telemetry.json",
                run.telemetry,
                json.dumps(run.telemetry, indent=1) + "\n",
            )


if __name__ == "__main__":
    main()
