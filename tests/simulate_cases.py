"""Seeded ``LoadRunner.simulate()`` runs whose outputs are frozen as JSON.

Each case builds an engine, a schedule and (for the chaos pair) a fault
plan, replays it in virtual time and records:

* every :class:`~repro.serving.slo.RequestOutcome` field except
  ``request_id``, keyed by arrival index;
* the full :class:`~repro.serving.slo.SLOReport`.

``tests/test_simulate_fixtures.py`` compares fresh runs against the files
under ``tests/fixtures/simulate/<dtype>/``.  Regenerate them with::

    PYTHONPATH=src python tests/simulate_cases.py
    REPRO_COMPUTE_DTYPE=float32 PYTHONPATH=src python tests/simulate_cases.py
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.bench.suites.chaos import _chaos_plan
from repro.nn.compute import active_policy
from repro.obs import Observer
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


def _run(engine, schedule, images, *, fault_plan=None):
    runner = LoadRunner(engine, schedule, images, fault_plan=fault_plan)
    report = runner.simulate(ops_per_second=CAPACITY, slo_p99_s=SLO_P99_S)
    return schedule.materialize(), runner.last_outcomes, report


def _chaos(trained, images, *, resilient: bool):
    # The chaos_resilience bench's engine and plan, on a shorter schedule.
    policy = MicroBatchPolicy(max_batch_size=8, max_wait_s=0.05)
    schedule = ArrivalSchedule.poisson(
        rate_rps=150.0, duration_s=4.0, seed=3, deadline_s=SLO_P99_S
    )
    if not resilient:
        engine = _engine(trained, policy=policy, faults=_chaos_plan())
        return _run(engine, schedule, images)
    with tempfile.TemporaryDirectory() as tmp:
        with Observer.to_directory(Path(tmp)) as observer:
            engine = _engine(
                trained,
                policy=policy,
                faults=_chaos_plan(),
                resilience=ResiliencePolicy(
                    max_retries=1, degraded_after=2, degraded_window=8
                ),
                observer=observer,
            )
            return _run(engine, schedule, images)


def run_case(name: str, trained, images):
    """``(arrivals, outcomes, report)`` of one named case."""
    if name == "poisson_default":
        schedule = ArrivalSchedule.poisson(
            rate_rps=200.0, duration_s=1.0, seed=11, deadline_s=0.02
        )
        return _run(_engine(trained), schedule, images)
    if name == "bursty_shed_depth":
        engine = _engine(
            trained,
            policy=MicroBatchPolicy(max_batch_size=8, max_wait_s=0.005),
            shed=ShedPolicy(max_queue_depth=12),
        )
        return _run(engine, _bursty(), images)
    if name == "bursty_shed_wait":
        engine = _engine(
            trained,
            policy=MicroBatchPolicy(max_batch_size=8, max_wait_s=0.005),
            shed=ShedPolicy(max_predicted_wait_s=0.02),
        )
        return _run(engine, _bursty(), images)
    if name == "priority_deadlines":
        schedule = _bursty(priority_mix={0: 0.6, 1: 0.25, 9: 0.15})
        engine = _engine(
            trained, policy=MicroBatchPolicy(max_batch_size=6, max_wait_s=0.004)
        )
        return _run(engine, schedule, images)
    if name == "replay_ties":
        engine = _engine(
            trained, policy=MicroBatchPolicy(max_batch_size=8, max_wait_s=0.002)
        )
        return _run(engine, _ties(), images)
    if name == "chaos_resilient":
        return _chaos(trained, images, resilient=True)
    if name == "chaos_unprotected":
        return _chaos(trained, images, resilient=False)
    raise KeyError(name)


CASES = (
    "poisson_default",
    "bursty_shed_depth",
    "bursty_shed_wait",
    "priority_deadlines",
    "replay_ties",
    "chaos_resilient",
    "chaos_unprotected",
)


#: Outcome fields in the order a fixture row stores them.
FIELDS = (
    "arrival_s", "queue_wait_s", "latency_s", "exit_stage", "ops",
    "energy_pj", "shed", "deadline_s", "deadline_met", "scenario",
    "priority", "failed", "error", "degraded",
)


def outcomes_by_arrival(arrivals, outcomes) -> dict[str, list]:
    """Every outcome as a row of :data:`FIELDS`, keyed by arrival index.

    Request ids follow boarding order within one ``(time, priority)``
    group of arrivals, so the ``k``-th id of a group answers the group's
    ``k``-th arrival.  ``request_id`` itself is dropped.
    """
    groups: dict[tuple[float, int], list[int]] = {}
    for index, arrival in enumerate(arrivals):
        groups.setdefault((arrival.t, arrival.priority), []).append(index)
    keyed = {}
    for outcome in sorted(outcomes, key=lambda o: o.request_id):
        index = groups[(outcome.arrival_s, outcome.priority)].pop(0)
        record = asdict(outcome)
        keyed[str(index)] = [record[field] for field in FIELDS]
    return dict(sorted(keyed.items(), key=lambda item: int(item[0])))


def snapshot(arrivals, outcomes, report) -> dict:
    """The JSON-ready record of one run (what a fixture file holds)."""
    return json.loads(
        json.dumps(
            {
                "fields": list(FIELDS),
                "outcomes": outcomes_by_arrival(arrivals, outcomes),
                "report": json.loads(report.to_json()),
            }
        )
    )


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

    trained = get_trained("mnist_3c", Scale.tiny(), seed=7)
    images = get_datasets(Scale.tiny(), seed=7)[1].images
    out = fixture_dir()
    out.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        frozen = snapshot(*run_case(name, trained, images))
        path = out / f"{name}.json"
        path.write_text(dumps(frozen))
        print(f"wrote {path} ({len(frozen['outcomes'])} outcomes)")


if __name__ == "__main__":
    main()
