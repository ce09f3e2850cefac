"""``LoadRunner.simulate()`` reproduces its frozen outputs exactly.

The fixtures under ``tests/fixtures/simulate/<dtype>/`` hold the
per-arrival outcomes and the full SLO report of seven seeded tiny runs
(see ``simulate_cases.py``): Poisson traffic under the default policy,
bursty traffic under both shed triggers, a priority mix with deadlines,
an all-at-once replay that exercises ties, and the chaos plan against a
resilient and an unprotected engine.

Every value must match exactly.  ``simulate_cases.differences`` is that
one comparison; the regeneration script applies it too.

The two traced cases also freeze the engine's telemetry (the span count
and digest, the Prometheus exposition and the metrics snapshot), which
must match exactly too.  Every case must give the same outcomes and
report with tracing on as with it off.
"""

from __future__ import annotations

import json

import pytest

import simulate_cases as cases


@pytest.mark.parametrize("name", cases.CASES)
def test_simulate_matches_frozen_fixture(name, trained_3c, tiny_test_set):
    path = cases.fixture_dir() / f"{name}.json"
    frozen = json.loads(path.read_text())
    fresh = cases.snapshot(
        cases.run_case(name, trained_3c, tiny_test_set.images)
    )
    assert cases.differences(fresh, frozen) == []


@pytest.mark.parametrize("name", cases.TRACED)
def test_traced_telemetry_matches_frozen_fixture(
    name, trained_3c, tiny_test_set
):
    path = cases.fixture_dir() / f"{name}.telemetry.json"
    frozen = json.loads(path.read_text())
    fresh = cases.run_case(name, trained_3c, tiny_test_set.images).telemetry
    assert cases.differences(fresh, frozen) == []


def test_comparator_reports_every_moved_value():
    """Nothing is forgiven: a mean that moves in its last bit is a
    difference, like any other value."""
    frozen = {
        "outcomes": {"0": [1]},
        "report": {"latency_mean_s": 0.11028956675308879, "answered": 3},
    }
    assert cases.differences(frozen, frozen) == []
    last_bit = {
        "outcomes": {"0": [1]},
        "report": {"latency_mean_s": 0.1102895667530888, "answered": 3},
    }
    assert cases.differences(last_bit, frozen) == ["report.latency_mean_s"]
    moved = {
        "outcomes": {"0": [2]},
        "report": {"latency_mean_s": 0.1103, "answered": 4},
    }
    assert cases.differences(moved, frozen) == [
        "outcomes", "report.answered", "report.latency_mean_s",
    ]


@pytest.mark.parametrize("name", cases.CASES)
def test_tracing_leaves_the_run_unchanged(name, trained_3c, tiny_test_set):
    """An observer records a run without changing it: the same outcomes and
    SLO report with tracing on and off."""
    plain, traced = (
        cases.snapshot(
            cases.run_case(name, trained_3c, tiny_test_set.images, traced=on)
        )
        for on in (False, True)
    )
    assert traced == plain


def test_rejected_payload_fails_at_arrival(trained_3c, tiny_test_set):
    """A payload rejected at intake fails when it arrives, as in ``run()``:
    no queue wait and no latency."""
    outcomes = cases.run_case(
        "chaos_resilient", trained_3c, tiny_test_set.images
    ).outcomes
    rejected = [r for _, r in outcomes if r.error == "invalid_input"]
    assert rejected
    assert all(r.queue_wait_s == r.latency_s == 0.0 for r in rejected)
