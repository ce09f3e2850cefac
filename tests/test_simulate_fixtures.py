"""``LoadRunner.simulate()`` reproduces its frozen outputs exactly.

The fixtures under ``tests/fixtures/simulate/<dtype>/`` hold the
per-arrival outcomes and the full SLO report of seven seeded tiny runs
(see ``simulate_cases.py``): Poisson traffic under the default policy,
bursty traffic under both shed triggers, a priority mix with deadlines,
an all-at-once replay that exercises ties, and the chaos plan against a
resilient and an unprotected engine.

Every value must match exactly, except the report's three means: they
sum outcomes in request-id order, and request ids follow arrival order,
not boarding order, so a priority mix may only move them by summation
order (relative 1e-12).
"""

from __future__ import annotations

import json

import pytest

import simulate_cases as cases

#: Report fields that are sums over outcomes in request-id order.
SUMMED = ("latency_mean_s", "mean_ops", "mean_energy_pj")


@pytest.mark.parametrize("name", cases.CASES)
def test_simulate_matches_frozen_fixture(name, trained_3c, tiny_test_set):
    path = cases.fixture_dir() / f"{name}.json"
    frozen = json.loads(path.read_text())
    fresh = cases.snapshot(
        *cases.run_case(name, trained_3c, tiny_test_set.images)
    )
    assert fresh["fields"] == frozen["fields"]
    assert fresh["outcomes"] == frozen["outcomes"]
    for field in SUMMED:
        assert fresh["report"].pop(field) == pytest.approx(
            frozen["report"].pop(field), rel=1e-12, abs=0.0
        )
    assert fresh["report"] == frozen["report"]


def test_rejected_payload_fails_at_arrival(trained_3c, tiny_test_set):
    """A payload rejected at intake fails when it arrives, as in ``run()``:
    no queue wait and no latency."""
    _arrivals, outcomes, _report = cases.run_case(
        "chaos_resilient", trained_3c, tiny_test_set.images
    )
    rejected = [o for o in outcomes if o.error == "invalid_input"]
    assert rejected
    assert all(o.queue_wait_s == o.latency_s == 0.0 for o in rejected)
