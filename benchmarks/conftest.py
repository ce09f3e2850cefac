"""Benchmark configuration: pytest front end for the :mod:`repro.bench` registry.

Every ``bench_*.py`` script is a thin wrapper now -- the benchmark bodies,
their metrics and their qualitative shape-checks live in
``src/repro/bench/suites/`` where the ``python -m repro.bench`` CLI times
the very same callables.  The ``run_spec`` fixture resolves a registered
benchmark, times it with pytest-benchmark under the spec's own
rounds/warmup protocol, prints the rendered table (shown with ``-s``) and
enforces the spec's check.

The scale tier comes from the harness's single mechanism: the
``REPRO_BENCH_SCALE`` environment variable (``tiny``/``small``/``full``,
default ``small``), parsed by :func:`repro.bench.tier_from_env`.  Bodies
run under the bench compute policy (float32 unless ``REPRO_COMPUTE_DTYPE``
overrides it) exactly like the CLI runner, so pytest-benchmark timings and
``BENCH_*.json`` artifacts measure the same arithmetic.  The session holds
every digit set it fetches, as the CLI runner does for its run, so each is
synthesized once, outside later benchmarks' timed rounds.
"""

from __future__ import annotations

import pytest

from repro.bench import bench_compute_policy, get_benchmark, tier_from_env
from repro.experiments.common import holding_datasets

_SEED = 0


@pytest.fixture(scope="session", autouse=True)
def _hold_datasets():
    with holding_datasets():
        yield


@pytest.fixture(scope="session")
def bench_tier() -> str:
    return tier_from_env()


@pytest.fixture
def report():
    """Print a rendered table/figure under a banner (shown with -s; captured
    otherwise but still exercised)."""

    def _report(title: str, text: str) -> None:
        print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{text}")

    return _report


@pytest.fixture
def run_spec(benchmark, bench_tier, report):
    """Time a registered benchmark spec and run its shape-check."""

    def _run(name: str):
        spec = get_benchmark(name)
        ctx = spec.context(bench_tier, seed=_SEED)
        with bench_compute_policy():
            result = benchmark.pedantic(
                lambda: spec(ctx),
                rounds=spec.rounds,
                iterations=1,
                warmup_rounds=spec.warmup_rounds,
            )
            report(spec.title, result.text or f"(no rendered output for {name})")
            spec.run_check(result)
        return result

    return _run
