"""Execute registered benchmarks and emit their JSON artifacts."""

from __future__ import annotations

import os
import traceback
from pathlib import Path
from typing import Callable

from repro.bench.artifact import BenchArtifact
from repro.bench.environment import environment_fingerprint
from repro.bench.registry import (
    TIERS,
    BenchmarkSpec,
    Registry,
    load_suites,
    REGISTRY,
)
from repro.bench.timing import measure
from repro.errors import ConfigurationError
from repro.experiments.common import holding_datasets
from repro.nn.compute import DTYPE_ENV_VAR, compute_policy

#: Environment variable consulted by every front end for the scale tier.
SCALE_ENV_VAR = "REPRO_BENCH_SCALE"

#: Compute dtype benchmarks run under when ``REPRO_COMPUTE_DTYPE`` is unset.
#: Serving/bench workloads default to float32 (the perf-oriented half of
#: the compute policy); the tier-1 test suite keeps the library's float64
#: default for bit-level parity with the seed.
BENCH_DTYPE_DEFAULT = "float32"


class BenchCheckFailures(AssertionError):
    """Raised by :func:`run_benchmarks` after every benchmark has run when
    one or more of them failed an assertion, usually a shape-check.

    ``failures`` holds ``(benchmark name, message)`` per failed check, in
    run order; ``artifacts`` the benchmarks that passed (and were written).
    """

    def __init__(
        self,
        failures: list[tuple[str, str]],
        artifacts: list[BenchArtifact],
    ) -> None:
        self.failures = failures
        self.artifacts = artifacts
        super().__init__(
            "; ".join(f"{name}: {message}" for name, message in failures)
        )


def tier_from_env(default: str = "small") -> str:
    """The scale tier named by ``REPRO_BENCH_SCALE`` (validated)."""
    tier = os.environ.get(SCALE_ENV_VAR, default)
    if tier not in TIERS:
        raise ConfigurationError(
            f"{SCALE_ENV_VAR}={tier!r} is not a scale tier; use one of {TIERS}"
        )
    return tier


def bench_compute_policy():
    """Compute-policy context every bench front end runs its bodies under.

    ``REPRO_COMPUTE_DTYPE`` overrides the float32 default, so the same
    artifacts can be regenerated in float64 for parity studies.
    """
    return compute_policy(dtype=os.environ.get(DTYPE_ENV_VAR, BENCH_DTYPE_DEFAULT))


def run_benchmark(
    spec: BenchmarkSpec,
    *,
    tier: str,
    seed: int = 0,
    rounds: int | None = None,
    warmup_rounds: int | None = None,
    check: bool = False,
) -> BenchArtifact:
    """Measure one benchmark and build (but not write) its artifact."""
    ctx = spec.context(tier, seed=seed)
    with bench_compute_policy():
        stats, result = measure(
            lambda: spec(ctx),
            rounds=rounds if rounds is not None else spec.rounds,
            warmup_rounds=(
                warmup_rounds if warmup_rounds is not None else spec.warmup_rounds
            ),
        )
        if check:
            spec.run_check(result)
        environment = environment_fingerprint()
    throughput = (
        result.units / stats.mean_s
        if result.units is not None and stats.mean_s > 0
        else None
    )
    return BenchArtifact(
        benchmark=spec.name,
        group=spec.group,
        tier=tier,
        seed=seed,
        timing=stats.to_dict(),
        metrics=dict(result.metrics),
        environment=environment,
        throughput_per_s=throughput,
        text=result.text,
    )


def _describe_failure(exc: AssertionError) -> str:
    """The assertion's message, or where a bare ``assert`` failed."""
    if str(exc):
        return str(exc)
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{Path(frame.filename).name}:{frame.lineno}: {frame.line}"


@holding_datasets()
def run_benchmarks(
    names: list[str] | None = None,
    *,
    tier: str = "small",
    seed: int = 0,
    out_dir: Path | str | None = None,
    rounds: int | None = None,
    warmup_rounds: int | None = None,
    check: bool = False,
    registry: Registry | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[BenchArtifact]:
    """Run ``names`` (all registered when None) at ``tier``; write artifacts.

    Benchmarks run in registry order (group, then name) so trained-model
    caching in :mod:`repro.experiments.common` is exercised the same way
    every run.  The digit sets stay held for the whole run, so each is
    synthesized once, by the first benchmark that asks for it, and never
    again in a later benchmark's timed rounds.  A benchmark that fails an
    assertion (with ``check``, its shape-check) writes no artifact and the
    rest still run; :class:`BenchCheckFailures` then reports every failure
    at the end.
    """
    if registry is None:
        load_suites()
        registry = REGISTRY
    specs = registry.select(names)
    if not specs:
        raise ConfigurationError("no benchmarks registered")
    artifacts: list[BenchArtifact] = []
    failures: list[tuple[str, str]] = []
    for spec in specs:
        if progress:
            progress(f"[{spec.group}] {spec.name} @ {tier} ...")
        try:
            artifact = run_benchmark(
                spec,
                tier=tier,
                seed=seed,
                rounds=rounds,
                warmup_rounds=warmup_rounds,
                check=check,
            )
        except AssertionError as exc:
            failures.append((spec.name, _describe_failure(exc)))
            if progress:
                progress(f"    CHECK FAILED: {failures[-1][1]}")
            continue
        if out_dir is not None:
            artifact.write(out_dir)
        artifacts.append(artifact)
        if progress:
            wall = artifact.timing["wall_s_mean"]
            progress(f"    done in {wall:.3f}s/round, {len(artifact.metrics)} metrics")
    if failures:
        raise BenchCheckFailures(failures, artifacts)
    return artifacts
