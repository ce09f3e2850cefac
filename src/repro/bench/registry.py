"""Benchmark registry: the ``@benchmark`` decorator and its bookkeeping.

A benchmark is a named callable ``fn(ctx) -> BenchResult`` registered under
a group ("figures", "ablations", "serving", ...).  The registry is
what both front ends share: the pytest wrappers in ``benchmarks/`` time the
same callables that ``python -m repro.bench run`` turns into JSON artifacts,
so a perf number seen in CI is the perf number a developer reproduces
locally with pytest.

Specs carry everything the runner and the compare gate need per benchmark:
timing protocol (rounds/warmup), per-metric tolerance bands, and an
optional shape-check that asserts the paper's qualitative claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.errors import ConfigurationError
from repro.experiments.common import Scale

#: Scale-tier names, in increasing-cost order.  The single source of truth
#: for every front end (CLI ``--scale``, ``REPRO_BENCH_SCALE``, conftest).
TIERS = ("tiny", "small", "full")


@dataclass(frozen=True)
class Tolerance:
    """A per-metric acceptance band for the regression gate.

    A run value ``v`` passes against a baseline value ``b`` when
    ``|v - b| <= abs + rel * |b|``.
    """

    rel: float = 0.0
    abs: float = 0.0

    def __post_init__(self) -> None:
        if self.rel < 0 or self.abs < 0:
            raise ConfigurationError("tolerance bands must be non-negative")

    def accepts(self, value: float, baseline: float) -> bool:
        return abs(value - baseline) <= self.abs + self.rel * abs(baseline)

    def describe(self) -> str:
        parts = []
        if self.rel:
            parts.append(f"±{self.rel * 100:g}%")
        if self.abs:
            parts.append(f"±{self.abs:g} abs")
        return " + ".join(parts) if parts else "exact"


#: Band applied to any metric a spec does not configure explicitly.  Wide
#: enough to absorb BLAS/platform floating-point drift at tiny scale, tight
#: enough to catch a genuinely broken cascade.
DEFAULT_TOLERANCE = Tolerance(rel=0.25, abs=1e-9)


@dataclass(frozen=True)
class BenchContext:
    """Everything a benchmark body receives: the tier and its knobs."""

    tier: str
    scale: Scale
    seed: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class BenchResult:
    """What a benchmark body returns.

    ``metrics`` feeds the JSON artifact and the compare gate; ``units`` (how
    many items one call processed) lets the runner derive throughput;
    ``text`` is the rendered table/figure for humans; ``payload`` carries
    the raw result object for the shape-check.
    """

    metrics: Mapping[str, float]
    units: float | None = None
    text: str = ""
    payload: Any = None


@dataclass
class BenchmarkSpec:
    """One registered benchmark and its measurement protocol."""

    name: str
    fn: Callable[[BenchContext], BenchResult]
    group: str = "default"
    title: str = ""
    rounds: int = 3
    warmup_rounds: int = 1
    #: metric name -> band, or None to mark the metric informational
    #: (recorded in artifacts but never gated -- wall-clock-derived numbers).
    tolerances: Mapping[str, Tolerance | None] = field(default_factory=dict)
    default_tolerance: Tolerance = DEFAULT_TOLERANCE
    #: tier name -> extra keyword knobs surfaced as ``ctx.params``.
    tiers: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    check_fn: Callable[[BenchResult], None] | None = None

    def __call__(self, ctx: BenchContext) -> BenchResult:
        result = self.fn(ctx)
        if not isinstance(result, BenchResult):
            raise ConfigurationError(
                f"benchmark {self.name!r} returned {type(result).__name__}, "
                "expected BenchResult"
            )
        return result

    def check(self, fn: Callable[[BenchResult], None]) -> Callable:
        """Decorator attaching the benchmark's shape-check."""
        self.check_fn = fn
        return fn

    def run_check(self, result: BenchResult) -> None:
        if self.check_fn is not None:
            self.check_fn(result)

    def context(self, tier: str, seed: int = 0) -> BenchContext:
        """Build the :class:`BenchContext` this spec sees at ``tier``."""
        if tier not in TIERS:
            raise ConfigurationError(
                f"unknown scale tier {tier!r}; use one of {TIERS}"
            )
        return BenchContext(
            tier=tier,
            scale=getattr(Scale, tier)(),
            seed=seed,
            params=dict(self.tiers.get(tier, {})),
        )

    def tolerance_for(self, metric: str) -> Tolerance | None:
        """The band gating ``metric``, or None when it is informational."""
        if metric in self.tolerances:
            return self.tolerances[metric]
        return self.default_tolerance


class Registry:
    """Name -> spec mapping with duplicate detection."""

    def __init__(self) -> None:
        self._specs: dict[str, BenchmarkSpec] = {}

    def add(self, spec: BenchmarkSpec) -> BenchmarkSpec:
        if spec.name in self._specs:
            raise ConfigurationError(
                f"benchmark {spec.name!r} is already registered"
            )
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> BenchmarkSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown benchmark {name!r}; registered: {sorted(self._specs)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[BenchmarkSpec]:
        return iter(sorted(self._specs.values(), key=lambda s: (s.group, s.name)))

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._specs))

    def select(self, names: list[str] | None = None) -> list[BenchmarkSpec]:
        """Specs for ``names`` (all when None), preserving group order."""
        if not names:
            return list(self)
        return [self.get(name) for name in names]

    def clear(self) -> None:
        self._specs.clear()


#: The process-wide registry the suites populate on import.
REGISTRY = Registry()


def benchmark(
    name: str,
    *,
    group: str = "default",
    title: str = "",
    rounds: int = 3,
    warmup_rounds: int = 1,
    tolerances: Mapping[str, Tolerance | None] | None = None,
    default_tolerance: Tolerance = DEFAULT_TOLERANCE,
    tiers: Mapping[str, Mapping[str, Any]] | None = None,
    registry: Registry | None = None,
) -> Callable[[Callable[[BenchContext], BenchResult]], BenchmarkSpec]:
    """Register a benchmark body; returns the (callable) spec.

    The returned spec doubles as a decorator host: attach the qualitative
    assertion with ``@spec.check``.
    """

    def decorate(fn: Callable[[BenchContext], BenchResult]) -> BenchmarkSpec:
        spec = BenchmarkSpec(
            name=name,
            fn=fn,
            group=group,
            title=title or name,
            rounds=rounds,
            warmup_rounds=warmup_rounds,
            tolerances=dict(tolerances or {}),
            default_tolerance=default_tolerance,
            tiers=dict(tiers or {}),
        )
        return (registry if registry is not None else REGISTRY).add(spec)

    return decorate


def get_benchmark(name: str) -> BenchmarkSpec:
    """Look up a spec in the process-wide registry (suites auto-loaded)."""
    load_suites()
    return REGISTRY.get(name)


def iter_benchmarks() -> Iterator[BenchmarkSpec]:
    load_suites()
    return iter(REGISTRY)


def load_suites() -> Registry:
    """Import every built-in suite module (idempotent) and return the registry."""
    from repro.bench import suites  # noqa: F401  (import populates REGISTRY)

    return REGISTRY
