"""Trace-driven arrival schedules for open-loop load generation.

An *open-loop* load test fires requests at pre-scheduled times, whatever
the server is doing -- unlike a closed loop (send, wait, send) it cannot
hide an overloaded server behind coordinated omission.  The schedule is
therefore a first-class, serializable object: :class:`ArrivalSchedule`
describes a rate shape, :meth:`ArrivalSchedule.materialize` turns it into
a concrete, seeded-deterministic tuple of :class:`Arrival` events, and
the JSONL round-trip (:meth:`save_jsonl` / :meth:`from_jsonl`) lets a
materialized trace be replayed bit-for-bit elsewhere.

Four shapes cover the operating questions in this repo:

``poisson``
    Homogeneous Poisson at ``rate_rps`` -- the steady-state baseline.
``diurnal``
    A raised-cosine day/night swing between ``rate_rps`` and
    ``peak_rate_rps`` with period ``period_s``.
``bursty``
    A flat ``rate_rps`` floor with a ``burst_factor``x overload window --
    the shed-policy stress shape.
``replay``
    An explicit trace (from JSONL or a prior ``materialize``).

Non-homogeneous shapes are sampled by Lewis-Shedler thinning: draw a
homogeneous Poisson process at the peak rate, keep each point with
probability ``rate_at(t) / peak``.  Every draw comes from one
``np.random.default_rng(seed)``, so the same schedule and seed always
yield the identical trace -- the property the determinism tests pin.

Arrivals can be tagged with scenario names drawn from a weighted
``scenario_mix`` (names from :mod:`repro.scenarios`, e.g. the members of
:func:`~repro.scenarios.default_suite`), a ``priority_mix``, and a
default per-request deadline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.jsonio import read_jsonl, record_fields

#: Schema tag on the header line of a saved arrival trace.
ARRIVALS_SCHEMA = "repro.arrivals/v1"

#: Recognized schedule shapes.
SCHEDULE_KINDS = ("poisson", "diurnal", "bursty", "replay")

#: Weighted draws: a mapping or ``(key, weight)`` pairs, or ``None``.
ScenarioMix = Mapping[object, float] | Sequence[tuple[object, float]] | None
PriorityMix = Mapping[int, float] | Sequence[tuple[int, float]] | None


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: when it fires and how it is tagged."""

    #: Seconds from the schedule's t=0.
    t: float
    #: Scenario name from :mod:`repro.scenarios` (``None`` = clean inputs).
    scenario: str | None = None
    priority: int = 0
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not self.t >= 0:
            raise ConfigurationError(f"arrival time must be >= 0, got {self.t}")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ConfigurationError(
                f"deadline_s must be > 0, got {self.deadline_s}"
            )


def _normalize_mix(
    mix: Mapping[object, float] | Sequence[tuple[object, float]] | None,
    what: str,
) -> tuple[tuple[object, float], ...] | None:
    """Validate a weighted mix and normalize its weights to sum to 1."""
    if mix is None:
        return None
    pairs = list(mix.items()) if isinstance(mix, Mapping) else list(mix)
    if not pairs:
        raise ConfigurationError(f"{what} must not be empty when given")
    total = 0.0
    for key, weight in pairs:
        if not weight > 0:
            raise ConfigurationError(
                f"{what} weight for {key!r} must be > 0, got {weight}"
            )
        total += float(weight)
    return tuple((key, float(weight) / total) for key, weight in pairs)


@dataclass(frozen=True)
class ArrivalSchedule:
    """A declarative arrival process; ``materialize()`` makes it concrete.

    Construct through the classmethods (:meth:`poisson`, :meth:`diurnal`,
    :meth:`bursty`, :meth:`replay`, :meth:`from_jsonl`) rather than the
    raw constructor -- they validate the per-shape parameter set.
    """

    kind: str
    duration_s: float
    seed: int = 0
    rate_rps: float = 0.0
    peak_rate_rps: float | None = None
    period_s: float | None = None
    burst_factor: float | None = None
    burst_start_s: float | None = None
    burst_duration_s: float | None = None
    #: ``((scenario-name, normalized weight), ...)``; ``None`` name = clean.
    scenario_mix: tuple[tuple[str | None, float], ...] | None = None
    priority_mix: tuple[tuple[int, float], ...] | None = None
    #: Default deadline attached to every arrival (replay keeps its own).
    deadline_s: float | None = None
    #: Explicit trace for ``kind="replay"``.
    arrivals: tuple[Arrival, ...] | None = None

    # -- constructors ----------------------------------------------------------
    @classmethod
    def poisson(
        cls,
        *,
        rate_rps: float,
        duration_s: float,
        seed: int = 0,
        scenario_mix: ScenarioMix = None,
        priority_mix: PriorityMix = None,
        deadline_s: float | None = None,
    ) -> "ArrivalSchedule":
        """Homogeneous Poisson arrivals at ``rate_rps`` for ``duration_s``."""
        cls._check_common(rate_rps=rate_rps, duration_s=duration_s)
        return cls(
            kind="poisson",
            duration_s=float(duration_s),
            seed=int(seed),
            rate_rps=float(rate_rps),
            scenario_mix=_coerce_scenario_mix(scenario_mix),
            priority_mix=_coerce_priority_mix(priority_mix),
            deadline_s=deadline_s,
        )

    @classmethod
    def diurnal(
        cls,
        *,
        rate_rps: float,
        peak_rate_rps: float,
        period_s: float,
        duration_s: float,
        seed: int = 0,
        scenario_mix: ScenarioMix = None,
        priority_mix: PriorityMix = None,
        deadline_s: float | None = None,
    ) -> "ArrivalSchedule":
        """Raised-cosine swing: trough ``rate_rps``, crest ``peak_rate_rps``.

        The instantaneous rate is
        ``rate + (peak - rate) * (1 - cos(2*pi*t / period)) / 2`` -- the
        trough sits at t=0 and the crest at half a period.
        """
        cls._check_common(rate_rps=rate_rps, duration_s=duration_s)
        if not peak_rate_rps >= rate_rps:
            raise ConfigurationError(
                f"peak_rate_rps ({peak_rate_rps}) must be >= rate_rps "
                f"({rate_rps})"
            )
        if not period_s > 0:
            raise ConfigurationError(f"period_s must be > 0, got {period_s}")
        return cls(
            kind="diurnal",
            duration_s=float(duration_s),
            seed=int(seed),
            rate_rps=float(rate_rps),
            peak_rate_rps=float(peak_rate_rps),
            period_s=float(period_s),
            scenario_mix=_coerce_scenario_mix(scenario_mix),
            priority_mix=_coerce_priority_mix(priority_mix),
            deadline_s=deadline_s,
        )

    @classmethod
    def bursty(
        cls,
        *,
        rate_rps: float,
        burst_factor: float,
        burst_start_s: float,
        burst_duration_s: float,
        duration_s: float,
        seed: int = 0,
        scenario_mix: ScenarioMix = None,
        priority_mix: PriorityMix = None,
        deadline_s: float | None = None,
    ) -> "ArrivalSchedule":
        """Flat ``rate_rps`` with a ``burst_factor``x overload window."""
        cls._check_common(rate_rps=rate_rps, duration_s=duration_s)
        if not burst_factor >= 1:
            raise ConfigurationError(
                f"burst_factor must be >= 1, got {burst_factor}"
            )
        if not burst_start_s >= 0:
            raise ConfigurationError(
                f"burst_start_s must be >= 0, got {burst_start_s}"
            )
        if not burst_duration_s > 0:
            raise ConfigurationError(
                f"burst_duration_s must be > 0, got {burst_duration_s}"
            )
        return cls(
            kind="bursty",
            duration_s=float(duration_s),
            seed=int(seed),
            rate_rps=float(rate_rps),
            burst_factor=float(burst_factor),
            burst_start_s=float(burst_start_s),
            burst_duration_s=float(burst_duration_s),
            scenario_mix=_coerce_scenario_mix(scenario_mix),
            priority_mix=_coerce_priority_mix(priority_mix),
            deadline_s=deadline_s,
        )

    @classmethod
    def replay(cls, arrivals: Iterable[Arrival]) -> "ArrivalSchedule":
        """An explicit trace, sorted by time; tags travel with each arrival."""
        trace = tuple(sorted(arrivals, key=lambda a: a.t))
        if not trace:
            raise ConfigurationError("replay trace must not be empty")
        return cls(
            kind="replay",
            duration_s=trace[-1].t,
            arrivals=trace,
        )

    def for_replica(self, replica_id: int) -> "ArrivalSchedule":
        """The same arrival process with a per-replica independent stream.

        N replicas fed the parent seed verbatim would materialize the
        *identical* arrival trace -- N copies of one workload, not N
        workloads.  The replica seed is spread from
        ``np.random.SeedSequence((seed, replica_id))`` so sibling traces
        are statistically independent while every (schedule, replica)
        pair stays reproducible.  Replay schedules are an explicit
        trace; reseeding one cannot make it independent, so it refuses.
        """
        if self.kind == "replay":
            raise ConfigurationError(
                "a replay schedule is a fixed trace; split the trace "
                "instead of deriving per-replica seeds"
            )
        if replica_id < 0:
            raise ConfigurationError(
                f"replica_id must be >= 0, got {replica_id}"
            )
        derived = np.random.SeedSequence((self.seed, int(replica_id)))
        return replace(self, seed=int(derived.generate_state(1)[0]))

    @staticmethod
    def _check_common(*, rate_rps: float, duration_s: float) -> None:
        if not rate_rps > 0:
            raise ConfigurationError(f"rate_rps must be > 0, got {rate_rps}")
        if not duration_s > 0:
            raise ConfigurationError(
                f"duration_s must be > 0, got {duration_s}"
            )

    # -- the process -----------------------------------------------------------
    def rate_at(self, t: float) -> float:
        """Instantaneous offered rate (requests/second) at time ``t``."""
        if self.kind == "poisson":
            return self.rate_rps
        if self.kind == "diurnal":
            swing = (self.peak_rate_rps - self.rate_rps) / 2.0
            phase = 1.0 - math.cos(2.0 * math.pi * t / self.period_s)
            return self.rate_rps + swing * phase
        if self.kind == "bursty":
            burst_end = self.burst_start_s + self.burst_duration_s
            in_burst = self.burst_start_s <= t < burst_end
            return self.rate_rps * (self.burst_factor if in_burst else 1.0)
        # replay: empirical rate over a 1 s window centered on t.
        assert self.arrivals is not None
        lo, hi = t - 0.5, t + 0.5
        return float(sum(1 for a in self.arrivals if lo <= a.t < hi))

    def peak_rate(self) -> float:
        """The rate ceiling used as the thinning envelope."""
        if self.kind == "poisson":
            return self.rate_rps
        if self.kind == "diurnal":
            return float(self.peak_rate_rps)
        if self.kind == "bursty":
            return self.rate_rps * self.burst_factor
        raise ConfigurationError("replay schedules have no analytic peak rate")

    def materialize(self) -> tuple[Arrival, ...]:
        """The concrete seeded trace: same schedule + seed => same tuple.

        Non-replay shapes sample a homogeneous Poisson process at
        :meth:`peak_rate` and thin it with acceptance probability
        ``rate_at(t) / peak``; scenario / priority tags are then drawn
        from the same generator, so tagging is part of the determinism
        contract too.
        """
        if self.kind == "replay":
            return self.arrivals
        rng = np.random.default_rng(self.seed)
        peak = self.peak_rate()
        times: list[float] = []
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / peak))
            if t >= self.duration_s:
                break
            if float(rng.random()) * peak <= self.rate_at(t):
                times.append(t)
        scenarios = self._draw_tags(rng, self.scenario_mix, len(times), None)
        priorities = self._draw_tags(rng, self.priority_mix, len(times), 0)
        return tuple(
            Arrival(
                t=times[i],
                scenario=scenarios[i],
                priority=priorities[i],
                deadline_s=self.deadline_s,
            )
            for i in range(len(times))
        )

    @staticmethod
    def _draw_tags(rng, mix, count, default):
        if mix is None:
            return [default] * count
        keys = [key for key, _ in mix]
        weights = np.array([weight for _, weight in mix], dtype=np.float64)
        picks = rng.choice(len(keys), size=count, p=weights / weights.sum())
        return [keys[int(i)] for i in picks]

    # -- JSONL round-trip ------------------------------------------------------
    def save_jsonl(self, path: str | Path) -> Path:
        """Materialize and write one arrival per line (header line first)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps({"schema": ARRIVALS_SCHEMA, "kind": self.kind})]
        for arrival in self.materialize():
            lines.append(
                json.dumps(
                    {
                        "t": arrival.t,
                        "scenario": arrival.scenario,
                        "priority": arrival.priority,
                        "deadline_s": arrival.deadline_s,
                    }
                )
            )
        path.write_text("\n".join(lines) + "\n")
        return path

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ArrivalSchedule":
        """Load a saved trace as a ``replay`` schedule."""
        _header, records = read_jsonl(path, ARRIVALS_SCHEMA)
        arrivals = []
        for lineno, record in records:
            with record_fields(f"{path}:{lineno}"):
                arrivals.append(
                    Arrival(
                        t=float(record["t"]),
                        scenario=record.get("scenario"),
                        priority=int(record.get("priority", 0)),
                        deadline_s=record.get("deadline_s"),
                    )
                )
        return cls.replay(arrivals)

    def describe(self) -> str:
        """One human line, e.g. for the loadgen CLI's ``plan`` command."""
        tags = ""
        if self.scenario_mix:
            mix = ", ".join(
                f"{name or 'clean'}:{weight:.0%}"
                for name, weight in self.scenario_mix
            )
            tags = f" scenarios[{mix}]"
        if self.kind == "poisson":
            shape = f"{self.rate_rps:g} req/s"
        elif self.kind == "diurnal":
            shape = (
                f"{self.rate_rps:g}..{self.peak_rate_rps:g} req/s "
                f"(period {self.period_s:g}s)"
            )
        elif self.kind == "bursty":
            shape = (
                f"{self.rate_rps:g} req/s with {self.burst_factor:g}x burst "
                f"@ [{self.burst_start_s:g}s, "
                f"{self.burst_start_s + self.burst_duration_s:g}s)"
            )
        else:
            shape = f"{len(self.arrivals)} replayed arrivals"
        return f"{self.kind}: {shape} over {self.duration_s:g}s{tags}"


def _coerce_scenario_mix(mix):
    """Accept Scenario objects or names in a mix; normalize to names."""
    if mix is None:
        return None
    pairs = list(mix.items()) if isinstance(mix, Mapping) else list(mix)
    named = [(getattr(key, "name", key), weight) for key, weight in pairs]
    for name, _ in named:
        if name is not None and not isinstance(name, str):
            raise ConfigurationError(
                f"scenario_mix keys must be scenario names or Scenario "
                f"objects, got {type(name).__name__}"
            )
    return _normalize_mix(named, "scenario_mix")


def _coerce_priority_mix(mix):
    if mix is None:
        return None
    normalized = _normalize_mix(mix, "priority_mix")
    return tuple((int(key), weight) for key, weight in normalized)
