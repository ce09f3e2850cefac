"""Deterministic, seeded fault injection for the serving stack.

Chaos testing is only useful when a failure reproduces: a
:class:`FaultPlan` is a declarative, serializable bundle of
:class:`FaultSpec` records -- *which* fault, *how often*, *over which
window* -- and every fire/no-fire decision is a pure function of
``(plan seed, spec index, unit index)``.  The same plan against the same
schedule always injects the identical faults, which is what lets the
``chaos_resilience`` benchmark gate availability numbers with exact
baselines, and what turns "it crashed once in prod" into a replayable
trace (plans round-trip through JSONL exactly like
:class:`~repro.serving.schedule.ArrivalSchedule`).

Five fault kinds cover the serving failure modes this repo defends
against (see ``docs/resilience.md`` for the failure-modes table):

``raise_in_batch``
    The whole dispatch raises mid-execution -- a systemic fault (bad
    model state, resource exhaustion).  Decided per *batch*.  Skipped on
    shed/degraded dispatches: the stage-0 fallback path is the part of
    the engine the resilience layer assumes sound.
``request_error``
    One request's compute raises -- a poison input crashing the deep
    path.  Decided per *request id*; ``transient=True`` faults stop
    firing after ``fires`` hits, so a bounded retry saves the request.
``corrupt_input``
    The payload arrives with NaN pixels.  Decided per request; applied
    at the load-generator intake (:meth:`FaultInjector.corrupt_image`)
    so the engine's input validation is what has to catch it.
``latency_spike``
    The dispatch takes ``magnitude`` extra seconds (slow disk, GC
    pause).  Decided per batch; virtual-time runs charge it to the
    simulated clock, wall-clock runs actually sleep.
``worker_stall``
    Same accounting as ``latency_spike`` but named separately so plans
    read honestly -- a stall is the hang-detection stress, not jitter.

:class:`FaultInjector` is the small amount of *state* wrapped around a
plan (transient hit counts); engines call :meth:`FaultInjector.on_dispatch`
once per dispatched batch and :exc:`InjectedFault` does the rest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.utils.jsonio import read_jsonl, record_fields

#: Schema tag on the header line of a saved fault plan.
FAULTS_SCHEMA = "repro.faults/v1"

#: Recognized fault kinds.
FAULT_KINDS = (
    "raise_in_batch",
    "request_error",
    "corrupt_input",
    "latency_spike",
    "worker_stall",
)

#: Kinds decided per batch index (the rest are per request id).
_BATCH_KINDS = frozenset({"raise_in_batch", "latency_spike", "worker_stall"})
#: Kinds that add virtual/wall delay instead of raising.
_DELAY_KINDS = frozenset({"latency_spike", "worker_stall"})


class InjectedFault(ReproError, RuntimeError):
    """A fault plan fired: the compute path raises exactly here.

    Carries enough context (``kind``, ``request_id``, ``batch_index``)
    for the resilience layer to attribute the failure; outside a
    resilience policy it propagates like any real compute error would.
    """

    def __init__(
        self,
        kind: str,
        *,
        request_id: int | None = None,
        batch_index: int | None = None,
    ) -> None:
        self.kind = kind
        self.request_id = request_id
        self.batch_index = batch_index
        where = (
            f"request {request_id}"
            if request_id is not None
            else f"batch {batch_index}"
        )
        super().__init__(f"injected {kind} fault at {where}")


@dataclass(frozen=True)
class FaultSpec:
    """One fault process: a kind, a rate, and an eligibility window.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    rate:
        Fire probability per unit (batch or request, by kind) in
        ``[0, 1]``.  ``1.0`` makes the window a deterministic outage.
    magnitude_s:
        Extra seconds per fire -- only meaningful for the delay kinds
        (``latency_spike`` / ``worker_stall``).
    transient:
        ``request_error`` only: the fault stops firing for a request
        after ``fires`` hits, so a retry succeeds.  Persistent faults
        (the default) fire on every attempt -- the poison-input model.
    fires:
        How many attempts a transient fault poisons (>= 1).
    first / last:
        Inclusive unit-index window the spec is eligible in (``last``
        ``None`` = open-ended).  Batch kinds window on the dispatch
        counter, request kinds on the request id.
    """

    kind: str
    rate: float
    magnitude_s: float = 0.0
    transient: bool = False
    fires: int = 1
    first: int = 0
    last: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(
                f"fault rate must lie in [0, 1], got {self.rate}"
            )
        if self.kind in _DELAY_KINDS and not self.magnitude_s > 0:
            raise ConfigurationError(
                f"{self.kind} needs magnitude_s > 0, got {self.magnitude_s}"
            )
        if self.transient and self.kind != "request_error":
            raise ConfigurationError(
                "only request_error faults can be transient "
                f"(got transient {self.kind})"
            )
        if not self.fires >= 1:
            raise ConfigurationError(f"fires must be >= 1, got {self.fires}")
        if not self.first >= 0:
            raise ConfigurationError(f"first must be >= 0, got {self.first}")
        if self.last is not None and self.last < self.first:
            raise ConfigurationError(
                f"last ({self.last}) must be >= first ({self.first})"
            )

    def in_window(self, unit_index: int) -> bool:
        if unit_index < self.first:
            return False
        return self.last is None or unit_index <= self.last


@dataclass(frozen=True)
class FaultPlan:
    """A composable, seeded set of fault processes.

    ``decide(spec_index, unit_index)`` is a pure function -- one
    ``np.random.default_rng((seed, spec_index, unit_index))`` draw -- so
    a plan never needs to be "replayed in order": any engine, simulator,
    or test asking about the same unit gets the same answer.
    """

    specs: tuple[FaultSpec, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(
                    f"specs must be FaultSpec instances, got "
                    f"{type(spec).__name__}"
                )

    def decide(self, spec_index: int, unit_index: int) -> bool:
        """Does spec ``spec_index`` fire at ``unit_index``? (pure/seeded)"""
        spec = self.specs[spec_index]
        if not spec.in_window(unit_index):
            return False
        if spec.rate >= 1.0:
            return True
        if spec.rate <= 0.0:
            return False
        rng = np.random.default_rng((self.seed, spec_index, unit_index))
        return bool(rng.random() < spec.rate)

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=int(seed))

    def for_replica(self, replica_id: int, *, replicas: int | None = None) -> "FaultPlan":
        """The same fault mix, statistically independent per replica.

        Reusing one seed across N replicas makes every replica fire the
        *identical* fault stream -- a correlated outage masquerading as
        N independent ones.  ``np.random.SeedSequence((seed, replica_id))``
        spreads the pair through its entropy pool, so sibling plans draw
        from well-separated streams while any (plan, replica) pair stays
        perfectly reproducible.  ``replicas`` is accepted for symmetry
        with schedule splitting but does not affect the derivation.
        """
        if replica_id < 0:
            raise ConfigurationError(
                f"replica_id must be >= 0, got {replica_id}"
            )
        derived = np.random.SeedSequence((self.seed, int(replica_id)))
        return replace(self, seed=int(derived.generate_state(1)[0]))

    def describe(self) -> str:
        """One human line per spec, e.g. for logs and CLIs."""
        if not self.specs:
            return f"FaultPlan(seed={self.seed}): no faults"
        lines = [f"FaultPlan(seed={self.seed}):"]
        for spec in self.specs:
            window = (
                f"[{spec.first}, {'...' if spec.last is None else spec.last}]"
            )
            extra = ""
            if spec.kind in _DELAY_KINDS:
                extra = f" +{spec.magnitude_s * 1e3:g} ms"
            if spec.transient:
                extra += f" transient(fires={spec.fires})"
            lines.append(
                f"  {spec.kind} @ {spec.rate:.1%} over {window}{extra}"
            )
        return "\n".join(lines)

    # -- serialization ---------------------------------------------------------
    def save_jsonl(self, path: str | Path) -> Path:
        """Write the plan, one spec per line (header line first)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps({"schema": FAULTS_SCHEMA, "seed": self.seed})]
        for spec in self.specs:
            lines.append(
                json.dumps(
                    {
                        "kind": spec.kind,
                        "rate": spec.rate,
                        "magnitude_s": spec.magnitude_s,
                        "transient": spec.transient,
                        "fires": spec.fires,
                        "first": spec.first,
                        "last": spec.last,
                    }
                )
            )
        path.write_text("\n".join(lines) + "\n")
        return path

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "FaultPlan":
        """Load a saved plan (exact round-trip of :meth:`save_jsonl`)."""
        header, records = read_jsonl(path, FAULTS_SCHEMA)
        specs = []
        for lineno, record in records:
            with record_fields(f"{path}:{lineno}"):
                specs.append(
                    FaultSpec(
                        kind=record["kind"],
                        rate=float(record["rate"]),
                        magnitude_s=float(record.get("magnitude_s", 0.0)),
                        transient=bool(record.get("transient", False)),
                        fires=int(record.get("fires", 1)),
                        first=int(record.get("first", 0)),
                        last=record.get("last"),
                    )
                )
        with record_fields(f"{path}: header"):
            seed = int(header.get("seed", 0))
        return cls(specs=tuple(specs), seed=seed)


class FaultInjector:
    """The stateful half of a plan: transient hit counts, nothing else.

    One injector belongs to one engine run.  :meth:`reset` (or a fresh
    injector) restores the deterministic baseline -- the load generator
    resets before every run so repeated ``simulate()`` calls replay the
    identical fault sequence.
    """

    def __init__(self, plan: FaultPlan) -> None:
        if not isinstance(plan, FaultPlan):
            raise ConfigurationError(
                f"plan must be a FaultPlan, got {type(plan).__name__}"
            )
        self.plan = plan
        #: (spec index, request id) -> times the transient fault has fired.
        self._transient_hits: dict[tuple[int, int], int] = {}

    def reset(self) -> None:
        self._transient_hits.clear()

    def corrupt_image(self, request_index: int, image: np.ndarray) -> np.ndarray:
        """The payload as the client would deliver it -- possibly poisoned.

        When a ``corrupt_input`` spec fires for ``request_index``, returns
        a float copy with a NaN pixel; otherwise returns ``image``
        untouched (no copy).
        """
        for spec_index, spec in enumerate(self.plan.specs):
            if spec.kind != "corrupt_input":
                continue
            if self.plan.decide(spec_index, request_index):
                poisoned = np.array(image, dtype=np.float64, copy=True)
                poisoned.reshape(-1)[0] = np.nan
                return poisoned
        return image

    def on_dispatch(
        self,
        *,
        batch_index: int,
        request_ids: Sequence[int],
        protected: bool = False,
    ) -> float:
        """Apply every firing spec to one dispatched batch.

        Returns the extra service delay in seconds (delay kinds).  Raises
        :exc:`InjectedFault` for the raising kinds -- ``raise_in_batch``
        is suppressed when ``protected`` (the dispatch is already on the
        shed/degraded stage-0 path), ``request_error`` is not (a poison
        input is poisoned on every path).
        """
        delay_s = 0.0
        for spec_index, spec in enumerate(self.plan.specs):
            kind = spec.kind
            if kind in _DELAY_KINDS:
                if self.plan.decide(spec_index, batch_index):
                    delay_s += spec.magnitude_s
            elif kind == "raise_in_batch":
                if not protected and self.plan.decide(spec_index, batch_index):
                    raise InjectedFault(kind, batch_index=batch_index)
            elif kind == "request_error":
                for request_id in request_ids:
                    if not self.plan.decide(spec_index, int(request_id)):
                        continue
                    if spec.transient:
                        key = (spec_index, int(request_id))
                        hits = self._transient_hits.get(key, 0)
                        if hits >= spec.fires:
                            continue
                        self._transient_hits[key] = hits + 1
                    raise InjectedFault(kind, request_id=int(request_id))
            # corrupt_input is an intake-side fault; nothing to do here.
        return delay_s

    def __repr__(self) -> str:
        return (
            f"FaultInjector({len(self.plan.specs)} spec(s), "
            f"seed={self.plan.seed})"
        )


def merge_plans(plans: Iterable[FaultPlan], *, seed: int = 0) -> FaultPlan:
    """Compose several plans into one (specs concatenated, new seed)."""
    specs: list[FaultSpec] = []
    for plan in plans:
        specs.extend(plan.specs)
    return FaultPlan(specs=tuple(specs), seed=seed)
