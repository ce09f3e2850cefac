"""One declarative object configuring an :class:`~repro.serving.engine.InferenceEngine`.

The engine grew one keyword knob per PR -- registry, model spec,
micro-batch policy, controller, fixed delta, adaptive policy, observer --
until constructing one meant reading seven parameter docstrings and the
invariants between them lived inline in ``__init__``.  :class:`ServingConfig`
consolidates the lot: every knob is a field, :meth:`validate` checks the
cross-field invariants in one place, and
``InferenceEngine.from_config(cfg)`` is the one construction path
(``InferenceEngine(model)`` is sugar for the one-field config).

New capabilities only land here (never as new ``__init__`` keywords):
``shed`` -- the backpressure policy -- is the first example.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.serving.batching import MicroBatchPolicy
from repro.serving.controller import DeltaController, ShedPolicy
from repro.serving.faults import FaultPlan
from repro.serving.registry import ModelRegistry
from repro.serving.resilience import ResiliencePolicy


@dataclass(frozen=True)
class ServingConfig:
    """Everything an :class:`~repro.serving.engine.InferenceEngine` needs.

    Attributes
    ----------
    model:
        A fitted CDLN or TrainedCdl, registered as ``"default"`` in a
        fresh registry.  Mutually exclusive with ``registry``.
    registry:
        An existing :class:`~repro.serving.registry.ModelRegistry`;
        ``model_spec`` picks the entry.
    model_spec:
        ``"name"`` or ``"name:version"`` to serve from the registry.
    policy:
        Micro-batch dispatch policy (defaults applied at build time).
    controller:
        Optional budget-aware :class:`~repro.serving.controller.DeltaController`.
    delta:
        Fixed runtime threshold in ``[0, 1]`` when no controller is
        installed (defaults to the model's activation-module delta).
    adaptive:
        Optional :class:`~repro.serving.adaptive.AdaptiveDeltaPolicy`;
        requires a ``controller`` with a soft ``target_mean_ops``.
    shed:
        Optional :class:`~repro.serving.controller.ShedPolicy`.  When the
        queue depth (or predicted wait) at dispatch crosses the policy's
        threshold, the dispatcher marks the batch shed and the engine
        serves it force-terminated at stage 0 -- cheap answers instead of
        dropped requests.
    resilience:
        Optional :class:`~repro.serving.resilience.ResiliencePolicy`.
        Turns on the fault-handling ladder -- supervised async worker,
        poison-batch isolation, bounded retries, degraded stage-0
        fallback.  Without it the engine keeps
        the original propagate-on-error contract.
    faults:
        Optional :class:`~repro.serving.faults.FaultPlan` -- seeded
        fault injection for chaos testing.  Never set in production.
    validate_inputs:
        Reject non-finite payloads (NaN/Inf) at ``submit()`` with
        :class:`~repro.errors.InputValidationError` (default).  Trusted
        intake paths can turn the check off.
    observer:
        Optional :class:`~repro.obs.observer.Observer`; defaults to the
        no-op :data:`~repro.obs.observer.NULL_OBSERVER` and is propagated
        onto every collaborator that still holds the null observer.
    """

    model: object | None = None
    registry: ModelRegistry | None = None
    model_spec: str = "default"
    policy: MicroBatchPolicy | None = None
    controller: DeltaController | None = None
    delta: float | None = None
    adaptive: object | None = None
    shed: ShedPolicy | None = None
    resilience: ResiliencePolicy | None = None
    faults: FaultPlan | None = None
    validate_inputs: bool = True
    observer: Observer | None = None

    def validate(self) -> "ServingConfig":
        """Check every cross-field invariant; returns self for chaining.

        This is the single home of the rules that used to live inline in
        ``InferenceEngine.__init__``:

        * exactly one of ``model`` / ``registry``;
        * ``delta``, when fixed, lies in ``[0, 1]``;
        * ``adaptive`` needs a controller with a soft ``target_mean_ops``
          (the operating table is a mean-OPS curve);
        * typed knobs actually carry their type (a policy where a
          controller belongs fails here, not deep in a dispatch).
        """
        if (self.model is None) == (self.registry is None):
            raise ConfigurationError(
                "pass exactly one of `model` (a fitted CDLN / TrainedCdl) "
                "or `registry`"
            )
        if self.registry is not None and not isinstance(
            self.registry, ModelRegistry
        ):
            raise ConfigurationError(
                f"registry must be a ModelRegistry, got "
                f"{type(self.registry).__name__}"
            )
        if not self.model_spec:
            raise ConfigurationError("model_spec must not be empty")
        if self.policy is not None and not isinstance(
            self.policy, MicroBatchPolicy
        ):
            raise ConfigurationError(
                f"policy must be a MicroBatchPolicy, got "
                f"{type(self.policy).__name__}"
            )
        if self.controller is not None and not isinstance(
            self.controller, DeltaController
        ):
            raise ConfigurationError(
                f"controller must be a DeltaController, got "
                f"{type(self.controller).__name__}"
            )
        if self.shed is not None and not isinstance(self.shed, ShedPolicy):
            raise ConfigurationError(
                f"shed must be a ShedPolicy, got {type(self.shed).__name__}"
            )
        if self.resilience is not None and not isinstance(
            self.resilience, ResiliencePolicy
        ):
            raise ConfigurationError(
                f"resilience must be a ResiliencePolicy, got "
                f"{type(self.resilience).__name__}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ConfigurationError(
                f"faults must be a FaultPlan, got {type(self.faults).__name__}"
            )
        if self.delta is not None and not 0.0 <= self.delta <= 1.0:
            raise ConfigurationError(
                f"delta must lie in [0, 1], got {self.delta}"
            )
        if self.adaptive is not None and (
            self.controller is None or self.controller.target_mean_ops is None
        ):
            raise ConfigurationError(
                "adaptive serving needs a DeltaController with a soft "
                "target_mean_ops (the operating table is a mean-OPS curve)"
            )
        return self

    def build(self) -> "ServingConfig":
        """A validated copy with construction-time defaults filled in."""
        self.validate()
        return replace(
            self,
            policy=self.policy or MicroBatchPolicy(),
            observer=self.observer if self.observer is not None else NULL_OBSERVER,
        )

    def with_updates(self, **changes: object) -> "ServingConfig":
        """A copy with ``changes`` applied and invariants re-checked."""
        return replace(self, **changes).validate()
