"""Batched early-exit inference serving.

Turns a fitted :class:`~repro.cdl.network.CDLN` into a long-lived
service: a :class:`ModelRegistry` of named/versioned models, an
:class:`InferenceEngine` (configured through one declarative
:class:`ServingConfig`) that coalesces single requests into dynamic
micro-batches of stage-wise cascade execution, a budget-aware
:class:`DeltaController` that adapts the runtime threshold to an ops
budget, a :class:`ShedPolicy` that sheds overload to stage-0 early exits
instead of dropping, :class:`ServingMetrics` tracking throughput,
latency percentiles, exit-stage histograms and energy, the adaptive loop
(:class:`DriftDetector` + :class:`OperatingTable` +
:class:`AdaptiveDeltaPolicy`) that detects distribution drift from live
signals and retargets δ from precomputed per-regime operating curves,
the open-loop load generator (:class:`ArrivalSchedule` +
:class:`LoadRunner` + :class:`SLOReport`) that measures throughput at a
tail-latency SLO, and the multi-replica :class:`ServingFabric` that
scales the whole stack across worker processes over shared read-only
parameters with fleet-level δ control, drift detection and supervision.

Attribute access is lazy (PEP 562): :mod:`repro.cdl.network` imports the
shared executor from :mod:`repro.serving.cascade`, so eagerly importing
the engine modules here would create an import cycle.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "CascadeResult": "repro.serving.cascade",
    "CascadeStageRecord": "repro.serving.cascade",
    "execute_cascade": "repro.serving.cascade",
    "MicroBatchPolicy": "repro.serving.batching",
    "ModelEntry": "repro.serving.registry",
    "ModelRegistry": "repro.serving.registry",
    "CalibrationPoint": "repro.serving.controller",
    "DeltaCalibration": "repro.serving.controller",
    "DeltaController": "repro.serving.controller",
    "ShedPolicy": "repro.serving.controller",
    "simulate_exit_stages": "repro.serving.controller",
    "MetricsSnapshot": "repro.serving.metrics",
    "STAGE0_QUANTILE_GRID": "repro.serving.metrics",
    "ServingMetrics": "repro.serving.metrics",
    "ServingConfig": "repro.serving.config",
    "AsyncEngine": "repro.serving.engine",
    "InferenceEngine": "repro.serving.engine",
    "InferenceResponse": "repro.serving.engine",
    "RequestFailed": "repro.serving.engine",
    "Ticket": "repro.serving.batching",
    "FabricConfig": "repro.serving.fabric",
    "FleetSnapshot": "repro.serving.fabric",
    "ServingFabric": "repro.serving.fabric",
    "SharedParams": "repro.serving.fabric",
    "FaultInjector": "repro.serving.faults",
    "FaultPlan": "repro.serving.faults",
    "FaultSpec": "repro.serving.faults",
    "InjectedFault": "repro.serving.faults",
    "HealthStatus": "repro.serving.resilience",
    "ResiliencePolicy": "repro.serving.resilience",
    "AdaptiveDeltaPolicy": "repro.serving.adaptive",
    "DriftDetector": "repro.serving.adaptive",
    "DriftEvent": "repro.serving.adaptive",
    "OperatingPoint": "repro.serving.adaptive",
    "OperatingTable": "repro.serving.adaptive",
    "RegimeEntry": "repro.serving.adaptive",
    "RegimeSignature": "repro.serving.adaptive",
    "RetargetEvent": "repro.serving.adaptive",
    "fold_exit_fractions": "repro.serving.adaptive",
    "population_stability_index": "repro.serving.adaptive",
    "robust_slope": "repro.serving.adaptive",
    "signature_distance": "repro.serving.adaptive",
    "Arrival": "repro.serving.schedule",
    "ArrivalSchedule": "repro.serving.schedule",
    "LoadRunner": "repro.serving.loadgen",
    "RequestOutcome": "repro.serving.slo",
    "SLOReport": "repro.serving.slo",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
