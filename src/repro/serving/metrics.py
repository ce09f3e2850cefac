"""Per-request serving telemetry.

:class:`ServingMetrics` is the engine's flight recorder: every resolved
answer of a dispatched micro-batch -- served or failed -- folds in once,
with its queue-to-answer latency (seconds), exit stage, and op/energy
cost (scalar OPS and pJ).  :meth:`ServingMetrics.snapshot` folds the
window into the numbers an operator watches -- throughput, p50/p95
latency, the exit-stage histogram (the serving-side view of Fig. 8's
"most inputs stop early"), cumulative energy, and failures by cause.

All recording goes through one lock so the synchronous engine, the async
worker thread, and any monitoring thread can share an instance.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.tables import AsciiTable

#: Quantile levels of the stage-0 confidence distribution in a drift
#: signature.  The single source of truth for :mod:`repro.serving.adaptive`
#: -- reference signatures and live windows must bin identically to compare.
STAGE0_QUANTILE_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)

#: Latencies kept for the percentiles: the most recent answers.
_LATENCY_WINDOW = 8192


@dataclass(frozen=True)
class MetricsSnapshot:
    """A consistent point-in-time view of the serving counters.

    Units: latencies in seconds, ``mean_ops`` in scalar OPS
    (multiply-accumulates) per request, energy in picojoules.
    ``elapsed_s`` runs from the first to the last served batch on the
    dispatcher's clock: the wall clock, or virtual time in ``simulate()``.
    """

    requests: int
    batches: int
    mean_batch_size: float
    elapsed_s: float
    throughput_rps: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    exit_stage_counts: np.ndarray
    stage_names: tuple[str, ...]
    mean_ops: float
    total_energy_pj: float
    mean_energy_pj: float
    #: Tail latencies use ``np.quantile(..., method="higher")``: an actual
    #: observed sample, never an interpolated value -- so with fewer than
    #: 100 samples in the window, p99 is simply the window maximum
    #: (conservative, deterministic).
    latency_p99_s: float = 0.0
    latency_p999_s: float = 0.0
    #: Deepest queue observed at any dispatch (0 when the engine never
    #: reported depths, e.g. direct ``submit`` + ``flush`` loops).
    max_queue_depth: int = 0
    #: Requests served at a stage-0 early exit by backpressure
    #: (:class:`~repro.serving.controller.ShedPolicy`); shed requests are
    #: still answered, so they also count in ``requests``.
    shed_requests: int = 0
    #: Requests served at a stage-0 early exit by a degraded episode
    #: (:class:`~repro.serving.resilience.ResiliencePolicy`); like shed,
    #: they are still answered and also count in ``requests``.
    degraded_requests: int = 0
    #: Requests that resolved as failed (``RequestFailed``) -- these do
    #: NOT count in ``requests`` (which stays "requests answered").
    failed_requests: int = 0
    #: Per-request re-dispatch attempts the resilience layer paid.
    retries: int = 0
    #: ``((cause, count), ...)`` breakdown of ``failed_requests``,
    #: sorted by cause.
    failed_by_cause: tuple[tuple[str, int], ...] = ()

    def exit_stage_fractions(self) -> np.ndarray:
        """Exit-stage histogram normalized to fractions (sums to 1)."""
        total = self.exit_stage_counts.sum()
        return self.exit_stage_counts / max(total, 1)

    def shed_fraction(self) -> float:
        """Fraction of all answered requests that were shed."""
        return self.shed_requests / max(self.requests, 1)

    def render(self) -> str:
        table = AsciiTable(["metric", "value"], title="Serving metrics")
        table.add_row(["requests", self.requests])
        table.add_row(["batches", self.batches])
        table.add_row(["mean batch size", round(self.mean_batch_size, 2)])
        table.add_row(["throughput (req/s)", round(self.throughput_rps, 1)])
        table.add_row(["latency mean (ms)", round(self.latency_mean_s * 1e3, 3)])
        table.add_row(["latency p50 (ms)", round(self.latency_p50_s * 1e3, 3)])
        table.add_row(["latency p95 (ms)", round(self.latency_p95_s * 1e3, 3)])
        table.add_row(["latency p99 (ms)", round(self.latency_p99_s * 1e3, 3)])
        table.add_row(["latency p99.9 (ms)", round(self.latency_p999_s * 1e3, 3)])
        table.add_row(["max queue depth", self.max_queue_depth])
        table.add_row(
            ["shed requests", f"{self.shed_requests} ({self.shed_fraction():.1%})"]
        )
        if self.degraded_requests or self.failed_requests or self.retries:
            causes = ", ".join(
                f"{cause}:{count}" for cause, count in self.failed_by_cause
            )
            table.add_row(["degraded requests", self.degraded_requests])
            table.add_row(
                ["failed requests", f"{self.failed_requests} ({causes or '-'})"]
            )
            table.add_row(["retries", self.retries])
        fractions = "/".join(f"{f:.2f}" for f in self.exit_stage_fractions())
        table.add_row([f"exit fractions ({'/'.join(self.stage_names)})", fractions])
        table.add_row(["mean OPS / request", round(self.mean_ops, 1)])
        table.add_row(["mean energy / request (pJ)", round(self.mean_energy_pj, 1)])
        table.add_row(["total energy (uJ)", round(self.total_energy_pj / 1e6, 3)])
        return table.render()


class ServingMetrics:
    """Thread-safe fold of resolved answers into the serving counters.

    Latencies are kept in a bounded window of the most recent answers
    (percentiles over the full history of a long-lived service would be
    meaningless anyway); counts, ops and energy accumulate over the
    service lifetime.
    """

    def __init__(self, stage_names: tuple[str, ...]) -> None:
        if not stage_names:
            raise ConfigurationError("stage_names must not be empty")
        self.stage_names = tuple(stage_names)
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._reset_locked()

    def _reset_locked(self) -> None:
        self._requests = 0
        self._batches = 0
        self._exit_counts = np.zeros(len(self.stage_names), dtype=np.int64)
        self._total_ops = 0.0
        self._total_energy_pj = 0.0
        self._max_queue_depth = 0
        self._shed_requests = 0
        self._degraded_requests = 0
        self._failed_by_cause: dict[str, int] = {}
        self._retries = 0
        self._latencies.clear()
        self._started_at: float | None = None
        self._last_at: float | None = None

    def reset(self) -> None:
        with self._lock:
            self._reset_locked()

    def record_batch(
        self,
        answers: Sequence,
        now: float,
        *,
        queue_depth: int | None = None,
    ) -> None:
        """Fold one dispatched micro-batch's resolved answers into the counters.

        Parameters
        ----------
        answers:
            The batch's :class:`~repro.serving.engine.InferenceResponse`
            and :class:`~repro.serving.engine.RequestFailed` answers.  A
            failure counts only by cause: it is not a request answered.
        now:
            When they resolved, on the dispatcher's clock.  Served
            answers stretch :attr:`MetricsSnapshot.elapsed_s` to it;
            failures do not.
        queue_depth:
            Optional queue depth at dispatch time, under the stack's one
            unified meaning: in-flight (this batch) plus everything
            still waiting.  The lifetime maximum is exposed as
            :attr:`MetricsSnapshot.max_queue_depth`.
        """
        served = [a for a in answers if not a.failed]
        size = len(served)
        exit_stages = np.fromiter((a.exit_stage for a in served), np.int64, size)
        ops = np.fromiter((a.ops for a in served), np.float64, size)
        energies = np.fromiter((a.energy_pj for a in served), np.float64, size)
        counts = np.bincount(exit_stages, minlength=len(self.stage_names))
        with self._lock:
            for answer in answers:
                if answer.failed:
                    self._failed_by_cause[answer.error] = (
                        self._failed_by_cause.get(answer.error, 0) + 1
                    )
            if queue_depth is not None and queue_depth > self._max_queue_depth:
                self._max_queue_depth = int(queue_depth)
            if not size:
                return
            if self._started_at is None:
                self._started_at = now
            self._last_at = now
            self._requests += size
            self._batches += 1
            self._exit_counts += counts
            self._total_ops += float(ops.sum())
            self._total_energy_pj += float(energies.sum())
            self._latencies.extend(a.latency_s for a in served)
            self._shed_requests += sum(a.shed for a in served)
            self._degraded_requests += sum(a.degraded for a in served)

    def record_retry(self) -> None:
        """Count one re-dispatch attempt the resilience layer paid."""
        with self._lock:
            self._retries += 1

    def snapshot(self) -> MetricsSnapshot:
        """Fold the counters into one consistent :class:`MetricsSnapshot`."""
        with self._lock:
            latencies = np.array(self._latencies, dtype=np.float64)
            elapsed = (
                (self._last_at - self._started_at)
                if self._started_at is not None and self._last_at is not None
                else 0.0
            )
            requests = self._requests
            batches = self._batches
            counts = self._exit_counts.copy()
            total_ops = self._total_ops
            total_energy = self._total_energy_pj
            max_queue_depth = self._max_queue_depth
            shed_requests = self._shed_requests
            degraded_requests = self._degraded_requests
            failed_by_cause = tuple(sorted(self._failed_by_cause.items()))
            retries = self._retries
        has_latency = latencies.size > 0
        return MetricsSnapshot(
            requests=requests,
            batches=batches,
            mean_batch_size=requests / max(batches, 1),
            elapsed_s=elapsed,
            throughput_rps=requests / elapsed if elapsed > 0 else 0.0,
            latency_mean_s=float(latencies.mean()) if has_latency else 0.0,
            latency_p50_s=float(np.percentile(latencies, 50)) if has_latency else 0.0,
            latency_p95_s=float(np.percentile(latencies, 95)) if has_latency else 0.0,
            exit_stage_counts=counts,
            stage_names=self.stage_names,
            mean_ops=total_ops / max(requests, 1),
            total_energy_pj=total_energy,
            mean_energy_pj=total_energy / max(requests, 1),
            # method="higher" returns an observed sample, so small windows
            # degrade to the max instead of an optimistic interpolation.
            latency_p99_s=(
                float(np.quantile(latencies, 0.99, method="higher"))
                if has_latency
                else 0.0
            ),
            latency_p999_s=(
                float(np.quantile(latencies, 0.999, method="higher"))
                if has_latency
                else 0.0
            ),
            max_queue_depth=max_queue_depth,
            shed_requests=shed_requests,
            degraded_requests=degraded_requests,
            failed_requests=sum(c for _, c in failed_by_cause),
            retries=retries,
            failed_by_cause=failed_by_cause,
        )

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"ServingMetrics(requests={snap.requests}, batches={snap.batches}, "
            f"throughput={snap.throughput_rps:.1f} req/s)"
        )
