"""SLO accounting: resolved answers folded into one tail-latency report.

The load generator (:mod:`repro.serving.loadgen`) pairs each resolved
request's answer -- an :class:`~repro.serving.engine.InferenceResponse`
or a :class:`~repro.serving.engine.RequestFailed`, stamped on the
engine's clock with its queue wait, latency, exit stage, cost, shed and
deadline flags -- with the :class:`~repro.serving.schedule.Arrival`
that asked for it.  :meth:`SLOReport.from_outcomes` is a *pure* fold of
those ``(arrival, answer)`` pairs into the numbers an operator
negotiates: achieved throughput against a fixed p99 target, goodput
under per-request deadlines, shed and deadline-miss counts, and the
queue-depth timeline.  Pure means deterministic -- the same pairs always
produce the same report, which is what lets the simulated runner gate
tail-latency claims in CI with exact baselines.

Units: times in seconds, rates in requests/second, ``ops`` in scalar
multiply-accumulates, energy in picojoules.  Tail quantiles use
``np.quantile(..., method="higher")`` -- an observed sample, never an
interpolation -- matching :class:`~repro.serving.metrics.ServingMetrics`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError, SerializationError
from repro.utils.tables import AsciiTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.engine import InferenceResponse, RequestFailed
    from repro.serving.schedule import Arrival

#: Schema tag stamped into every serialized report.
SLO_REPORT_SCHEMA = "repro.sloreport/v1"


@dataclass(frozen=True)
class SLOReport:
    """Tail-latency / goodput verdict for one load-generation run.

    ``dropped`` counts scheduled requests that never produced an outcome.
    The serving stack never drops by design (shedding serves a cheap
    answer instead), so anything non-zero here is a harness bug -- the
    gated benchmarks assert it is zero.
    """

    slo_p99_s: float
    requests: int
    answered: int
    dropped: int
    #: Schedule span (last scheduled arrival), seconds.
    offered_span_s: float
    #: Makespan from t=0 to the last completion, seconds.
    duration_s: float
    offered_rate_rps: float
    achieved_rps: float
    #: Requests answered within their deadline, per second of makespan.
    goodput_rps: float
    goodput_fraction: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    latency_p999_s: float
    slo_met: bool
    #: The headline number: achieved throughput when the p99 SLO held,
    #: 0.0 when it did not (throughput above a broken SLO is worthless).
    throughput_at_slo_rps: float
    shed_count: int
    shed_fraction: float
    deadline_missed: int
    mean_ops: float
    mean_energy_pj: float
    max_queue_depth: int
    #: ``(dispatch time, queue depth at dispatch)`` samples.
    queue_depth_timeline: tuple[tuple[float, int], ...] = ()
    #: Requests that resolved as failed (``RequestFailed``); disjoint
    #: from ``answered`` and from ``dropped``.  (Defaults keep pre-chaos
    #: v1 reports loadable.)
    failed_count: int = 0
    failed_fraction: float = 0.0
    #: Answered requests served by a degraded stage-0 episode.
    degraded_count: int = 0
    degraded_fraction: float = 0.0
    #: The chaos headline: requests answered (not failed, not dropped)
    #: within the p99 SLO bound, over everything *submitted*.
    availability: float = 1.0

    @classmethod
    def from_outcomes(
        cls,
        outcomes: Sequence[tuple[Arrival, InferenceResponse | RequestFailed]],
        *,
        slo_p99_s: float,
        requests: int | None = None,
        offered_span_s: float | None = None,
        queue_depth_timeline: Iterable[tuple[float, int]] = (),
    ) -> "SLOReport":
        """Fold ``(arrival, answer)`` pairs into a report (pure -- no
        clocks, no engine).

        Parameters
        ----------
        outcomes:
            One pair per *resolved* request: its scheduled
            :class:`~repro.serving.schedule.Arrival` and its answer
            (:class:`~repro.serving.engine.InferenceResponse`, or
            :class:`~repro.serving.engine.RequestFailed`, which is
            excluded from the latency/cost statistics and from goodput).
            An answer's completion is ``arrival.t + answer.latency_s``.
        slo_p99_s:
            The p99 latency target the run is judged against.
        requests:
            Scheduled request count (defaults to ``len(outcomes)``);
            the difference is reported as ``dropped``.
        offered_span_s:
            Schedule span for the offered-rate denominator (defaults to
            the last served arrival's time).
        queue_depth_timeline:
            Optional ``(dispatch time, depth)`` samples from the runner.
        """
        if not slo_p99_s > 0:
            raise ConfigurationError(f"slo_p99_s must be > 0, got {slo_p99_s}")
        if not outcomes:
            raise ConfigurationError("cannot report on zero outcomes")
        scheduled = len(outcomes) if requests is None else int(requests)
        if scheduled < len(outcomes):
            raise ConfigurationError(
                f"requests={scheduled} is fewer than the {len(outcomes)} "
                "outcomes supplied"
            )
        served = [(a, r) for a, r in outcomes if not r.failed]
        failed = len(outcomes) - len(served)
        if not served:
            raise ConfigurationError(
                "cannot report on a run where every outcome failed "
                "(no latency/cost statistics exist)"
            )
        # Latency/cost statistics cover *served* requests only: a failed
        # request has no answer latency, and mixing quarantine timing
        # into the percentiles would corrupt the SLO verdict.
        latencies = np.array([r.latency_s for _, r in served], dtype=np.float64)
        arrivals = np.array([a.t for a, _ in served], dtype=np.float64)
        ops = np.array([r.ops for _, r in served], dtype=np.float64)
        energies = np.array([r.energy_pj for _, r in served], dtype=np.float64)
        if offered_span_s is None:
            span = float(arrivals.max())
        else:
            span = float(offered_span_s)
        duration = float((arrivals + latencies).max())
        answered = len(served)
        in_time = sum(1 for _, r in served if not r.deadline_missed)
        shed = sum(1 for _, r in served if r.shed)
        degraded = sum(1 for _, r in served if r.degraded)
        in_slo = int((latencies <= slo_p99_s).sum())
        p99 = float(np.quantile(latencies, 0.99, method="higher"))
        slo_met = p99 <= slo_p99_s
        achieved = answered / duration if duration > 0 else 0.0
        timeline = tuple((float(t), int(d)) for t, d in queue_depth_timeline)
        return cls(
            slo_p99_s=float(slo_p99_s),
            requests=scheduled,
            answered=answered,
            dropped=scheduled - answered - failed,
            offered_span_s=span,
            duration_s=duration,
            offered_rate_rps=scheduled / span if span > 0 else 0.0,
            achieved_rps=achieved,
            goodput_rps=in_time / duration if duration > 0 else 0.0,
            goodput_fraction=in_time / answered,
            latency_mean_s=float(latencies.mean()),
            latency_p50_s=float(np.quantile(latencies, 0.50, method="higher")),
            latency_p95_s=float(np.quantile(latencies, 0.95, method="higher")),
            latency_p99_s=p99,
            latency_p999_s=float(np.quantile(latencies, 0.999, method="higher")),
            slo_met=slo_met,
            throughput_at_slo_rps=achieved if slo_met else 0.0,
            shed_count=shed,
            shed_fraction=shed / answered,
            deadline_missed=answered - in_time,
            mean_ops=float(ops.mean()),
            mean_energy_pj=float(energies.mean()),
            max_queue_depth=max((d for _, d in timeline), default=0),
            queue_depth_timeline=timeline,
            failed_count=failed,
            failed_fraction=failed / scheduled,
            degraded_count=degraded,
            degraded_fraction=degraded / answered,
            availability=in_slo / scheduled,
        )

    # -- presentation / serialization ------------------------------------------
    def render(self) -> str:
        table = AsciiTable(["metric", "value"], title="SLO report")
        table.add_row(["requests (scheduled)", self.requests])
        table.add_row(["answered / dropped", f"{self.answered} / {self.dropped}"])
        table.add_row(["offered rate (req/s)", round(self.offered_rate_rps, 1)])
        table.add_row(["achieved (req/s)", round(self.achieved_rps, 1)])
        table.add_row(
            ["goodput (req/s)",
             f"{self.goodput_rps:.1f} ({self.goodput_fraction:.1%} in deadline)"]
        )
        table.add_row(["latency p50 (ms)", round(self.latency_p50_s * 1e3, 3)])
        table.add_row(["latency p95 (ms)", round(self.latency_p95_s * 1e3, 3)])
        table.add_row(["latency p99 (ms)", round(self.latency_p99_s * 1e3, 3)])
        table.add_row(["latency p99.9 (ms)", round(self.latency_p999_s * 1e3, 3)])
        table.add_row(
            ["p99 SLO", f"{self.slo_p99_s * 1e3:g} ms "
             f"({'met' if self.slo_met else 'VIOLATED'})"]
        )
        table.add_row(
            ["throughput @ SLO (req/s)", round(self.throughput_at_slo_rps, 1)]
        )
        table.add_row(
            ["shed", f"{self.shed_count} ({self.shed_fraction:.1%})"]
        )
        if self.failed_count or self.degraded_count:
            table.add_row(
                ["failed", f"{self.failed_count} ({self.failed_fraction:.1%})"]
            )
            table.add_row(
                ["degraded",
                 f"{self.degraded_count} ({self.degraded_fraction:.1%})"]
            )
            table.add_row(["availability", f"{self.availability:.2%}"])
        table.add_row(["deadline missed", self.deadline_missed])
        table.add_row(["max queue depth", self.max_queue_depth])
        table.add_row(["mean OPS / request", round(self.mean_ops, 1)])
        table.add_row(["mean energy / request (pJ)", round(self.mean_energy_pj, 1)])
        return table.render()

    def to_json(self, *, indent: int | None = 2) -> str:
        payload = {"schema": SLO_REPORT_SCHEMA, **asdict(self)}
        payload["queue_depth_timeline"] = [
            list(sample) for sample in self.queue_depth_timeline
        ]
        return json.dumps(payload, indent=indent)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def from_json(cls, text: str) -> "SLOReport":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"malformed SLO report JSON: {exc}") from exc
        schema = payload.pop("schema", None)
        if schema != SLO_REPORT_SCHEMA:
            raise SerializationError(
                f"expected schema {SLO_REPORT_SCHEMA!r}, got {schema!r}"
            )
        payload["queue_depth_timeline"] = tuple(
            (float(t), int(d)) for t, d in payload.get("queue_depth_timeline", [])
        )
        return cls(**payload)
