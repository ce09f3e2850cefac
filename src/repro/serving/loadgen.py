"""Open-loop, trace-driven load generation against the serving engine.

:class:`LoadRunner` fires the arrivals of an
:class:`~repro.serving.schedule.ArrivalSchedule` at the engine and folds
the answers into an :class:`~repro.serving.slo.SLOReport`.  Two
execution modes share everything but the clock:

:meth:`LoadRunner.simulate`
    Virtual time.  The *real* cascade runs for every request -- exit
    stages, OPS/energy, shed decisions, controller feedback, spans and
    metrics are all genuine -- but service time is derived from the
    measured cascade cost (``batch OPS / ops_per_second``) instead of the
    wall clock.  Queueing is the engine's own
    :class:`~repro.serving.batching.Dispatcher` running on a
    :class:`~repro.serving.batching.VirtualClock`.  Same model + schedule
    + seed => the identical report, which is what the determinism tests
    and the gated ``serving_slo_tiny`` / ``loadgen_shed`` benchmarks pin.
:meth:`LoadRunner.run`
    Wall clock.  Arrivals are paced by real sleeps into an
    :class:`~repro.serving.engine.AsyncEngine` worker; latencies are
    measured, not modeled.  Use this to measure an actual deployment.

Both modes are *open loop*: arrival times come from the schedule alone,
never from completions, so an overloaded server shows up as queueing
delay instead of being hidden by coordinated omission.

The CLI front end (``python -m repro.serving.loadgen``) trains the tiny
reference cascade and runs a schedule against it::

    python -m repro.serving.loadgen run --schedule poisson --rate 500 \\
        --duration 4 --slo-p99 0.05
    python -m repro.serving.loadgen run --schedule bursty --rate 300 \\
        --burst-factor 4 --shed-depth 256 --slo-p99 0.1 --deadline 0.1
    python -m repro.serving.loadgen plan --schedule diurnal --rate 100 \\
        --peak-rate 400 --period 60 --duration 120
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter, sleep
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.serving.batching import WALL_CLOCK, Ticket, VirtualClock
from repro.serving.engine import (
    AsyncEngine,
    InferenceEngine,
    InferenceResponse,
    LocalExecutor,
    RequestFailed,
    serve_batches,
)
from repro.serving.faults import FaultInjector, FaultPlan
from repro.serving.resilience import Supervisor
from repro.serving.schedule import Arrival, ArrivalSchedule
from repro.serving.slo import SLOReport
from repro.utils.logging import get_logger

_log = get_logger("serving.loadgen")


class LoadRunner:
    """Drives one engine with one schedule's arrivals.

    Parameters
    ----------
    engine:
        The :class:`~repro.serving.engine.InferenceEngine` under test
        (its micro-batch policy, controller, and shed policy all apply).
    schedule:
        The arrival process; materialized once per run.
    images:
        Request payload pool, ``(N, *input_shape)``.  Request ``i`` of
        the trace serves ``pool[i % len(pool)]`` -- deterministic, no
        extra RNG.
    scenario_pools:
        Optional per-scenario payload pools keyed by scenario name; an
        arrival tagged ``scenario="fog@0.6"`` draws from
        ``scenario_pools["fog@0.6"]``.  Untagged arrivals (and tags with
        no pool) fall back to ``images``.
    fault_plan:
        Optional :class:`~repro.serving.faults.FaultPlan` for chaos runs.
        Installs a fresh :class:`~repro.serving.faults.FaultInjector` on
        the engine (replacing any configured one); intake-side faults
        (``corrupt_input``) are applied by the runner before submission,
        dispatch-side faults fire inside the engine.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        schedule: ArrivalSchedule,
        images: np.ndarray,
        *,
        scenario_pools: Mapping[str, np.ndarray] | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if len(images) == 0:
            raise ConfigurationError("images pool must not be empty")
        if fault_plan is not None:
            engine.faults = FaultInjector(fault_plan)
        self.engine = engine
        self.schedule = schedule
        self.images = images
        #: ``(arrival, answer)`` of every request the most recent
        #: ``simulate()`` / ``run()`` call resolved, in arrival order --
        #: the records behind the report.
        self.last_outcomes: tuple[
            tuple[Arrival, InferenceResponse | RequestFailed], ...
        ] = ()
        self.scenario_pools = dict(scenario_pools or {})
        for name, pool in self.scenario_pools.items():
            if len(pool) == 0:
                raise ConfigurationError(
                    f"scenario pool {name!r} must not be empty"
                )

    def _payload(self, index: int, arrival: Arrival) -> np.ndarray:
        pool = self.images
        if arrival.scenario is not None:
            pool = self.scenario_pools.get(arrival.scenario, self.images)
        return pool[index % len(pool)]

    # -- virtual-time mode -----------------------------------------------------
    def simulate(
        self,
        *,
        ops_per_second: float,
        slo_p99_s: float,
    ) -> SLOReport:
        """Replay the schedule in virtual time (deterministic).

        Each arrival is submitted to the engine's dispatcher at its
        scheduled time on a :class:`~repro.serving.batching.VirtualClock`
        (installed for the run, the wall clock restored afterwards), so
        batching, priority boarding, queue depth and shed decisions are
        the ones every other front end gets.  ``ops_per_second`` is the
        modeled service capacity: a dispatched micro-batch occupies the
        (single) server for ``sum(request OPS) / ops_per_second`` virtual
        seconds, where the OPS are the *measured* exit-path costs of
        actually running the cascade on the batch.  The engine charges
        it on the clock before it stamps the answers, so the report
        folds the answers' own times and deadline verdicts, as in
        :meth:`run`, and metrics and spans agree with it.  The
        engine must be idle when the run starts (nothing queued or in
        flight), and it is left idle however the run ends.

        Chaos runs stay deterministic: the fault injector is reset at the
        start, injected latency is spent on the clock before the OPS, a
        payload rejected at intake fails at its arrival (latency 0, as in
        :meth:`run`), and failed requests fold in as failed.  Under
        a supervision-only policy (``isolate=False``) a batch fault
        crashes the virtual server as it would the
        :class:`~repro.serving.engine.AsyncEngine` worker, which is down
        until its restart is due.  An *unprotected* engine (no resilience
        policy) wedges on the first injected batch fault -- the exception
        kills the virtual worker, every not-yet-answered arrival counts as
        dropped, and the report shows the outage instead of hiding it.
        """
        if not ops_per_second > 0:
            raise ConfigurationError(
                f"ops_per_second must be > 0, got {ops_per_second}"
            )
        arrivals = self.schedule.materialize()
        if not arrivals:
            raise ConfigurationError(
                "schedule materialized zero arrivals; raise the rate or "
                "duration"
            )
        engine = self.engine
        dispatcher = engine.dispatcher
        busy = dispatcher.queue_depth()
        if busy:
            raise ConfigurationError(
                f"simulate() needs an idle engine, but {busy} requests are "
                "queued or in flight; flush() it or stop its AsyncEngine first"
            )
        injector = engine.faults
        if injector is not None:
            injector.reset()
        clock = VirtualClock(ops_per_second=ops_per_second)
        dispatcher.set_clock(clock)
        supervisor = Supervisor(engine.resilience, dispatcher)
        server = LocalExecutor(engine, supervisor)
        tickets = []
        timeline: list[tuple[float, int]] = []
        try:
            for index, arrival in enumerate(arrivals):
                serve_batches(
                    dispatcher, [server], until=arrival.t, timeline=timeline
                )
                clock.t = arrival.t
                payload = self._payload(index, arrival)
                if injector is not None:
                    payload = injector.corrupt_image(index, payload)
                if supervisor.exhausted:
                    tickets.append(supervisor.reject())
                    continue
                tickets.append(
                    engine.submit(
                        payload,
                        deadline_s=arrival.deadline_s,
                        priority=arrival.priority,
                    )
                )
            serve_batches(
                dispatcher, [server], until=float("inf"), timeline=timeline
            )
        except Exception as exc:  # noqa: BLE001 -- wedge accounting
            if not server.gone or engine.resilience is not None:
                raise  # from intake, not a crash of the virtual server
            # No resilience layer: the fault killed the (virtual) worker.
            # Everything still queued or unscheduled is stranded --
            # exactly the outage the report must show.
            stranded = len(arrivals) - sum(ticket.done for ticket in tickets)
            _log.warning(
                "engine wedged at t=%.3fs: %s -- %d requests stranded",
                clock.t, exc, stranded,
            )
            if stranded == len(arrivals):
                raise
        finally:
            # Whatever stopped the run (a wedge, or an exception from
            # intake), no virtual-time request outlives it in the engine.
            dispatcher.clear()
            dispatcher.set_clock(WALL_CLOCK)
        # A ticket still pending was stranded by a wedge: dropped.
        return self._report(arrivals, tickets, timeline, slo_p99_s=slo_p99_s)

    # -- wall-clock mode -------------------------------------------------------
    def run(
        self,
        *,
        slo_p99_s: float,
        result_timeout_s: float = 30.0,
        server: AsyncEngine | None = None,
    ) -> SLOReport:
        """Fire the schedule in real time through an async worker.

        Arrivals are paced with real sleeps (an arrival that falls behind
        fires immediately -- open loop, never rescheduled); latencies,
        queue waits, and deadline verdicts come from the engine's wall
        clocks.  Pass a running ``server`` to reuse one, otherwise a
        worker is started and stopped around the run.  A ticket that
        fails to resolve within ``result_timeout_s`` counts as dropped
        (with this engine that indicates a harness bug, and the report
        will show it rather than hide it).
        """
        arrivals = self.schedule.materialize()
        if not arrivals:
            raise ConfigurationError(
                "schedule materialized zero arrivals; raise the rate or "
                "duration"
            )
        own_server = server is None
        if server is None:
            server = AsyncEngine(self.engine).start()
        elif not server.running:
            raise ConfigurationError("server must be running (call start())")
        injector = self.engine.faults
        if injector is not None:
            injector.reset()
        tickets = []
        timeline: list[tuple[float, int]] = []
        try:
            t0 = perf_counter()
            for index, arrival in enumerate(arrivals):
                delay = arrival.t - (perf_counter() - t0)
                if delay > 0:
                    sleep(delay)
                payload = self._payload(index, arrival)
                if injector is not None:
                    payload = injector.corrupt_image(index, payload)
                ticket = server.submit(
                    payload,
                    deadline_s=arrival.deadline_s,
                    priority=arrival.priority,
                )
                tickets.append(ticket)
                timeline.append(
                    (perf_counter() - t0, server.queue_depth())
                )
            return self._report(
                arrivals, tickets, timeline,
                slo_p99_s=slo_p99_s, timeout_s=result_timeout_s,
            )
        finally:
            if own_server:
                server.stop()

    def _report(
        self,
        arrivals: list[Arrival],
        tickets: list[Ticket],
        timeline: list[tuple[float, int]],
        *,
        slo_p99_s: float,
        timeout_s: float = 0.0,
    ) -> SLOReport:
        """Pair each ticket's answer with its arrival, keep the pairs as
        :attr:`last_outcomes` and fold them into the run's report.  A
        ticket unresolved after ``timeout_s`` (and an arrival never
        submitted) counts as dropped."""
        outcomes = []
        for arrival, ticket in zip(arrivals, tickets):
            try:
                outcomes.append((arrival, ticket.result(timeout=timeout_s)))
            except TimeoutError:
                continue
        if len(outcomes) < len(tickets):
            _log.warning(
                "%d submitted requests never resolved (dropped)",
                len(tickets) - len(outcomes),
            )
        self.last_outcomes = tuple(outcomes)
        return SLOReport.from_outcomes(
            outcomes,
            slo_p99_s=slo_p99_s,
            requests=len(arrivals),
            offered_span_s=self.schedule.duration_s,
            queue_depth_timeline=timeline,
        )


# -- CLI -----------------------------------------------------------------------
def _schedule_from_args(args: argparse.Namespace) -> ArrivalSchedule:
    common = dict(
        rate_rps=args.rate,
        duration_s=args.duration,
        seed=args.seed,
        deadline_s=args.deadline,
    )
    if args.schedule == "poisson":
        return ArrivalSchedule.poisson(**common)
    if args.schedule == "diurnal":
        if args.peak_rate is None or args.period is None:
            raise ConfigurationError(
                "diurnal schedules need --peak-rate and --period"
            )
        return ArrivalSchedule.diurnal(
            peak_rate_rps=args.peak_rate, period_s=args.period, **common
        )
    if args.schedule == "bursty":
        return ArrivalSchedule.bursty(
            burst_factor=args.burst_factor,
            burst_start_s=args.burst_start,
            burst_duration_s=(
                args.burst_duration
                if args.burst_duration is not None
                else args.duration / 4
            ),
            **common,
        )
    if args.schedule == "replay":
        if args.trace is None:
            raise ConfigurationError("replay schedules need --trace FILE")
        return ArrivalSchedule.from_jsonl(args.trace)
    raise ConfigurationError(f"unknown schedule kind {args.schedule!r}")


def _add_schedule_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--schedule",
        choices=("poisson", "diurnal", "bursty", "replay"),
        default="poisson",
        help="arrival shape (default: poisson)",
    )
    parser.add_argument(
        "--rate", type=float, default=200.0,
        help="base arrival rate, req/s (default: 200)",
    )
    parser.add_argument(
        "--duration", type=float, default=4.0,
        help="schedule span, seconds (default: 4)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="schedule RNG seed (default: 0)"
    )
    parser.add_argument(
        "--deadline", type=float, default=None,
        help="per-request deadline, seconds (default: none)",
    )
    parser.add_argument(
        "--peak-rate", type=float, default=None,
        help="diurnal crest rate, req/s",
    )
    parser.add_argument(
        "--period", type=float, default=None, help="diurnal period, seconds"
    )
    parser.add_argument(
        "--burst-factor", type=float, default=4.0,
        help="bursty overload multiplier (default: 4)",
    )
    parser.add_argument(
        "--burst-start", type=float, default=1.0,
        help="bursty window start, seconds (default: 1)",
    )
    parser.add_argument(
        "--burst-duration", type=float, default=None,
        help="bursty window length, seconds (default: duration/4)",
    )
    parser.add_argument(
        "--trace", default=None, help="JSONL arrival trace for --schedule replay"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.loadgen",
        description=(
            "Open-loop load generation against the tiny reference cascade: "
            "schedule arrivals, measure tail latency, report throughput at "
            "a p99 SLO and goodput under deadlines."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="materialize a schedule and drive the engine with it"
    )
    _add_schedule_args(run)
    run.add_argument(
        "--slo-p99", type=float, required=True,
        help="p99 latency target, seconds (throughput-at-SLO is judged "
        "against this)",
    )
    run.add_argument(
        "--mode", choices=("sim", "real"), default="sim",
        help="sim: deterministic virtual time (default); real: wall clock "
        "through the async worker",
    )
    run.add_argument(
        "--ops-per-second", type=float, default=5e8,
        help="modeled service capacity for --mode sim, scalar OPS/s "
        "(default: 5e8)",
    )
    run.add_argument(
        "--shed-depth", type=int, default=None,
        help="install a ShedPolicy(max_queue_depth=N) on the engine",
    )
    run.add_argument(
        "--faults", default=None,
        help="JSONL fault plan (repro.faults/v1) to inject during the run",
    )
    run.add_argument(
        "--resilient", action="store_true",
        help="install the default ResiliencePolicy (supervision, "
        "isolation, retries, degraded fallback)",
    )
    run.add_argument(
        "--model-seed", type=int, default=7,
        help="training seed for the reference cascade (default: 7)",
    )
    run.add_argument(
        "--json", dest="json_out", default=None,
        help="also write the report as JSON to this path",
    )

    plan = sub.add_parser(
        "plan", help="describe a schedule without running anything"
    )
    _add_schedule_args(plan)
    return parser


def _cmd_plan(args: argparse.Namespace) -> int:
    schedule = _schedule_from_args(args)
    arrivals = schedule.materialize()
    print(schedule.describe())
    print(f"materialized arrivals: {len(arrivals)}")
    if arrivals:
        times = np.array([a.t for a in arrivals])
        gaps = np.diff(times) if len(times) > 1 else np.array([0.0])
        print(
            f"first/last arrival: {times[0]:.3f}s / {times[-1]:.3f}s; "
            f"mean gap {gaps.mean() * 1e3:.2f} ms"
        )
        with_deadline = sum(1 for a in arrivals if a.deadline_s is not None)
        print(f"arrivals with deadline: {with_deadline}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    # Imported here: the plan path must not pull in the training stack.
    from repro.experiments.common import Scale, get_datasets, get_trained
    from repro.serving.config import ServingConfig
    from repro.serving.controller import ShedPolicy
    from repro.serving.resilience import ResiliencePolicy

    schedule = _schedule_from_args(args)
    print(schedule.describe())
    scale = Scale.tiny()
    print("training tiny reference cascade (cached per process)...")
    # Held across get_trained, which trains on the same pair.
    _, test = get_datasets(scale, seed=args.model_seed)
    trained = get_trained("mnist_3c", scale, seed=args.model_seed)
    shed = (
        ShedPolicy(max_queue_depth=args.shed_depth)
        if args.shed_depth is not None
        else None
    )
    engine = InferenceEngine.from_config(
        ServingConfig(
            model=trained,
            shed=shed,
            faults=FaultPlan.from_jsonl(args.faults) if args.faults else None,
            resilience=ResiliencePolicy() if args.resilient else None,
        )
    )
    runner = LoadRunner(engine, schedule, test.images)
    if args.mode == "sim":
        report = runner.simulate(
            ops_per_second=args.ops_per_second, slo_p99_s=args.slo_p99
        )
    else:
        report = runner.run(slo_p99_s=args.slo_p99)
    print(report.render())
    print(
        f"throughput @ SLO: {report.throughput_at_slo_rps:.1f} req/s | "
        f"goodput: {report.goodput_rps:.1f} req/s "
        f"({report.goodput_fraction:.1%} in deadline)"
    )
    if args.json_out:
        path = report.save(args.json_out)
        print(f"report written to {path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plan":
            return _cmd_plan(args)
        return _cmd_run(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
