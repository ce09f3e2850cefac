"""Load-generation tour: schedules, SLO reports, and overload shedding.

Trains the tiny reference cascade, then runs three deterministic
virtual-time load tests against it: a steady Poisson baseline, the same
traffic with a 4x burst and no protection (the p99 SLO collapses), and
the burst again with a :class:`~repro.serving.ShedPolicy` installed --
overload is served at the stage-0 early exit, nothing is dropped, and
the tail comes back under control.  Finishes by reconciling the shed
fraction reported by the :class:`~repro.serving.SLOReport` against the
span trace, exactly.

Usage::

    python examples/loadgen_demo.py
"""

import tempfile
from pathlib import Path

from repro import CdlTrainingConfig, make_dataset_pair, train_cdln
from repro.obs import Observer, fold_spans, read_spans
from repro.serving import (
    ArrivalSchedule,
    InferenceEngine,
    LoadRunner,
    ServingConfig,
    ShedPolicy,
)

#: Modeled service capacity for the virtual-time runs, scalar OPS/s.
CAPACITY_OPS_PER_S = 3e7
SLO_P99_S = 0.25


def main() -> None:
    train, test = make_dataset_pair(2000, 600, rng=0)
    trained = train_cdln(
        train, config=CdlTrainingConfig(baseline_epochs=4), rng=1
    )

    # -- 1. steady state: Poisson at a sustainable rate ----------------------
    steady = ArrivalSchedule.poisson(
        rate_rps=150, duration_s=4, seed=3, deadline_s=SLO_P99_S
    )
    print(steady.describe())
    engine = InferenceEngine.from_config(ServingConfig(model=trained))
    report = LoadRunner(engine, steady, test.images).simulate(
        ops_per_second=CAPACITY_OPS_PER_S, slo_p99_s=SLO_P99_S
    )
    print(report.render())

    # -- 2. a 4x burst with no protection ------------------------------------
    burst = ArrivalSchedule.bursty(
        rate_rps=150, burst_factor=4, burst_start_s=1.0, burst_duration_s=1.0,
        duration_s=4, seed=3, deadline_s=SLO_P99_S,
    )
    print(f"\n{burst.describe()}")
    unprotected = InferenceEngine.from_config(ServingConfig(model=trained))
    no_shed = LoadRunner(unprotected, burst, test.images).simulate(
        ops_per_second=CAPACITY_OPS_PER_S, slo_p99_s=SLO_P99_S
    )
    print(
        f"unprotected: p99 {no_shed.latency_p99_s * 1e3:.0f} ms "
        f"(SLO {'met' if no_shed.slo_met else 'VIOLATED'}), "
        f"goodput {no_shed.goodput_fraction:.1%}"
    )

    # -- 3. the same burst behind a shed policy ------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp)
        with Observer.to_directory(outdir, meta={"example": "loadgen"}) as obs:
            protected = InferenceEngine.from_config(
                ServingConfig(
                    model=trained,
                    shed=ShedPolicy(max_queue_depth=32),
                    observer=obs,
                )
            )
            shed_report = LoadRunner(protected, burst, test.images).simulate(
                ops_per_second=CAPACITY_OPS_PER_S, slo_p99_s=SLO_P99_S
            )
        # The fold reads the trace before the directory goes.
        trace = fold_spans(read_spans(outdir / "trace.jsonl"))
    print(
        f"with shedding: p99 {shed_report.latency_p99_s * 1e3:.0f} ms "
        f"(SLO {'met' if shed_report.slo_met else 'VIOLATED'}), "
        f"goodput {shed_report.goodput_fraction:.1%}, "
        f"shed {shed_report.shed_fraction:.1%}, "
        f"dropped {shed_report.dropped}"
    )

    # -- 4. shed fraction reconciles exactly with the trace ------------------
    assert trace.spans == shed_report.answered
    assert trace.shed_requests == shed_report.shed_count  # ==, not approx
    print(
        f"\n{trace.spans} spans reconcile: {trace.shed_requests} shed in "
        f"trace == {shed_report.shed_count} in the SLO report"
    )


if __name__ == "__main__":
    main()
