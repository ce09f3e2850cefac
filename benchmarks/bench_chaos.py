"""Chaos bench: the resilience layer's gated availability claim.

One seeded fault plan (hard outage window, transient and persistent
compute errors, NaN payloads, latency spikes) replayed in deterministic
virtual time against the same schedule twice (body and checks in
``repro.bench.suites.chaos``):

* the **unprotected** engine wedges -- the first injected batch fault
  kills the worker, hundreds of arrivals are stranded, availability
  collapses;
* the **resilient** engine holds >= 99 % availability with zero
  stranded tickets, retries saving the transients, degraded stage-0
  fallback absorbing the outage, and the failed/degraded accounting
  reconciling *exactly* across SLO report, metrics snapshot, and trace
  spans (:func:`repro.obs.fold_spans`).
"""


def test_resilience_survives_chaos_plan(run_spec):
    run_spec("chaos_resilience")
