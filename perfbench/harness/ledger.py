"""Per-layer metrics from a traced run.

Layer names follow the program's modules: ``nn`` (backbone layers),
``cdl`` (stage classifiers and the activation module), ``cascade``,
``engine``, ``batching``, ``metrics``, ``obs`` and ``fabric``, plus the
harness's own ``setup``, ``loadgen`` and ``client`` (the throughput and
latency the client saw in the untraced phase; on a shared host they
vary too much from run to run to carry a bound).  A layer that does not
run in a workload reports 0.
"""

from __future__ import annotations

import os
import threading
from collections import defaultdict

import numpy as np

from harness.stats import PercentileRefused, mean, percentile
from harness.tracer import Span, self_times

#: Backbone layers of ``mnist_3c`` in execution order; ``OPS_LAYERS`` do
#: the arithmetic that ``ops_per_s`` is reported for.
NN_LAYERS = ("C1", "P1", "C2", "P2", "C3", "P3", "flatten", "FC")
OPS_LAYERS = ("C1", "C2", "C3", "FC")
HEADS = ("O1", "O2")


class Ledger:
    """Accumulates per-layer values; refused percentiles are noted, not faked.

    ``names`` are the metrics to report, in order; each starts at 0, and
    setting a name that is not among them is an error.
    """

    def __init__(self, names) -> None:
        self.values: dict[str, float] = {name: 0.0 for name in names}
        self.refused: list[str] = []

    def set(self, name: str, value: float) -> None:
        if name not in self.values:
            raise KeyError(f"unknown per-layer metric {name!r}")
        self.values[name] = float(value)

    def set_percentile(self, name: str, samples, q: float, scale: float = 1.0) -> None:
        try:
            self.set(name, percentile(samples, q) * scale)
        except PercentileRefused as exc:
            self.refused.append(f"{name}: {exc}")


def batch_sizes(per_request_batch_size: np.ndarray) -> np.ndarray:
    """Batch-size distribution over batches, from each request's batch size.

    A batch of ``b`` requests appears ``b`` times among the requests, so
    it is counted once by taking ``1/b`` of each.
    """
    sizes, counts = np.unique(per_request_batch_size, return_counts=True)
    batches = np.rint(counts / sizes).astype(np.int64)
    return np.repeat(sizes.astype(np.int64), batches)


def span_totals(spans: list[Span]) -> tuple[dict, dict, dict]:
    """Per-name self time, rows and call count."""
    self_of = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    rows: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        self_s[span.name] += self_of[span.span_id]
        rows[span.name] += span.rows
        calls[span.name] += 1
    return self_s, rows, calls


def fill_from_spans(ledger: Ledger, spans: list[Span], layer_ops: dict[str, int],
                    stage_exits: dict[str, int]) -> None:
    """Layer self times, rows, achieved OPS/s and exit yields."""
    self_s, rows, calls = span_totals(spans)
    for layer in NN_LAYERS:
        name = f"nn.{layer}"
        ledger.set(f"{name}.self_s", self_s[name])
        ledger.set(f"{name}.rows", rows[name])
        if layer in OPS_LAYERS and self_s[name] > 0:
            ledger.set(f"{name}.ops_per_s",
                       layer_ops[layer] * rows[name] / self_s[name])
    for head in HEADS:
        ledger.set(f"cdl.{head}.self_s", self_s[f"cdl.{head}"])
        if rows[f"cdl.{head}"]:
            ledger.set(f"cascade.exit_yield.{head}",
                       stage_exits[head] / rows[f"cdl.{head}"])
    ledger.set("cdl.decide.self_s", self_s["cdl.decide"])
    ledger.set("cascade.self_s", self_s["cascade"])
    ledger.set("metrics.record_batch.self_s", self_s["metrics.record_batch"])
    ledger.set("obs.self_s", sum(v for k, v in self_s.items() if k.startswith("obs.")))
    ledger.set("obs.spans", calls["obs.span"])
    if calls["engine.submit"]:
        ledger.set("engine.submit.us_per_req",
                   self_s["engine.submit"] / calls["engine.submit"] * 1e6)
    if rows["engine.dispatch"]:
        ledger.set("engine.dispatch.us_per_req",
                   self_s["engine.dispatch"] / rows["engine.dispatch"] * 1e6)
    if calls["fabric.submit"]:
        ledger.set("fabric.submit.us_per_req",
                   self_s["fabric.submit"] / calls["fabric.submit"] * 1e6)


def fill_engine_responses(ledger: Ledger, answers: dict[str, np.ndarray]) -> None:
    """Queue wait, service time and batch sizes the engine reported."""
    wait = answers["queue_wait_s"]
    service = answers["latency_s"] - wait
    sizes = batch_sizes(answers["batch_size"])
    ledger.set_percentile("engine.service_ms.p50", service, 50, 1e3)
    ledger.set_percentile("batching.queue_wait_ms.p50", wait, 50, 1e3)
    ledger.set_percentile("batching.queue_wait_ms.p99", wait, 99, 1e3)
    ledger.set("batching.batch_size.mean", mean(sizes))
    ledger.set_percentile("batching.batch_size.p99", sizes, 99)


def fill_fabric_responses(ledger: Ledger, answers: dict[str, np.ndarray]) -> None:
    """Dispatch wait and parent-side round trip the fabric reported."""
    wait = answers["queue_wait_s"]
    roundtrip = answers["latency_s"] - wait
    ledger.set_percentile("fabric.dispatch_wait_ms.p50", wait, 50, 1e3)
    ledger.set_percentile("fabric.roundtrip_ms.p50", roundtrip, 50, 1e3)
    ledger.set_percentile("fabric.roundtrip_ms.p99", roundtrip, 99, 1e3)
    ledger.set("fabric.batch_size.mean", mean(batch_sizes(answers["batch_size"])))


def thread_cpu_s() -> dict[int, float]:
    """CPU seconds (user + system) per live thread, keyed by native id.

    Read from ``/proc/self/task``; empty where that does not exist.
    """
    cpu: dict[int, float] = {}
    try:
        tids = os.listdir("/proc/self/task")
    except OSError:
        return cpu
    tick = os.sysconf("SC_CLK_TCK")
    for tid in tids:
        try:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # Fields after the command name start at "state" (field 3);
        # utime and stime are fields 14 and 15.
        cpu[int(tid)] = (int(fields[11]) + int(fields[12])) / tick
    return cpu


def untraced_thread_cpu_s(before: dict[int, float], after: dict[int, float],
                          spans: list[Span], own_threads: set[int]) -> float:
    """CPU the program's threads spent without recording a single span.

    ``own_threads`` are the native ids of the harness's threads (the
    open-loop client), which are not the program.
    """
    native_of = {t.ident: t.native_id for t in threading.enumerate()}
    traced = {native_of.get(span.thread) for span in spans}
    return sum(
        cpu - before.get(tid, 0.0)
        for tid, cpu in after.items()
        if tid not in traced and tid not in own_threads
    )
