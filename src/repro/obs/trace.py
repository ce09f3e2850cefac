"""Per-request trace recording: schema-versioned JSON-lines spans.

A trace file starts with one header record (``kind: "header"`` carrying
:data:`TRACE_SCHEMA` plus whatever metadata the producer attached) and
then holds one record per line -- the serving engine writes a ``span``
record per answered request: queue wait, batch id, the per-stage wall
time / active-set / OPS timeline, exit stage, the δ and depth cap in
force, and the request's exact OPS/energy cost.

:class:`TraceRecorder` is the write side -- one lock around an append to
an open line-buffered file, safe to share between the synchronous engine,
the async worker thread, and anything else.  The read side
(:func:`iter_records` / :func:`read_spans`) validates the header and
yields parsed dicts; :func:`reconcile_ops` re-derives the aggregate OPS
accounting from spans alone, *bit-exactly* matching
:class:`~repro.serving.metrics.ServingMetrics` (same per-batch numpy
summation, same batch-ordered accumulation) -- the invariant the
``obs_reconcile`` benchmark gates.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from repro.errors import ConfigurationError, SerializationError
from repro.obs import forksafe

#: Schema tag written into every trace file's header record.
TRACE_SCHEMA = "repro.trace/v1"

#: Keys every span record must carry (the v1 span contract; producers may
#: add more).
SPAN_REQUIRED_KEYS = frozenset({
    "kind", "request_id", "batch_id", "model_spec", "queue_wait_s",
    "latency_s", "exit_stage", "exit_stage_name", "confidence", "delta",
    "max_stage", "batch_size", "ops", "energy_pj", "stages",
})


def failure_span(
    *,
    request_id: int,
    batch_id: int,
    model_spec: str,
    latency_s: float,
    cause: str,
) -> dict:
    """The span of a request that resolved failed: every required key
    (``exit_stage`` -1, zero cost, an empty stage timeline) plus ``error``,
    which :func:`reconcile_errors` re-derives.  Its whole latency counts
    as queue wait, since no stage ran."""
    return {
        "kind": "span",
        "request_id": request_id,
        "batch_id": batch_id,
        "model_spec": model_spec,
        "queue_wait_s": latency_s,
        "latency_s": latency_s,
        "exit_stage": -1,
        "exit_stage_name": "",
        "confidence": 0.0,
        "delta": 0.0,
        "max_stage": None,
        "batch_size": 1,
        "ops": 0.0,
        "energy_pj": 0.0,
        "shed": False,
        "degraded": False,
        "error": cause,
        "stages": [],
    }


class TraceRecorder:
    """Lock-protected JSON-lines span writer.

    Opens ``path`` for writing (truncating -- a trace is one serving
    session), emits the schema header immediately, and appends one line
    per :meth:`record` call.  Use as a context manager or call
    :meth:`close` explicitly; :meth:`flush` forces buffered lines out for
    a live tail.
    """

    def __init__(self, path: str | Path, *, meta: dict | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        forksafe.register(self)
        self._file: IO[str] | None = self.path.open("w")
        self._records = 0
        header = {
            "kind": "header",
            "schema": TRACE_SCHEMA,
            "created_unix": time.time(),
            **(meta or {}),
        }
        self._write(header)

    @property
    def closed(self) -> bool:
        return self._file is None

    @property
    def records_written(self) -> int:
        """Records written so far (header excluded)."""
        return self._records

    def _write(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, allow_nan=False)
        with self._lock:
            if self._file is None:
                raise SerializationError(
                    f"trace recorder for {self.path} is closed"
                )
            self._file.write(line + "\n")

    def record(self, record: dict) -> None:
        """Append one record (the caller supplies ``kind``)."""
        line = json.dumps(record, sort_keys=True, allow_nan=False)
        with self._lock:
            if self._file is None:
                raise SerializationError(
                    f"trace recorder for {self.path} is closed"
                )
            self._file.write(line + "\n")
            self._records += 1

    def _reinit_locks(self) -> None:
        """After-fork hook (:mod:`repro.obs.forksafe`): the parent may
        have held the lock at fork time; the clone must start unlocked."""
        self._lock = threading.Lock()

    def flush(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{self._records} record(s)"
        return f"TraceRecorder({str(self.path)!r}, {state})"


def iter_records(
    path: str | Path, *, schemas: tuple[str, ...] = (TRACE_SCHEMA,)
) -> Iterator[dict]:
    """Parsed records of one header-first JSON-lines file.

    Validates the header's schema tag (against ``schemas`` -- span traces
    by default; the CLI's ``tail`` also accepts event logs) before
    yielding anything; malformed lines raise
    :class:`~repro.errors.SerializationError` with the line number.
    """
    path = Path(path)
    with path.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SerializationError(
                    f"{path}:{lineno}: not valid JSON ({exc})"
                ) from None
            if lineno == 1:
                if record.get("kind") != "header":
                    raise SerializationError(
                        f"{path}: first record must be the header"
                    )
                schema = record.get("schema")
                if schema not in schemas:
                    raise SerializationError(
                        f"{path}: schema {schema!r} is not one of "
                        f"{sorted(schemas)}"
                    )
            yield record


def read_header(path: str | Path) -> dict:
    """The trace file's validated header record."""
    for record in iter_records(path):
        return record
    raise SerializationError(f"{path}: empty trace file")


def read_spans(path: str | Path) -> list[dict]:
    """Every span record of a trace file, in write order."""
    return [r for r in iter_records(path) if r.get("kind") == "span"]


def validate_span(span: dict) -> dict:
    """Check one span record against the v1 contract; returns it."""
    missing = SPAN_REQUIRED_KEYS - set(span)
    if missing:
        raise ConfigurationError(
            f"span record is missing key(s) {sorted(missing)}"
        )
    return span


def reconcile_ops(spans: Iterable[dict]) -> tuple[float, int]:
    """Re-derive ``(total OPS, requests)`` from spans, metrics-exactly.

    :class:`~repro.serving.metrics.ServingMetrics` accumulates
    ``float(ops.sum())`` per dispatched micro-batch; JSON round-trips
    doubles exactly (shortest-repr serialization), so grouping spans by
    ``batch_id``, pairwise-summing each batch with numpy in span order,
    and accumulating the per-batch sums in batch order reproduces the
    aggregate *bit for bit* -- ``total / requests`` equals
    ``MetricsSnapshot.mean_ops`` with ``==``, not ``approx``.
    """
    batches: dict[int, list[float]] = {}
    order: list[int] = []
    count = 0
    for span in spans:
        batch_id = int(span["batch_id"])
        if batch_id not in batches:
            batches[batch_id] = []
            order.append(batch_id)
        batches[batch_id].append(float(span["ops"]))
        count += 1
    total = 0.0
    for batch_id in order:
        total += float(np.array(batches[batch_id], dtype=np.float64).sum())
    return total, count


def reconcile_shed(spans: Iterable[dict]) -> tuple[int, int]:
    """Re-derive ``(shed requests, requests)`` from spans.

    The serving engine stamps every span with a boolean ``shed`` field
    (not part of the v1 required set -- older traces simply count zero).
    The result must equal :attr:`MetricsSnapshot.shed_requests` /
    ``requests`` exactly, and the ``loadgen_shed`` benchmark gates that
    reconciliation against the :class:`~repro.serving.slo.SLOReport` from
    the same run.
    """
    shed = 0
    count = 0
    for span in spans:
        count += 1
        if span.get("shed"):
            shed += 1
    return shed, count


def reconcile_errors(
    spans: Iterable[dict],
) -> tuple[dict[str, int], int, int]:
    """Re-derive ``(failed by cause, degraded requests, requests)`` from spans.

    A failed request's span carries ``error`` (the cause label, e.g.
    ``"injected_fault"``) and ``exit_stage`` -1; a request served during
    a degraded episode carries ``degraded: true``.  Neither field is in
    the v1 required set -- pre-resilience traces reconcile to zero.  The
    chaos gate checks the result three ways: the per-cause dict must
    equal :attr:`MetricsSnapshot.failed_by_cause`, the degraded count
    :attr:`MetricsSnapshot.degraded_requests`, and both must match the
    :class:`~repro.serving.slo.SLOReport` of the same run.  ``requests``
    counts every span, failed included.
    """
    failed: dict[str, int] = {}
    degraded = 0
    count = 0
    for span in spans:
        count += 1
        cause = span.get("error")
        if cause is not None:
            failed[cause] = failed.get(cause, 0) + 1
        elif span.get("degraded"):
            degraded += 1
    return failed, degraded, count
