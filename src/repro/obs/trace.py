"""Per-request trace recording: schema-versioned JSON-lines spans.

A trace file starts with one header record (``kind: "header"`` carrying
:data:`TRACE_SCHEMA` plus whatever metadata the producer attached) and
then holds one record per line -- the serving engine writes one ``span``
record per resolved answer, built by :func:`span_of`: queue wait, batch
id, the per-stage wall time / active-set / OPS timeline, exit stage, the
δ and depth cap in force, and the request's exact OPS/energy cost, or
the failure cause.

:class:`TraceRecorder` is the write side -- one lock around an append to
an open line-buffered file, safe to share between the synchronous engine,
the async worker thread, and anything else.  The read side
(:func:`iter_records` / :func:`read_spans`) validates the header and
yields parsed dicts; :func:`fold_spans` folds spans back into the
countables of a :class:`~repro.serving.metrics.MetricsSnapshot`, with
the OPS total *bit-exact* (same per-batch numpy summation, same
batch-ordered accumulation) -- the invariant the ``obs_reconcile``
benchmark gates.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from repro.errors import ConfigurationError, SerializationError
from repro.obs import forksafe
from repro.utils.jsonio import iter_jsonl

#: Schema tag written into every trace file's header record.
TRACE_SCHEMA = "repro.trace/v1"

#: Keys every span record must carry (the v1 span contract; producers may
#: add more).
SPAN_REQUIRED_KEYS = frozenset({
    "kind", "request_id", "batch_id", "model_spec", "queue_wait_s",
    "latency_s", "exit_stage", "exit_stage_name", "confidence", "delta",
    "max_stage", "batch_size", "ops", "energy_pj", "stages",
})


def span_of(
    answer,
    *,
    batch_id: int,
    model_spec: str,
    max_stage: int | None = None,
    stages: list[dict] | None = None,
) -> dict:
    """The span record of one resolved answer.

    ``answer`` is an :class:`~repro.serving.engine.InferenceResponse` or a
    :class:`~repro.serving.engine.RequestFailed`; both expose every field
    read here (a failure exits at stage -1, pays nothing and carries its
    cause in ``error``).  ``stages`` is the batch's per-stage timeline,
    shared by every span of the batch; ``max_stage`` the depth cap in
    force.
    """
    return {
        "kind": "span",
        "request_id": answer.request_id,
        "batch_id": batch_id,
        "model_spec": model_spec,
        "queue_wait_s": answer.queue_wait_s,
        "latency_s": answer.latency_s,
        "exit_stage": answer.exit_stage,
        "exit_stage_name": answer.exit_stage_name,
        "confidence": answer.confidence,
        "delta": answer.delta,
        "max_stage": max_stage,
        "batch_size": answer.batch_size,
        "ops": answer.ops,
        "energy_pj": answer.energy_pj,
        "shed": answer.shed,
        "degraded": answer.degraded,
        "error": answer.error,
        "stages": stages or [],
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
        self._lines = 0
        header = {
            "kind": "header",
            "schema": TRACE_SCHEMA,
            "created_unix": time.time(),
            **(meta or {}),
        }
        self.record(header)

    @property
    def closed(self) -> bool:
        return self._file is None

    @property
    def records_written(self) -> int:
        """Records written so far (header excluded)."""
        return self._lines - 1

    def record(self, record: dict) -> None:
        """Append one record (the caller supplies ``kind``)."""
        line = json.dumps(record, sort_keys=True, allow_nan=False)
        with self._lock:
            if self._file is None:
                raise SerializationError(
                    f"trace recorder for {self.path} is closed"
                )
            self._file.write(line + "\n")
            self._lines += 1

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
        state = "closed" if self.closed else f"{self.records_written} record(s)"
        return f"TraceRecorder({str(self.path)!r}, {state})"


def iter_records(
    path: str | Path, *, schemas: tuple[str, ...] = (TRACE_SCHEMA,)
) -> Iterator[dict]:
    """Parsed records of one header-first JSON-lines file.

    The first non-blank record must be the header, with a schema tag in
    ``schemas`` (span traces by default; the CLI's ``tail`` also accepts
    event logs); it is checked before anything is yielded.  An empty
    file, a missing header and malformed lines raise
    :class:`~repro.errors.SerializationError` with the line number.
    """
    records = iter_jsonl(path)
    first = next(records, None)
    if first is None:
        raise SerializationError(f"{path}: empty trace file (no header record)")
    lineno, header = first
    if header.get("kind") != "header":
        raise SerializationError(
            f"{path}:{lineno}: first record must be the header"
        )
    schema = header.get("schema")
    if schema not in schemas:
        raise SerializationError(
            f"{path}: schema {schema!r} is not one of {sorted(schemas)}"
        )
    yield header
    for _lineno, record in records:
        yield record


def read_header(path: str | Path) -> dict:
    """The trace file's validated header record."""
    return next(iter_records(path))


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


@dataclass(frozen=True)
class SpanFold:
    """What a trace's spans add up to.

    Each field means what its :class:`~repro.serving.metrics.
    MetricsSnapshot` namesake means, so the two compare with ``==``:
    ``requests`` counts answered spans (failures excluded), and
    ``mean_ops`` equals the snapshot's bit for bit.  Spans without the
    ``shed``/``degraded``/``error`` fields (older traces) count zero.
    """

    requests: int
    total_ops: float
    shed_requests: int
    degraded_requests: int
    #: ``((cause, count), ...)``, sorted by cause.
    failed_by_cause: tuple[tuple[str, int], ...]

    @property
    def failed_requests(self) -> int:
        return sum(count for _, count in self.failed_by_cause)

    @property
    def spans(self) -> int:
        """Every span folded: answered plus failed."""
        return self.requests + self.failed_requests

    @property
    def mean_ops(self) -> float:
        return self.total_ops / max(self.requests, 1)


def fold_spans(spans: Iterable[dict]) -> SpanFold:
    """Fold span records into a :class:`SpanFold`.

    :class:`~repro.serving.metrics.ServingMetrics` accumulates
    ``float(ops.sum())`` per dispatched micro-batch; JSON round-trips
    doubles exactly (shortest-repr serialization), so grouping answered
    spans by ``batch_id``, pairwise-summing each batch with numpy in span
    order, and accumulating the per-batch sums in batch order reproduces
    the OPS total *bit for bit*.
    """
    batches: dict[int, list[float]] = {}
    shed = degraded = 0
    failed: dict[str, int] = {}
    for span in spans:
        cause = span.get("error")
        if cause is not None:
            failed[cause] = failed.get(cause, 0) + 1
            continue
        batches.setdefault(int(span["batch_id"]), []).append(float(span["ops"]))
        shed += bool(span.get("shed"))
        degraded += bool(span.get("degraded"))
    total = 0.0
    for ops in batches.values():
        total += float(np.array(ops, dtype=np.float64).sum())
    return SpanFold(
        requests=sum(len(ops) for ops in batches.values()),
        total_ops=total,
        shed_requests=shed,
        degraded_requests=degraded,
        failed_by_cause=tuple(sorted(failed.items())),
    )
