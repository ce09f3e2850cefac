"""Every JSON artifact loader rejects corrupt input with a typed error.

Each loader reads a file its own writer produced, corrupted one way:
emptied, cut short, non-UTF-8 bytes, a record that is not a JSON object,
or a record whose fields do not fit.  The serving and trace loaders raise
``SerializationError`` and the bench-artifact loader ``ConfigurationError``;
none may escape as a raw ``JSONDecodeError``, ``UnicodeDecodeError``,
``KeyError``, ``TypeError`` or ``AttributeError``.  A fuzzer then mutates
each writer's output at random (truncation, flipped bytes, inserted bytes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.artifact import BenchArtifact, load_artifact
from repro.errors import ConfigurationError, SerializationError
from repro.obs.trace import TraceRecorder, read_header, read_spans
from repro.serving.adaptive import (
    TABLE_SCHEMA_V1,
    OperatingPoint,
    OperatingTable,
    RegimeEntry,
    RegimeSignature,
)
from repro.serving.engine import InferenceResponse
from repro.serving.faults import FaultPlan, FaultSpec
from repro.serving.metrics import STAGE0_QUANTILE_GRID
from repro.serving.schedule import Arrival, ArrivalSchedule
from repro.serving.slo import SLOReport


def _write_table(path: Path) -> None:
    signature = RegimeSignature(
        exit_fractions=np.array([0.75, 0.25]),
        stage0_quantiles=np.linspace(0.5, 0.9, len(STAGE0_QUANTILE_GRID)),
        count=16,
    )
    point = OperatingPoint(
        delta=0.6, accuracy=0.9, mean_ops=1000.0, mean_energy_pj=50.0,
        exit_fractions=(0.75, 0.25),
    )
    entry = RegimeEntry(
        name="clean", scenario_spec="clean", num_samples=16,
        signature=signature, points=(point,),
    )
    OperatingTable({"clean": entry}, reference_regime="clean").save(path)


def _write_table_v1(path: Path) -> None:
    # A v1 table is a v2 table without null accuracies, under the old tag.
    _write_table(path)
    payload = json.loads(path.read_text())
    payload["schema"] = TABLE_SCHEMA_V1
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_bench_artifact(path: Path) -> None:
    artifact = BenchArtifact(
        benchmark="toy", group="g", tier="tiny", seed=0,
        timing={"rounds": 2, "wall_s_all": [0.1, 0.2]},
        metrics={"accuracy": 0.9}, environment={"numpy": "2"},
    )
    artifact.write(path.parent).replace(path)


def _write_slo_report(path: Path) -> None:
    outcomes = [
        (
            Arrival(t=0.1 * i),
            InferenceResponse(
                request_id=i, label=0, exit_stage=0, exit_stage_name="O1",
                confidence=1.0, delta=0.6, ops=100.0, energy_pj=5.0,
                model_spec="m", batch_size=1, latency_s=0.01,
            ),
        )
        for i in range(4)
    ]
    SLOReport.from_outcomes(outcomes, slo_p99_s=0.5).save(path)


def _write_trace(path: Path) -> None:
    with TraceRecorder(path) as recorder:
        for i in range(2):
            recorder.record({"kind": "span", "request_id": i, "latency_s": 0.01})


def _drop_header(records: list[dict]) -> list[dict]:
    # A trace whose first non-blank record is a span, behind a blank line.
    return [None] + records[1:]


@dataclass(frozen=True)
class Artifact:
    name: str
    write: Callable[[Path], object]
    load: Callable[[Path], object]
    #: One record per line (else one JSON document).
    jsonl: bool
    #: Turns the parsed records (one for a JSON document) into records a
    #: loader must refuse; ``None`` stands for a blank line.
    bad_field: Callable[[list[dict]], list[dict]]
    #: Whether the loader reads records past the first (the header
    #: reader stops there, so a corrupt tail is not its concern).
    reads_all: bool = True
    #: The typed error the loader raises on a corrupt file.
    error: type[Exception] = SerializationError
    #: Whether its records go through constructors whose validation raises
    #: ConfigurationError on a well-formed but invalid value (a schema tag
    #: or a fault kind with a flipped byte), which the loader lets through.
    validates: bool = False


def _set(index: int, key: str, value) -> Callable[[list[dict]], list[dict]]:
    def corrupt(records: list[dict]) -> list[dict]:
        records[index][key] = value
        return records

    return corrupt


def _drop(key: str) -> Callable[[list[dict]], list[dict]]:
    def corrupt(records: list[dict]) -> list[dict]:
        del records[0][key]
        return records

    return corrupt


ARTIFACTS = (
    Artifact("operating_table", _write_table, OperatingTable.load, False,
             _drop("regimes"), validates=True),
    Artifact("operating_table_v1", _write_table_v1, OperatingTable.load, False,
             _drop("regimes"), validates=True),
    Artifact("slo_report", _write_slo_report, SLOReport.load, False,
             _set(0, "unknown_field", 1)),
    Artifact("arrivals",
             lambda p: ArrivalSchedule.poisson(
                 rate_rps=40.0, duration_s=0.2, seed=3).save_jsonl(p),
             ArrivalSchedule.from_jsonl, True, _set(-1, "t", "soon"),
             validates=True),
    Artifact("fault_plan",
             lambda p: FaultPlan(
                 specs=(FaultSpec(kind="request_error", rate=0.1),), seed=5
             ).save_jsonl(p),
             FaultPlan.from_jsonl, True, _set(-1, "rate", None), validates=True),
    Artifact("trace_spans", _write_trace, read_spans, True, _drop_header),
    Artifact("trace_header", _write_trace, read_header, True, _drop_header,
             reads_all=False),
    Artifact("bench_artifact", _write_bench_artifact, load_artifact, False,
             _set(0, "timing", 5), error=ConfigurationError),
)


def _records_bytes(records: list[dict | None], jsonl: bool) -> bytes:
    if not jsonl:
        return (json.dumps(records[0], indent=2) + "\n").encode()
    return "".join(
        "\n" if r is None else json.dumps(r) + "\n" for r in records
    ).encode()


def _corrupt(good: bytes, corruption: str, artifact: Artifact) -> bytes:
    if corruption == "empty":
        return b""
    if corruption == "truncated":  # a write cut off inside the last record
        return good.rstrip()[:-1]
    if corruption == "not_utf8":
        middle = len(good) // 2
        return good[:middle] + b"\xff\xfe" + good[middle:]
    lines = good.splitlines(keepends=True)
    if corruption in ("null_first", "list_first"):
        bad = b"null\n" if corruption == "null_first" else b"[1, 2]\n"
        return bad + (b"".join(lines[1:]) if artifact.jsonl else b"")
    if corruption == "null_record":
        return good + b"null\n"
    assert corruption == "bad_field"
    if artifact.jsonl:
        records = [json.loads(line) for line in lines if line.strip()]
    else:
        records = [json.loads(good)]
    return _records_bytes(artifact.bad_field(records), artifact.jsonl)


CORRUPTIONS = (
    "empty", "truncated", "not_utf8", "null_first", "list_first",
    "null_record", "bad_field",
)


def _cases():
    for artifact in ARTIFACTS:
        for corruption in CORRUPTIONS:
            if corruption == "null_record" and not artifact.jsonl:
                continue  # a JSON document has no second record
            if corruption in ("truncated", "null_record") and not artifact.reads_all:
                continue
            yield pytest.param(artifact, corruption,
                               id=f"{artifact.name}-{corruption}")


@pytest.mark.parametrize("artifact", ARTIFACTS, ids=lambda a: a.name)
def test_loader_reads_what_its_writer_wrote(tmp_path, artifact):
    path = tmp_path / "artifact"
    artifact.write(path)
    artifact.load(path)


@pytest.mark.parametrize(("artifact", "corruption"), _cases())
def test_loader_rejects_corrupt_input(tmp_path, artifact, corruption):
    path = tmp_path / "artifact"
    artifact.write(path)
    path.write_bytes(_corrupt(path.read_bytes(), corruption, artifact))
    with pytest.raises(artifact.error):
        artifact.load(path)


@st.composite
def _mutated(draw, good: bytes) -> bytes:
    """``good`` after one to three edits: cut short, a byte flipped, or
    one to four bytes inserted."""
    data = good
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("truncate", "flip", "insert")))
        if edit == "truncate" and data:
            data = data[: draw(st.integers(0, len(data) - 1))]
        elif edit == "flip" and data:
            at = draw(st.integers(0, len(data) - 1))
            flipped = data[at] ^ draw(st.integers(1, 255))
            data = data[:at] + bytes([flipped]) + data[at + 1 :]
        else:
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    return data


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> dict[str, tuple[Path, bytes]]:
    """Each artifact's path and the bytes its writer put there."""
    out = {}
    for artifact in ARTIFACTS:
        path = tmp_path_factory.mktemp(artifact.name) / "artifact"
        artifact.write(path)
        out[artifact.name] = (path, path.read_bytes())
    return out


@pytest.mark.parametrize("artifact", ARTIFACTS, ids=lambda a: a.name)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_loader_raises_only_typed_errors_on_mutated_bytes(artifact, written, data):
    path, good = written[artifact.name]
    path.write_bytes(data.draw(_mutated(good), label="bytes"))
    typed = (artifact.error, ConfigurationError) if artifact.validates else artifact.error
    try:
        artifact.load(path)
    except typed:
        pass  # rejected with a typed error; a mutation may also leave it valid
