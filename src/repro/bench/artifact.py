"""Schema-versioned JSON perf artifacts: ``BENCH_<name>.json``.

One artifact per benchmark per run.  The schema is versioned so the compare
gate can refuse to diff artifacts written by an incompatible harness
instead of silently comparing apples to oranges.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ConfigurationError, SerializationError
from repro.utils.jsonio import read_object, record_fields

#: Bump on any backwards-incompatible change to the artifact layout.
SCHEMA = "repro.bench/1"

_REQUIRED_KEYS = ("schema", "benchmark", "group", "tier", "seed",
                  "timing", "metrics", "environment")


def artifact_filename(name: str) -> str:
    """The on-disk filename for benchmark ``name``."""
    return f"BENCH_{name}.json"


@dataclass(frozen=True)
class BenchArtifact:
    """The machine-readable record of one benchmark measurement."""

    benchmark: str
    group: str
    tier: str
    seed: int
    timing: Mapping[str, Any]
    metrics: Mapping[str, float]
    environment: Mapping[str, Any]
    throughput_per_s: float | None = None
    text: str = ""
    schema: str = SCHEMA
    extra: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "benchmark": self.benchmark,
            "group": self.group,
            "tier": self.tier,
            "seed": self.seed,
            "timing": dict(self.timing),
            "throughput_per_s": self.throughput_per_s,
            "metrics": {k: _jsonable(v) for k, v in self.metrics.items()},
            "environment": dict(self.environment),
            "text": self.text,
            "extra": dict(self.extra),
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "BenchArtifact":
        validate_artifact_dict(data)
        return BenchArtifact(
            benchmark=data["benchmark"],
            group=data["group"],
            tier=data["tier"],
            seed=int(data["seed"]),
            timing=dict(data["timing"]),
            metrics={k: float(v) for k, v in data["metrics"].items()},
            environment=dict(data["environment"]),
            throughput_per_s=data.get("throughput_per_s"),
            text=data.get("text", ""),
            schema=data["schema"],
            extra=dict(data.get("extra", {})),
        )

    def write(self, directory: Path | str) -> Path:
        """Serialize into ``directory``; returns the artifact path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / artifact_filename(self.benchmark)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path


def validate_artifact_dict(data: Mapping[str, Any]) -> None:
    """Raise :class:`ConfigurationError` unless ``data`` is a valid artifact."""
    missing = [key for key in _REQUIRED_KEYS if key not in data]
    if missing:
        raise ConfigurationError(f"artifact missing keys: {missing}")
    if data["schema"] != SCHEMA:
        raise ConfigurationError(
            f"artifact schema {data['schema']!r} is not {SCHEMA!r}; "
            "regenerate baselines with this harness version"
        )
    if not isinstance(data["metrics"], Mapping):
        raise ConfigurationError("artifact 'metrics' must be a mapping")
    for key, value in data["metrics"].items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigurationError(
                f"metric {key!r} must be numeric, got {type(value).__name__}"
            )


def load_artifact(path: Path | str) -> BenchArtifact:
    """Read and validate one artifact file.

    Anything that is not a readable UTF-8 artifact -- bad bytes, bad JSON,
    a missing or ill-typed field -- raises :class:`ConfigurationError`.
    """
    path = Path(path)
    try:
        data = read_object(path)
        with record_fields(str(path)):
            return BenchArtifact.from_dict(data)
    except (OSError, SerializationError) as exc:
        raise ConfigurationError(f"cannot read artifact {path}: {exc}") from exc


def load_artifact_dir(directory: Path | str) -> dict[str, BenchArtifact]:
    """Every ``BENCH_*.json`` under ``directory``, keyed by benchmark name."""
    directory = Path(directory)
    artifacts: dict[str, BenchArtifact] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        artifact = load_artifact(path)
        artifacts[artifact.benchmark] = artifact
    return artifacts


def _jsonable(value: Any) -> float:
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise ConfigurationError(f"non-finite metric value {value!r}")
    return value
