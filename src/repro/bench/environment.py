"""Environment fingerprint recorded in every benchmark artifact.

A perf number without its substrate is unfalsifiable; the fingerprint pins
the interpreter, numpy + BLAS backend, platform and git revision so a
regression report can distinguish "the code got slower" from "the runner
changed".
"""

from __future__ import annotations

import platform
import subprocess
import sys
from typing import Any

import numpy as np

from repro.nn.compute import active_policy


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _blas_backend() -> str:
    """Best-effort name of numpy's BLAS backend."""
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name", "")
        version = blas.get("version", "")
        if name:
            return f"{name} {version}".strip()
    except (TypeError, AttributeError, KeyError):
        pass
    return "unknown"


def environment_fingerprint() -> dict[str, Any]:
    """The reproducibility context for one benchmark run."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": _blas_backend(),
        "git_sha": _git_sha(),
        "compute_dtype": active_policy().dtype_name,
    }
