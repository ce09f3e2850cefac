"""What a run measured and where: input digests and the environment.

The input digest covers the generated images, labels and arrival times,
so a change to digit generation or to the corruptions shows up as a
different workload rather than as a speed change.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

from harness import BLAS_ENV_VARS


def digest(*arrays: np.ndarray) -> str:
    """Short SHA-256 over the dtype, shape and bytes of each array."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def source_digest(src: Path) -> str:
    """Short SHA-256 over every ``.py`` file of the program, by path."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def _openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, if numpy links one we can find."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_name() -> str:
    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints instead of returning
        return "unknown"
    blas = info.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def environment(root: Path, compute_dtype: str) -> dict:
    """Interpreter, libraries, machine and program version of this run."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads_env": {name: os.environ.get(name) for name in BLAS_ENV_VARS},
        "blas_threads_runtime": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "compute_dtype": compute_dtype,
        "git_sha": git_sha(root),
        "source_digest": source_digest(root / "src" / "repro"),
    }
