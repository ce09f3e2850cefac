"""Process-wide compute policy: dtype selection.

The paper's whole premise is doing *less arithmetic per input*; this module
controls the constant factors around that arithmetic.  A
:class:`ComputePolicy` names the floating-point dtype every freshly built
model computes in (float64 by default, for bit-level parity with the seed
test suite; float32 roughly halves memory traffic and doubles BLAS
throughput on the paper's small networks).

Resolution order for the active policy:

1. the innermost :func:`compute_policy` context on the current thread,
2. the process default (:func:`set_default_policy`), which is seeded from
   the ``REPRO_COMPUTE_DTYPE`` environment variable at import time.

Context overrides are thread-local on purpose: a serving worker thread
computes in whatever dtype its *model parameters* carry (layers follow
their params), so a policy context opened on the main thread can never
race a worker mid-batch.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError

#: Supported compute dtypes, by canonical name.
DTYPES: dict[str, np.dtype] = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}

#: Environment variable consulted for the process-default policy.
DTYPE_ENV_VAR = "REPRO_COMPUTE_DTYPE"


def resolve_dtype(spec: str | np.dtype | type | None) -> np.dtype:
    """Normalize a dtype spec (name, numpy dtype or scalar type) to a dtype.

    ``None`` resolves to the active policy's dtype.
    """
    if spec is None:
        return active_policy().dtype
    return resolve_dtype_static(spec)


@dataclass(frozen=True)
class ComputePolicy:
    """What the hot paths compute with.

    Attributes
    ----------
    dtype:
        Floating-point dtype for parameters, activations and loss targets
        of everything *built or trained* while the policy is active.
        Existing models keep their parameter dtype; layers compute in the
        dtype of their own params (use ``Network.astype`` to convert).
    """

    dtype: np.dtype

    def __post_init__(self) -> None:
        object.__setattr__(self, "dtype", resolve_dtype_static(self.dtype))

    @property
    def dtype_name(self) -> str:
        return self.dtype.name

    def cast(self, array: np.ndarray) -> np.ndarray:
        """``array`` as this policy's dtype (no copy when already right)."""
        return np.asarray(array, dtype=self.dtype)

    def __repr__(self) -> str:
        return f"ComputePolicy(dtype={self.dtype_name})"


def resolve_dtype_static(spec: str | np.dtype | type) -> np.dtype:
    """Like :func:`resolve_dtype` but without the policy-default fallback."""
    if spec is None:
        raise ConfigurationError("a ComputePolicy needs an explicit dtype")
    if isinstance(spec, str):
        try:
            return DTYPES[spec]
        except KeyError:
            raise ConfigurationError(
                f"unsupported compute dtype {spec!r}; use one of {sorted(DTYPES)}"
            ) from None
    dtype = np.dtype(spec)
    if dtype not in DTYPES.values():
        raise ConfigurationError(
            f"unsupported compute dtype {dtype}; use one of {sorted(DTYPES)}"
        )
    return dtype


def _policy_from_env() -> ComputePolicy:
    return ComputePolicy(
        dtype=resolve_dtype_static(os.environ.get(DTYPE_ENV_VAR, "float64"))
    )


_default_policy: ComputePolicy = _policy_from_env()
_tls = threading.local()


def _stack() -> list[ComputePolicy]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def active_policy() -> ComputePolicy:
    """The policy governing compute on the current thread."""
    stack = _stack()
    return stack[-1] if stack else _default_policy


def default_policy() -> ComputePolicy:
    """The process-wide default (ignoring any context overrides)."""
    return _default_policy


def set_default_policy(
    dtype: str | np.dtype | type | None = None,
) -> ComputePolicy:
    """Replace the process default; an unset dtype keeps the current one."""
    global _default_policy
    if dtype is not None:
        _default_policy = ComputePolicy(dtype=dtype)
    return _default_policy


@contextmanager
def compute_policy(
    dtype: str | np.dtype | type | None = None,
) -> Iterator[ComputePolicy]:
    """Thread-local policy override; an unset dtype inherits the active one.

    >>> with compute_policy(dtype="float32"):
    ...     net, _ = mnist_3c(rng=0)   # built, trained and run in float32
    """
    override = ComputePolicy(dtype=dtype) if dtype is not None else active_policy()
    stack = _stack()
    stack.append(override)
    try:
        yield override
    finally:
        stack.pop()
