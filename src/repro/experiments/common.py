"""Shared experiment infrastructure: scales, dataset/model caching.

Training a baseline takes seconds at bench scale but would dominate every
figure's runtime if repeated; this module trains each (architecture, taps,
scale, seed) combination once per process and hands out the cached result.

Digit sets are cached for as long as someone uses them.  A pair lives
while a caller holds both its splits, or while a :func:`holding_datasets`
scope is open; after that it is freed, and a later :func:`get_datasets`
synthesizes it again, bit for bit.  A process that serves a trained
model therefore does not carry the training pixels.  Callers that reuse
pairs across many calls (the bench runner, the experiment runner, the
test and bench suites) run inside one scope, so each synthesizes each
pair once.  A caller that trains and then evaluates fetches the pair
before :func:`get_trained`, so training finds it.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.cdl.training import CdlTrainingConfig, TrainedCdl, train_cdln
from repro.cdl.architectures import ARCHITECTURES
from repro.data.dataset import DigitDataset
from repro.data.synthetic_mnist import generate_synthetic_mnist, make_dataset_pair
from repro.errors import ConfigurationError
from repro.nn.compute import active_policy
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class Scale:
    """Dataset/training sizes for an experiment run.

    The paper uses MNIST's 60k/10k split; the presets trade fidelity for
    runtime so tests run in seconds and benches in minutes.
    """

    num_train: int = 3000
    num_test: int = 1000
    baseline_epochs: int = 4

    def __post_init__(self) -> None:
        check_positive_int(self.num_train, "num_train")
        check_positive_int(self.num_test, "num_test")
        check_positive_int(self.baseline_epochs, "baseline_epochs")

    @staticmethod
    def tiny() -> "Scale":
        """Unit-test scale, statistically noisy.

        :func:`get_trained` takes about 0.27 s (``mnist_3c``) and 0.45 s
        (``mnist_2c``) in float64, 0.17 s and 0.27 s in float32, dataset
        generation excluded (medians of 3, 2-vCPU x86-64, BLAS on one
        thread).
        """
        return Scale(num_train=400, num_test=200, baseline_epochs=2)

    @staticmethod
    def small() -> "Scale":
        """Bench scale (default): paper-shaped results.

        :func:`get_trained` takes about 2.2 s (``mnist_3c``) and 4.0 s
        (``mnist_2c``) in float64, 1.3 s and 2.5 s in float32, measured as
        for :meth:`tiny`.

        Four epochs leaves the baseline slightly under its convergence
        ceiling -- the same regime as the paper's 97.55 % MNIST baseline,
        and the regime in which the linear stages' accuracy advantage
        (Table III) is visible.
        """
        return Scale(num_train=3000, num_test=1000, baseline_epochs=4)

    @staticmethod
    def full() -> "Scale":
        """Closest to the paper: larger splits, longer training."""
        return Scale(num_train=12000, num_test=4000, baseline_epochs=8)


_Pair = tuple[DigitDataset, DigitDataset]
#: Weak references to the datasets of every set handed out, by key.
_dataset_cache: dict[tuple, tuple[weakref.ref, ...]] = {}
#: The sets an open :func:`holding_datasets` scope keeps; None outside one.
_held: dict[tuple, tuple[DigitDataset, ...]] | None = None
_trained_cache: dict[tuple, TrainedCdl] = {}


def clear_cache() -> None:
    """Forget every cached dataset and drop every trained model (mainly for
    tests).

    A later :func:`get_datasets` synthesizes a new pair even while a
    caller still holds the old one; an open :func:`holding_datasets`
    scope lets go of what it held.
    """
    _dataset_cache.clear()
    if _held is not None:
        _held.clear()
    _trained_cache.clear()


@contextmanager
def holding_datasets() -> Iterator[None]:
    """Keep every pair :func:`get_datasets` hands out until the scope exits.

    Scopes nest: the outermost one holds what inner ones fetched, so a
    test session that holds its pairs keeps those an experiment run
    inside it fetched as well.  As a decorator (``@holding_datasets()``)
    it opens a scope around each call.
    """
    global _held
    if _held is not None:
        yield
        return
    _held = {}
    try:
        yield
    finally:
        _held = None


def get_datasets(scale: Scale, seed: int = 0) -> _Pair:
    """Train/test synthetic-MNIST pair for ``(scale, seed)``, cached while held.

    Hands out the same two datasets while a caller holds both, or while
    a :func:`holding_datasets` scope is open; otherwise synthesizes them
    again, bit-identical.  The images are held in the active compute
    policy's dtype, so each dtype has its own cache slot, as in
    :func:`get_trained`.  A float32 pair is the float64 pair rounded
    once, with the same labels and difficulties.
    """
    key = (scale.num_train, scale.num_test, seed, active_policy().dtype_name)
    return _cached(
        key, lambda: make_dataset_pair(scale.num_train, scale.num_test, rng=seed)
    )


def get_validation_set(size: int, seed: int) -> DigitDataset:
    """``size`` held-out digits drawn with ``seed``, cached while held.

    Cached like :func:`get_datasets`' pairs, by size, seed and dtype, so a
    caller that tunes on the same set round after round synthesizes it once
    while it (or a :func:`holding_datasets` scope) holds it.
    """
    key = ("validation", size, seed, active_policy().dtype_name)
    (validation,) = _cached(
        key,
        lambda: (generate_synthetic_mnist(size, rng=seed, name="validation"),),
    )
    return validation


def _cached(key: tuple, make) -> tuple[DigitDataset, ...]:
    """The datasets cached under ``key`` while held; else ``make()``'s."""
    refs = _dataset_cache.get(key, ())
    sets = tuple(ref() for ref in refs)
    if not sets or any(dataset is None for dataset in sets):
        sets = make()
        _dataset_cache[key] = tuple(weakref.ref(dataset) for dataset in sets)
    if _held is not None:
        _held[key] = sets
    return sets


def get_trained(
    architecture: str,
    scale: Scale,
    seed: int = 0,
    *,
    attach: str = "paper",
    gain_epsilon: float | None = 0.0,
    delta: float = 0.6,
) -> TrainedCdl:
    """A trained baseline + CDLN for an architecture, cached per process.

    Trains on :func:`get_datasets`' pair for ``(scale, seed)`` and keeps
    no reference to it, so a caller that also evaluates on that pair
    fetches it first and holds it across this call.

    Parameters
    ----------
    attach:
        ``"paper"`` uses the architecture's Table I/II tap points and runs
        gain admission; ``"all"`` taps every pooling layer and skips
        admission (the configuration the stage-sweep figures need).
    """
    if architecture not in ARCHITECTURES:
        raise ConfigurationError(
            f"unknown architecture {architecture!r}; available: {sorted(ARCHITECTURES)}"
        )
    if attach not in ("paper", "all"):
        raise ConfigurationError(f"attach must be 'paper' or 'all', got {attach!r}")
    # The compute policy's dtype shapes the trained parameters, so models
    # built under different policies must not share a cache slot.
    key = (architecture, scale, seed, attach, gain_epsilon, delta,
           active_policy().dtype_name)
    if key not in _trained_cache:
        train, _test = get_datasets(scale, seed)
        spec = ARCHITECTURES[architecture]
        taps = spec.attach_indices if attach == "paper" else spec.all_tap_indices
        config = CdlTrainingConfig(
            architecture=architecture,
            baseline_epochs=scale.baseline_epochs,
            delta=delta,
            gain_epsilon=gain_epsilon if attach == "paper" else None,
        )
        _trained_cache[key] = train_cdln(
            train, config=config, attach_indices=taps, rng=seed + 1
        )
    return _trained_cache[key]
