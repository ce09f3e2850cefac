"""The :class:`DigitDataset` container used throughout the library.

Holds images ``(N, 1, H, W)``, integer labels ``(N,)`` and an optional
per-sample difficulty score ``(N,)`` (available for synthetic data, used by
the Fig. 8 difficulty analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DataError
from repro.nn.compute import active_policy
from repro.utils.rng import ensure_rng

#: Images per float64 block where a set is built block by block into the
#: compute dtype (synthesis, corruptions): enough to amortize numpy's
#: per-call cost, few enough that a block's temporaries stay at a few MB.
IMAGES_PER_BLOCK = 32


def image_blocks(n: int):
    """The row slices of :data:`IMAGES_PER_BLOCK`-image blocks over ``n`` images."""
    return (
        slice(start, start + IMAGES_PER_BLOCK)
        for start in range(0, n, IMAGES_PER_BLOCK)
    )


@dataclass
class DigitDataset:
    """An immutable-by-convention image classification dataset.

    ``images`` are cast to the active compute policy's dtype
    (:mod:`repro.nn.compute`), the dtype models built beside the dataset
    compute in: float64 by default, float32 under
    ``compute_policy("float32")``.  Images that already have it are held
    without a copy.
    """

    images: np.ndarray
    labels: np.ndarray
    num_classes: int = 10
    #: Per-sample generation difficulty in [0, 1]; NaN when unknown (real data).
    difficulty: np.ndarray = field(default=None)  # type: ignore[assignment]
    name: str = "digits"

    def __post_init__(self) -> None:
        self.images = active_policy().cast(self.images)
        self.labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if self.images.ndim == 3:  # (N, H, W) -> (N, 1, H, W)
            self.images = self.images[:, None, :, :]
        if self.images.ndim != 4:
            raise DataError(
                f"images must be (N, C, H, W) or (N, H, W), got {self.images.shape}"
            )
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"images ({self.images.shape[0]}) and labels ({self.labels.shape[0]}) disagree"
            )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise DataError(
                f"labels must lie in [0, {self.num_classes}), got "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )
        if self.difficulty is None:
            self.difficulty = np.full(self.labels.shape, np.nan)
        else:
            self.difficulty = np.asarray(self.difficulty, dtype=np.float64).ravel()
            if self.difficulty.shape != self.labels.shape:
                raise DataError("difficulty must align with labels")

    # -- basic accessors -----------------------------------------------------
    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return tuple(self.images.shape[1:])  # type: ignore[return-value]

    def subset(self, indices: np.ndarray, name: str | None = None) -> "DigitDataset":
        """A new dataset restricted to ``indices``.

        Indexing with an array, a 0-d one included, returns a copy, so each
        array is copied once and shares no memory with this dataset.
        """
        indices = np.asarray(indices)
        return DigitDataset(
            images=self.images[indices],
            labels=self.labels[indices],
            num_classes=self.num_classes,
            difficulty=self.difficulty[indices],
            name=name or self.name,
        )

    def for_class(self, digit: int) -> "DigitDataset":
        """All samples whose true label is ``digit``."""
        if not 0 <= digit < self.num_classes:
            raise DataError(f"digit must be in [0, {self.num_classes}), got {digit}")
        return self.subset(np.flatnonzero(self.labels == digit), name=f"{self.name}[{digit}]")

    def class_counts(self) -> np.ndarray:
        """Number of samples per class, ``(num_classes,)``."""
        return np.bincount(self.labels, minlength=self.num_classes)

    def shuffled(self, rng: int | np.random.Generator | None = None) -> "DigitDataset":
        gen = ensure_rng(rng)
        return self.subset(gen.permutation(len(self)))

    def batches(self, batch_size: int):
        """Yield ``(images, labels)`` chunks in order."""
        if batch_size < 1:
            raise DataError(f"batch_size must be >= 1, got {batch_size}")
        for start in range(0, len(self), batch_size):
            stop = start + batch_size
            yield self.images[start:stop], self.labels[start:stop]

    def __repr__(self) -> str:
        return (
            f"DigitDataset({self.name!r}, n={len(self)}, "
            f"shape={self.image_shape}, classes={self.num_classes})"
        )


def train_test_split(
    dataset: DigitDataset,
    test_fraction: float = 0.2,
    rng: int | np.random.Generator | None = None,
) -> tuple[DigitDataset, DigitDataset]:
    """Shuffle and split into train/test subsets."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if len(dataset) < 2:
        raise DataError("need at least 2 samples to split")
    gen = ensure_rng(rng)
    order = gen.permutation(len(dataset))
    n_test = max(1, int(round(len(dataset) * test_fraction)))
    n_test = min(n_test, len(dataset) - 1)
    test = dataset.subset(order[:n_test], name=f"{dataset.name}-test")
    train = dataset.subset(order[n_test:], name=f"{dataset.name}-train")
    return train, test
