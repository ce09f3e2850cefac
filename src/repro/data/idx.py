"""Reader for the MNIST IDX binary format.

If the real MNIST files (``train-images-idx3-ubyte`` etc., optionally
``.gz``) are present on disk, :func:`load_mnist` returns them as
:class:`~repro.data.dataset.DigitDataset` objects so every experiment in
this repository can run unchanged on the genuine dataset.  In the offline
environment the synthetic generator is used instead.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np

from repro.data.dataset import DigitDataset
from repro.errors import DataError
from repro.nn.compute import active_policy

_IMAGE_MAGIC = 2051
_LABEL_MAGIC = 2049

#: Conventional MNIST file stems.
TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"


def _open_maybe_gz(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _resolve(directory: Path, stem: str) -> Path:
    for candidate in (directory / stem, directory / f"{stem}.gz"):
        if candidate.exists():
            return candidate
    raise DataError(f"MNIST file {stem}(.gz) not found in {directory}")


def read_idx_images(path: str | Path) -> np.ndarray:
    """Read an IDX3 image file into a float array ``(N, H, W)`` in [0, 1].

    The array has the active compute policy's dtype.
    """
    path = Path(path)
    with _open_maybe_gz(path) as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise DataError(f"truncated IDX image header in {path}")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != _IMAGE_MAGIC:
            raise DataError(f"{path} is not an IDX3 image file (magic={magic})")
        data = fh.read(count * rows * cols)
        if len(data) != count * rows * cols:
            raise DataError(f"truncated IDX image payload in {path}")
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(count, rows, cols)
    return np.divide(pixels, 255, dtype=active_policy().dtype)


def read_idx_labels(path: str | Path) -> np.ndarray:
    """Read an IDX1 label file into an int64 array ``(N,)``."""
    path = Path(path)
    with _open_maybe_gz(path) as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise DataError(f"truncated IDX label header in {path}")
        magic, count = struct.unpack(">II", header)
        if magic != _LABEL_MAGIC:
            raise DataError(f"{path} is not an IDX1 label file (magic={magic})")
        data = fh.read(count)
        if len(data) != count:
            raise DataError(f"truncated IDX label payload in {path}")
    return np.frombuffer(data, dtype=np.uint8).astype(np.int64)


def load_mnist(directory: str | Path) -> tuple[DigitDataset, DigitDataset]:
    """Load the four standard MNIST files from ``directory``.

    Returns ``(train, test)`` datasets with unknown (NaN) difficulty.
    """
    directory = Path(directory)
    train_images = read_idx_images(_resolve(directory, TRAIN_IMAGES))
    train_labels = read_idx_labels(_resolve(directory, TRAIN_LABELS))
    test_images = read_idx_images(_resolve(directory, TEST_IMAGES))
    test_labels = read_idx_labels(_resolve(directory, TEST_LABELS))
    if train_images.shape[0] != train_labels.shape[0]:
        raise DataError("train images/labels counts disagree")
    if test_images.shape[0] != test_labels.shape[0]:
        raise DataError("test images/labels counts disagree")
    train = DigitDataset(train_images, train_labels, name="mnist-train")
    test = DigitDataset(test_images, test_labels, name="mnist-test")
    return train, test


def mnist_available(directory: str | Path) -> bool:
    """True when all four MNIST files are present in ``directory``."""
    directory = Path(directory)
    try:
        for stem in (TRAIN_IMAGES, TRAIN_LABELS, TEST_IMAGES, TEST_LABELS):
            _resolve(directory, stem)
    except DataError:
        return False
    return True
