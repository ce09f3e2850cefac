"""Mini-batch training loop.

:class:`Trainer` implements the standard epoch loop used to learn the
baseline DLN in Algorithm 1, step 1: shuffle, mini-batch forward/backward,
optimizer step, optional validation, and a recorded
:class:`TrainingHistory`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.nn.losses import Loss, get_loss
from repro.nn.metrics import accuracy
from repro.nn.network import Network
from repro.nn.optimizers import Optimizer, get_optimizer
from repro.utils.logging import get_logger
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int

_log = get_logger("nn.trainer")


@dataclass(frozen=True)
class EpochStats:
    """Metrics recorded at the end of one epoch."""

    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float | None = None
    val_accuracy: float | None = None


@dataclass
class TrainingHistory:
    """Accumulated per-epoch statistics."""

    epochs: list[EpochStats] = field(default_factory=list)

    def append(self, stats: EpochStats) -> None:
        self.epochs.append(stats)

    @property
    def final(self) -> EpochStats:
        if not self.epochs:
            raise ConfigurationError("history is empty; train first")
        return self.epochs[-1]

    def losses(self) -> list[float]:
        return [e.train_loss for e in self.epochs]

    def accuracies(self) -> list[float]:
        return [e.train_accuracy for e in self.epochs]


class Trainer:
    """Trains a :class:`~repro.nn.network.Network` by mini-batch gradient descent.

    Parameters
    ----------
    network:
        The model to optimize (updated in place).
    loss:
        Loss name or instance (default: the paper recipe's MSE).
    optimizer:
        Optimizer name or instance (default: plain SGD at 0.5, which suits
        the sigmoid/MSE recipe on 28x28 digit tasks).
    batch_size:
        Mini-batch size.
    rng:
        Seed/generator for epoch shuffling.
    """

    def __init__(
        self,
        network: Network,
        *,
        loss: str | Loss = "mse",
        optimizer: str | Optimizer = None,
        batch_size: int = 32,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.network = network
        self.loss = get_loss(loss)
        if optimizer is None:
            optimizer = get_optimizer("sgd", learning_rate=0.5)
        self.optimizer = get_optimizer(optimizer)
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.rng = ensure_rng(rng)
        self.history = TrainingHistory()

    def fit(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        *,
        epochs: int = 5,
        validation: tuple[np.ndarray, np.ndarray] | None = None,
        early_stop_patience: int | None = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Run the training loop.

        Parameters
        ----------
        images, labels:
            Training batch (``(N, ...)`` images and ``(N,)`` integer labels).
        epochs:
            Number of passes over the data.
        validation:
            Optional ``(images, labels)`` evaluated after each epoch.
        early_stop_patience:
            Stop if validation loss fails to improve for this many epochs
            (requires ``validation``).
        """
        epochs = check_positive_int(epochs, "epochs")
        if images.shape[0] != labels.shape[0]:
            raise DataError(
                f"images ({images.shape[0]}) and labels ({labels.shape[0]}) disagree"
            )
        if images.shape[0] == 0:
            raise DataError("cannot train on an empty dataset")
        if early_stop_patience is not None and validation is None:
            raise ConfigurationError("early_stop_patience requires a validation set")

        n = images.shape[0]
        best_val = np.inf
        stale = 0
        for epoch in range(epochs):
            self.optimizer.start_epoch(epoch)
            order = self.rng.permutation(n)
            epoch_loss = 0.0
            epoch_correct = 0
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                xb, yb = images[idx], labels[idx]
                out = self.network.forward(xb, training=True)
                epoch_loss += self.loss.value(out, yb) * xb.shape[0]
                epoch_correct += int(np.sum(out.argmax(axis=1) == yb))
                self.network.backward(self.loss, out, yb)
                self.optimizer.step(self.network.trainable_layers())
            stats = EpochStats(
                epoch=epoch,
                train_loss=epoch_loss / n,
                train_accuracy=epoch_correct / n,
            )
            if validation is not None:
                val_x, val_y = validation
                val_out = self.network.predict(val_x)
                stats = EpochStats(
                    epoch=epoch,
                    train_loss=stats.train_loss,
                    train_accuracy=stats.train_accuracy,
                    val_loss=self.loss.value(val_out, val_y),
                    val_accuracy=accuracy(val_out.argmax(axis=1), val_y),
                )
            self.history.append(stats)
            if verbose:
                _log.info(
                    "epoch %d: loss=%.4f acc=%.4f val_loss=%s val_acc=%s",
                    epoch,
                    stats.train_loss,
                    stats.train_accuracy,
                    stats.val_loss,
                    stats.val_accuracy,
                )
            if early_stop_patience is not None and stats.val_loss is not None:
                if stats.val_loss < best_val - 1e-12:
                    best_val = stats.val_loss
                    stale = 0
                else:
                    stale += 1
                    if stale >= early_stop_patience:
                        break
        # The last batch's activations are dead weight in a trained model
        # (and would be copied wherever the model is shared or pickled).
        for layer in self.network.layers:
            layer.clear_cache()
        return self.history

    def evaluate(self, images: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
        """Return ``(loss, accuracy)`` on a held-out set."""
        out = self.network.predict(images)
        return self.loss.value(out, labels), accuracy(out.argmax(axis=1), labels)
