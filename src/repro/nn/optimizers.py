"""First-order optimizers and learning-rate schedules.

Optimizers keep their per-parameter state keyed by ``(id(layer), name)`` so
one optimizer instance can drive a whole network (or the CDL cascade's many
linear classifiers) without the layers knowing about it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers.base import Layer


# ---------------------------------------------------------------------------
# Learning-rate schedules
# ---------------------------------------------------------------------------
class Schedule:
    """Maps an epoch index to a learning-rate multiplier base value."""

    def learning_rate(self, epoch: int) -> float:
        raise NotImplementedError


class ConstantSchedule(Schedule):
    """A fixed learning rate."""

    def __init__(self, learning_rate_value: float) -> None:
        if learning_rate_value <= 0:
            raise ConfigurationError(f"learning rate must be > 0, got {learning_rate_value}")
        self._lr = float(learning_rate_value)

    def learning_rate(self, epoch: int) -> float:
        return self._lr


class StepDecay(Schedule):
    """Multiply the rate by ``factor`` every ``step`` epochs."""

    def __init__(self, initial: float, step: int, factor: float = 0.5) -> None:
        if initial <= 0 or step < 1 or not 0 < factor <= 1:
            raise ConfigurationError(
                f"invalid StepDecay(initial={initial}, step={step}, factor={factor})"
            )
        self.initial = float(initial)
        self.step = int(step)
        self.factor = float(factor)

    def learning_rate(self, epoch: int) -> float:
        return self.initial * self.factor ** (epoch // self.step)


class ExponentialDecay(Schedule):
    """``initial * decay**epoch``."""

    def __init__(self, initial: float, decay: float = 0.95) -> None:
        if initial <= 0 or not 0 < decay <= 1:
            raise ConfigurationError(
                f"invalid ExponentialDecay(initial={initial}, decay={decay})"
            )
        self.initial = float(initial)
        self.decay = float(decay)

    def learning_rate(self, epoch: int) -> float:
        return self.initial * self.decay**epoch


def _as_schedule(lr: float | Schedule) -> Schedule:
    if isinstance(lr, Schedule):
        return lr
    return ConstantSchedule(float(lr))


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------
class Optimizer:
    """Base optimizer: call :meth:`step` after gradients are populated."""

    name = "optimizer"

    def __init__(self, learning_rate: float | Schedule = 0.1) -> None:
        self.schedule = _as_schedule(learning_rate)
        self.epoch = 0
        self._state: dict[tuple[int, str], dict[str, np.ndarray]] = {}

    @property
    def current_lr(self) -> float:
        return self.schedule.learning_rate(self.epoch)

    def start_epoch(self, epoch: int) -> None:
        """Inform the optimizer of the epoch index (drives the schedule)."""
        self.epoch = int(epoch)

    def step(self, layers: list[Layer]) -> None:
        """Apply one update to every parameter of every layer."""
        lr = self.current_lr
        for layer in layers:
            for key, param in layer.params.items():
                grad = layer.grads.get(key)
                if grad is None:
                    continue
                self._update(param, grad, lr, self._slot(layer, key, param))

    def _slot(self, layer: Layer, key: str, param: np.ndarray) -> dict[str, np.ndarray]:
        slot = self._state.get((id(layer), key))
        if slot is None:
            slot = self._state[(id(layer), key)] = self._init_slot(param)
        return slot

    # -- subclass hooks ------------------------------------------------------
    def _init_slot(self, param: np.ndarray) -> dict[str, np.ndarray]:
        return {}

    def _update(self, param, grad, lr, slot) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Plain stochastic gradient descent (the recipe of [19])."""

    name = "sgd"

    def _update(self, param, grad, lr, slot) -> None:
        param -= lr * grad


class Momentum(Optimizer):
    """SGD with (optionally Nesterov) momentum."""

    name = "momentum"

    def __init__(
        self,
        learning_rate: float | Schedule = 0.1,
        momentum: float = 0.9,
        *,
        nesterov: bool = False,
    ) -> None:
        super().__init__(learning_rate)
        if not 0 <= momentum < 1:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.nesterov = bool(nesterov)

    def _init_slot(self, param):
        return {"velocity": np.zeros_like(param)}

    def _update(self, param, grad, lr, slot) -> None:
        v = slot["velocity"]
        v *= self.momentum
        v -= lr * grad
        if self.nesterov:
            param += self.momentum * v - lr * grad
        else:
            param += v


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015)."""

    name = "adam"

    def __init__(
        self,
        learning_rate: float | Schedule = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1 or epsilon <= 0:
            raise ConfigurationError(
                f"invalid Adam(beta1={beta1}, beta2={beta2}, epsilon={epsilon})"
            )
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)

    def _init_slot(self, param):
        return {
            "m": np.zeros_like(param),
            "v": np.zeros_like(param),
            "t": np.zeros(1),
            # Scratch for the update's temporaries, reused every step.
            "a": np.empty_like(param),
            "b": np.empty_like(param),
        }

    def _update(self, param, grad, lr, slot) -> None:
        # The textbook update, one operation at a time in the same order,
        # so in place it rounds exactly as the expression form does.
        slot["t"] += 1
        t = float(slot["t"][0])
        m, v, a, b = slot["m"], slot["v"], slot["a"], slot["b"]
        m *= self.beta1
        np.multiply(grad, 1 - self.beta1, out=a)
        m += a
        v *= self.beta2
        np.multiply(grad, 1 - self.beta2, out=a)
        a *= grad
        v += a
        np.divide(m, 1 - self.beta1**t, out=a)  # m_hat
        np.divide(v, 1 - self.beta2**t, out=b)  # v_hat
        a *= lr
        np.sqrt(b, out=b)
        b += self.epsilon
        a /= b
        param -= a


_REGISTRY: dict[str, type[Optimizer]] = {
    cls.name: cls for cls in (SGD, Momentum, Adam)
}


def get_optimizer(spec: str | Optimizer, **kwargs) -> Optimizer:
    """Resolve an optimizer by name or pass an instance through."""
    if isinstance(spec, Optimizer):
        return spec
    try:
        return _REGISTRY[spec](**kwargs)
    except KeyError:
        raise ConfigurationError(
            f"unknown optimizer {spec!r}; available: {sorted(_REGISTRY)}"
        ) from None
